"""Command-line interface: config parsing, dispatch, reports, CSV.

This is the one module that writes report sentences: `classify`,
`threads`, `spectrum` and `simulate` return exact values, and the text
and JSON reports put them into words here.  The computing stays in those
modules (`simulate` builds the diagonal model); `cli` dispatches.

Config files are line-based, one `key value` per line, `#` comments.
The keys are `spectrum` (repeatable) and those of `_SETTINGS`, each at
most once: n_max, K (inert: validated and printed only), search_depth,
node_budget, delta, epsilon, float_digits, ext_zero, emit_csv, tower,
lambda.  Each row there parses and renders its value, so `parse_config`,
`render_config` and the report's params read one grammar.  Spectrum lines
use the primitive grammar of `_PRIMITIVES`, each field at most once, e.g.

    spectrum rect re=[-1,0] im=[-1*pi,1*pi]
    spectrum ilattice re=0 base=0 step=2*pi
    spectrum primefamily nseq=2j J=8

Pi-linear literals are written without spaces: `1/3+5/8*pi`.
Exit codes: 0 definite verdict / success, 2 inconclusive (also when an
enumeration limit is reached), 1 error.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .classify import ClassificationReport, ClassifyParams, Verdict, WitnessThread
from .classify import classify as run_classify
from .exactnum import PiLinear
from .exactnum import parse as parse_pilinear, render as render_pilinear
from .levels import (
    Component,
    ComputationLimit,
    Interval,
    LevelCache,
    LevelPoint,
    Orbit,
    enumerate_points,
    sample_points,
)
from .records import record
from .spectrum import (
    ClosednessWitness,
    ConsistencyError,
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SectionFamilyReport,
    SpectrumError,
    SpectrumSet,
    VLine,
    VSegment,
    antipode_level_union,
    image_closedness,
)
from .threads import convergence_rate

# simulate and towers load on first use: most calls need neither


class ConfigError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}")


@record
class Config:
    spectrum: SpectrumSet
    params: ClassifyParams
    emit_csv: bool = False
    tower: Optional[Tower] = None
    lambdas: Optional[tuple[complex, ...]] = None


# ---------------------------------------------------------------------------
# the config grammar
#
# A value kind is a (parse, render) pair: parse(text, field) returns the
# value or raises ValueError with the message to report, and render(value)
# is text that parses back to the same value.


def _integer(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}") from None


def _rational(text: str, field: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None


def _count(text: str, field: str) -> int:
    if (n := _integer(text, field)) < 1:
        raise ValueError(f"{field} must be >= 1")
    return n


def _positive(text: str, field: str) -> Fraction:
    if (x := _rational(text, field)) <= 0:
        raise ValueError(f"{field} must be positive")
    return x


def _positives(text: str, field: str) -> tuple[Fraction, ...]:
    xs = tuple(_rational(x.strip(), field) for x in text.split(","))
    if any(x <= 0 for x in xs):
        raise ValueError(f"{field} must be positive")
    return xs


def _boolean(text: str, field: str) -> bool:
    if text in {"true", "yes", "1"}:
        return True
    if text in {"false", "no", "0"}:
        return False
    raise ValueError(f"bad boolean {text!r}")


def _tower(text: str, field: str) -> Tower:
    from .towers import Tower

    kind, tail = (text.split(None, 1) + [""])[:2]
    try:
        if kind == "zero":
            if tail:  # the zero tower takes no entries
                raise ValueError
            return Tower(((),))
        if kind in ("constant", "periodic"):
            steps = tail.split("|") if kind == "periodic" else [tail]
            return Tower(tuple(tuple(int(x) for x in step.split(",")) for step in steps))
    except ValueError:
        raise ValueError(f"bad tower entries {tail!r}") from None
    raise ValueError(f"unknown tower kind {kind!r} (constant|periodic|zero)")


def _render_tower(tower: Tower) -> str:
    """A one-step cycle renders as a constant tower, which parses back to it."""
    if not tower.rank:
        return "zero"
    kind = "periodic " if len(tower.cycle) > 1 else "constant "
    return kind + "|".join(",".join(map(str, step)) for step in tower.cycle)


def _complexes(text: str, field: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(x.strip()) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad complex list {text!r}") from None


def _fmt_complex(c: complex) -> str:
    if c.imag == 0:
        return str(int(c.real)) if c.real.is_integer() else repr(c.real)
    return str(c).strip("()")


def _pair(text: str, field: str) -> tuple[str, str]:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected [a,b], got {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated values in {text!r}")
    return parts[0].strip(), parts[1].strip()


def _render_nseq(n_seq: tuple[int, int]) -> str:
    a, b = n_seq
    return f"{a if a > 1 else ''}j" + (f"+{b}" if b else "")


def _value(parse, text: str, field: str, line: int, col: int):
    """parse(text, field), its error reported at column `col` of `line`."""
    try:
        return parse(text, field)
    except ValueError as e:
        raise ConfigError(line, col, str(e)) from None


_RATIONAL = (_rational, str)
_PILINEAR = (
    lambda text, field: parse_pilinear(text),
    lambda x: render_pilinear(x).replace(" ", ""),
)
_COUNT = (_count, str)
_BOOLEAN = (_boolean, lambda b: str(b).lower())

# keyword -> (class, fields); a field is (key, kind, attribute), or
# (key, kind, low attribute, high attribute) for an `[a,b]` pair
_PRIMITIVES = {
    "point": (Point, (("re", _RATIONAL, "re"), ("im", _PILINEAR, "im"))),
    "vsegment": (VSegment, (("re", _RATIONAL, "re"), ("im", _PILINEAR, "im_lo", "im_hi"))),
    "ilattice": (
        ILattice,
        (("re", _RATIONAL, "re"), ("base", _PILINEAR, "base"), ("step", _PILINEAR, "step")),
    ),
    "vline": (VLine, (("re", _RATIONAL, "re"),)),
    "rect": (Rect, (("re", _RATIONAL, "re_lo", "re_hi"), ("im", _PILINEAR, "im_lo", "im_hi"))),
    "primefamily": (
        PrimeFamily,
        # the text goes to the constructor, which reports a bad formula
        (("nseq", (lambda text, field: text, _render_nseq), "n_seq"), ("J", (_integer, str), "J")),
    ),
}

# key -> (ClassifyParams or Config field, kind), in ClassifyParams field
# order; the config text and both report params blocks follow this order
_SETTINGS = {
    "n_max": ("n_max", _COUNT),
    "K": ("K", _COUNT),  # inert: validated and printed only
    "search_depth": ("search_depth", _COUNT),
    "node_budget": ("node_budget", _COUNT),
    "delta": ("delta", (_positive, str)),
    "epsilon": ("epsilons", (_positives, lambda xs: ",".join(map(str, xs)))),
    "float_digits": ("float_digits", _COUNT),
    "ext_zero": ("ext_zero", _BOOLEAN),
    "emit_csv": ("emit_csv", _BOOLEAN),
    "tower": ("tower", (_tower, _render_tower)),
    "lambda": ("lambdas", (_complexes, lambda cs: ",".join(map(_fmt_complex, cs)))),
}

_KV_RE = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")


def _parse_primitive(rest: str, line: int, col: int):
    """Parse `kind key=value ...`; `col` is the line column of the kind."""
    kind = rest.split(None, 1)[0]
    matches = list(_KV_RE.finditer(rest, len(kind)))
    kvs = {m.group(1): (m.group(2), col + m.start()) for m in matches}
    # blank out the key=value spans so the first stray character keeps its column
    leftover = _KV_RE.sub(lambda m: " " * len(m.group(0)), rest[len(kind):])
    if leftover.strip():
        start = len(kind) + len(leftover) - len(leftover.lstrip())
        raise ConfigError(line, col + start, f"unparsed text {' '.join(leftover.split())!r}")
    if kind not in _PRIMITIVES:
        raise ConfigError(line, col, f"unknown primitive {kind!r}")
    cls, fields = _PRIMITIVES[kind]
    for key, *_ in fields:
        if key not in kvs:
            raise ConfigError(line, col, f"{kind} needs {key}=")
    extra = set(kvs) - {key for key, *_ in fields}
    if extra:
        raise ConfigError(line, col, f"{kind} got unknown fields {sorted(extra)}")
    # split every [a,b] pair before parsing any value: a pair error comes first
    texts = [
        _value(_pair, kvs[key][0], key, line, kvs[key][1]) if len(attrs) == 2 else (kvs[key][0],)
        for key, _, *attrs in fields
    ]
    args = {}
    for (key, (parse, _), *attrs), parts in zip(fields, texts):
        for attr, text in zip(attrs, parts):
            args[attr] = _value(parse, text, key, line, kvs[key][1])
    for i, m in enumerate(matches):
        if m.group(1) in {k.group(1) for k in matches[:i]}:
            raise ConfigError(line, col + m.start(), f"repeated field {m.group(1)}=")
    try:
        return cls(**args)
    except SpectrumError as e:
        raise ConfigError(line, col, str(e))


def parse_config(text: str) -> Config:
    primitives = []
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, rest = (stripped.split(None, 1) + [""])[:2]
        key_col = raw.index(key) + 1
        if key != "spectrum" and key not in _SETTINGS:
            raise ConfigError(lineno, key_col, f"unknown key {key!r}")
        if not rest:
            raise ConfigError(lineno, key_col + len(key), f"{key} needs a value")
        col = raw.index(rest, key_col + len(key) - 1) + 1
        if key == "spectrum":
            primitives.append(_parse_primitive(rest, lineno, col))
            continue
        attr, (parse, _) = _SETTINGS[key]
        if attr in values:
            raise ConfigError(lineno, key_col, f"repeated key {key!r}")
        values[attr] = _value(parse, rest, attr, lineno, col)
    params = {attr: values.pop(attr) for attr in ClassifyParams._fields if attr in values}
    return Config(SpectrumSet(tuple(primitives)), ClassifyParams(**params), **values)


def _param_settings(params: ClassifyParams) -> list[tuple]:
    """(key, field, value, render) of each ClassifyParams setting, in table order."""
    return [
        (key, attr, getattr(params, attr), render)
        for key, (attr, (_, render)) in _SETTINGS.items()
        if attr in ClassifyParams._fields
    ]


def render_config(cfg: Config) -> str:
    """Canonical text form; parses back to an identical Config."""
    lines = []
    for p in cfg.spectrum.primitives:
        kind = next(k for k, (cls, _) in _PRIMITIVES.items() if type(p) is cls)
        words = [kind]
        for key, (_, render), *attrs in _PRIMITIVES[kind][1]:
            vals = ",".join(render(getattr(p, a)) for a in attrs)
            words.append(f"{key}=[{vals}]" if len(attrs) == 2 else f"{key}={vals}")
        lines.append("spectrum " + " ".join(words))
    for key, (attr, (_, render)) in _SETTINGS.items():
        value = getattr(cfg.params if attr in ClassifyParams._fields else cfg, attr)
        if value is not None:
            lines.append(f"{key} {render(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in examples


def builtin_example(name: str) -> Config:
    table = {
        "roots2k": "spectrum ilattice re=0 base=0 step=2*pi\n",
        "solenoid": "spectrum vline re=0\n",
        "rectangle": "spectrum rect re=[-1,0] im=[-1*pi,1*pi]\n",
        "primefamily": "spectrum primefamily nseq=2j J=8\n",
    }
    if name not in table:
        raise SpectrumError(
            f"unknown example {name!r} (choose from {', '.join(sorted(table))})"
        )
    return parse_config(table[name])


# ---------------------------------------------------------------------------
# report rendering


def format_g(x, digits: int) -> str:
    """`%.{digits}g` of a float or Fraction.  Past the float range the exact
    value is rounded half-even and printed as mantissa `e+NNN`."""
    try:
        return f"{float(x):.{digits}g}"
    except OverflowError:
        x = Fraction(x)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = max(digits, 1), decimal.MAX_EMAX
        d = (decimal.Decimal(x.numerator) / x.denominator).normalize()
    return f"{d:.{len(d.as_tuple().digits) - 1}e}"


# the print label of a level component: (on one circle, angle kind) -> name
_COMPONENT_LABELS = {
    (True, PiLinear): "IsolatedPoint",
    (True, Interval): "Arc",
    (True, type(None)): "FullCircle",
    (True, Orbit): "CircleLattice",
    (False, Interval): "Sector",
    (False, type(None)): "Annulus",
}


def component_text(c: Component) -> tuple[str, str]:
    """A level component's print label and its text, ``Label(field=value,
    ...)``: the log-modulus (or both ends of a radial range), then the
    angle set's fields; an isolated point shows its `LevelPoint`."""
    one_circle, a = c.lo_m is c.hi_m, c.angles
    label = _COMPONENT_LABELS[one_circle, type(a)]
    if label == "IsolatedPoint":
        return label, f"{label}(point={LevelPoint(c.lo_log, a)!r})"
    fields = [("log_mod", c.lo_log)] if one_circle else [("lo_log", c.lo_log), ("hi_log", c.hi_log)]
    if a is not None:
        fields += [(name, getattr(a, name)) for name in a._fields]
    return label, f"{label}({', '.join(f'{name}={value!r}' for name, value in fields)})"


def _schedule(family: PrimeFamily) -> str:
    return f"n_j = {_render_nseq(family.n_seq)} for every prime j >= 3 (family is infinite)"


def _persistence(w: WitnessThread) -> str:
    """Why the witness pattern continues: its source primitive's level sets."""
    src = w.source
    if isinstance(src, VLine):
        return f"vertical line re={src.re}: every level set is the full circle"
    if w.closed_from is None:
        return f"lattice at re={src.re}: dense angle orbit, every level set closes to the full circle"
    return (
        f"lattice at re={src.re}: level sets are antipode-closed for all "
        f"levels >= {w.closed_from}, so the negated branch stays feasible"
    )


def _antipodal_reason(sections: SectionFamilyReport) -> Optional[str]:
    """The tail of the first infinite section, which makes antipodes persist."""
    s = next((s for s in sections.sections if s.infinite), None)
    if s is None:
        return None
    if s.tail_all_from is not None:
        return f"section t={s.t}: the shift condition holds for every level >= {s.tail_all_from}"
    return f"section t={s.t}: antipodal levels {_schedule(s.unbounded_schedule)}"


def _closedness_gap(w: ClosednessWitness) -> str:
    if isinstance(w.primitive, PrimeFamily):
        return "prime family: image angles accumulate at the missing point with angle 0"
    return f"lattice at re={w.primitive.re}: dense angle orbit misses angle {w.angle.q0}"


def _notes(rep: ClassificationReport, closed: bool) -> list[str]:
    """The hypotheses and scope of the verdict, and why a run stayed open."""
    holds, params = rep.sections.holds, rep.params
    notes = [
        "classification concerns the dyadic semigroup induced by the zero "
        "extension; nonzero extensions are out of scope",
        "automatic-continuity hypotheses: image closedness "
        + ("holds" if closed else "fails")
        + ", section level union "
        + ("finite" if holds else "infinite")
        + (
            "; with the assumed trivial extension group both hypotheses of the "
            "automatic-continuity route are met"
            if closed and holds and params.ext_zero
            else ""
        ),
    ]
    truncations = [p.J for p in rep.spectrum.primitives if isinstance(p, PrimeFamily)]
    if truncations:
        notes.append(
            f"prime family truncated at J={max(truncations)} for level computations; the family "
            "itself is infinite and its antipodal schedule is certified symbolically"
        )
    if params.ext_zero:
        notes.append("Ext(X) = 0 assumed (user flag); not computed by this tool")
    else:
        notes.append(
            "ext_zero=false: the automatic-continuity conclusions need the zero "
            "extension; verdict applies to the trivial-extension semigroup only"
        )
    if rep.prefix is not None:
        notes.append(
            f"a depth-{params.search_depth} divergent prefix exists but no source "
            "primitive certifies that the pattern persists; not used for a verdict"
        )
    if rep.verdict is Verdict.INCONCLUSIVE:
        notes.append(
            "no certificate closed at the configured depths"
            if holds
            else "persistent antipodes found but pointwise convergence could not be certified"
        )
    return notes


def report_to_dict(rep: ClassificationReport) -> dict:
    # the image is closed at every level or at none
    closed = image_closedness(rep.spectrum, 0).closed
    d = {
        "verdict": rep.verdict.value,
        "ext_zero_assumed": rep.params.ext_zero,
        "witness": None,
        "uniform_bound": None,
        "antipodal": None,
        "pointwise": None,
        "sections": [],
        "closedness_by_level": [
            {"level": n, "closed": closed} for n in range(min(rep.params.n_max, 8) + 1)
        ],
        "notes": _notes(rep, closed),
        # numbers and booleans as they are, rationals as text
        "params": {
            k: [str(x) for x in v] if isinstance(v, tuple) else v if isinstance(v, int) else str(v)
            for _, k, v, _ in _param_settings(rep.params)
        },
    }
    if rep.witness:
        w = rep.witness
        d["witness"] = {
            "base_level": w.thread.base_level,
            "base_angle": render_pilinear(w.thread.base.angle),
            "base_log_mod": str(w.thread.base.log_mod),
            "bits": "".join(map(str, w.thread.bits)),
            "delta": str(w.delta),
            "depth": w.depth,
            "persistence": _persistence(w),
        }
    if rep.uniform_bound:
        u = rep.uniform_bound
        d["uniform_bound"] = {
            "constant": format_g(u.constant, rep.params.float_digits),
            "symbolic_constant": (
                format_g(u.symbolic_constant, rep.params.float_digits)
                if u.symbolic_constant is not None
                else None
            ),
            "n_range": list(u.n_range),
            "tolerance": str(u.tolerance),
            "u_table": [
                {"n": n, "hi": format_g(hi, rep.params.float_digits)}
                for n, _, hi in u.u_table
            ],
        }
    if rep.antipodal:
        a = rep.antipodal
        d["antipodal"] = {
            "levels": list(a.levels),
            "persistent": not rep.sections.holds,
            "reason": _antipodal_reason(rep.sections),
            "pair_samples": [
                f"n={n}: angle {x.angle}" if isinstance(x, LevelPoint) else f"n={n}: {component_text(x)[0]}"
                for n, x in a.samples
            ],
        }
    if rep.pointwise:
        last = rep.pointwise.last_branch_level
        d["pointwise"] = {
            "last_branch_level": last,
            "reason": (
                f"last materialized branching level {last}; every branching either "
                "keeps the thread principal inside a bounded component or commits it "
                "to a single prime-family chain (cross-chain angle differences keep a "
                "prime denominator), and each chain carries finitely many pair "
                "levels, so every thread branches finitely often and is eventually "
                "principal"
            ),
        }
    for s in rep.sections.sections:
        d["sections"].append(
            {
                "t": str(s.t),
                "levels": sorted(s.levels),
                "tail_extra": sorted(s.tail_extra),
                "tail_all_from": s.tail_all_from,
                "unbounded_schedule": (
                    None if s.unbounded_schedule is None else _schedule(s.unbounded_schedule)
                ),
            }
        )
    d["section_union"] = {
        "finite": rep.sections.holds,
        "levels": sorted(rep.sections.union_levels),
        "all_from": rep.sections.union_all_from,
        "witness_t": str(rep.sections.witness_t) if rep.sections.witness_t is not None else None,
    }
    return d


def render_report(rep: ClassificationReport) -> str:
    d = report_to_dict(rep)
    out = []
    out.append("classification report")
    out.append("=====================")
    out.append(f"verdict: {d['verdict']}")
    out.append("")
    if d["witness"]:
        w = d["witness"]
        out.append("witness thread (divergence):")
        out.append(
            f"  base level {w['base_level']}, angle {w['base_angle']}, "
            f"log-mod {w['base_log_mod']}, bits {w['bits'] or '(principal)'}"
        )
        out.append(f"  |1 - point| >= {w['delta']} at every level through {w['depth']}")
        out.append(f"  persists: {w['persistence']}")
        out.append("")
    if d["uniform_bound"]:
        u = d["uniform_bound"]
        out.append("uniform convergence bound:")
        out.append(
            f"  sup |1 - z| <= C / 2^n on n in {u['n_range']}, C = {u['constant']}"
        )
        if u["symbolic_constant"]:
            out.append(f"  symbolic bound for every n: C_sym = {u['symbolic_constant']}")
        out.append(f"  final sup below tolerance {u['tolerance']}")
        out.append("")
    if d["antipodal"]:
        a = d["antipodal"]
        lv = ",".join(map(str, a["levels"])) or "(none computed)"
        out.append(f"antipodal levels (eventual image): {lv}")
        out.append(f"  persistent: {'yes' if a['persistent'] else 'no'}")
        if a["reason"]:
            out.append(f"  reason: {a['reason']}")
        out.append("")
    if d["pointwise"]:
        out.append("pointwise convergence certificate:")
        out.append(f"  {d['pointwise']['reason']}")
        out.append("")
    out.append("sections:")
    for s in d["sections"]:
        tail = ""
        if s["tail_all_from"] is not None:
            tail = f", all n >= {s['tail_all_from']}"
        if s["unbounded_schedule"]:
            tail += f", schedule: {s['unbounded_schedule']}"
        if s["tail_extra"]:
            tail += f", beyond bound: {s['tail_extra']}"
        out.append(f"  t={s['t']}: levels {s['levels']}{tail}")
    su = d["section_union"]
    fin = "finite" if su["finite"] else "infinite"
    out.append(f"  union: {sorted(set(su['levels']))} ({fin})")
    closed_all = all(c["closed"] for c in d["closedness_by_level"])
    out.append(f"exponential images closed: {'yes' if closed_all else 'no'}")
    out.append("")
    out.append("notes:")
    for n in d["notes"]:
        out.append(f"  - {n}")
    out.append(
        "params: "
        + " ".join(f"{key}={render(v)}" for key, _, v, render in _param_settings(rep.params))
    )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands


def run(command: str, cfg: Config, csv_path: Optional[str] = None, as_json: bool = False) -> tuple[int, str]:
    """Dispatch a command; returns (exit_code, report_text)."""
    if command != "towers" and cfg.spectrum.is_empty():
        return 1, "error: config has no spectrum lines\n"
    if csv_path is None and cfg.emit_csv:
        csv_path = f"dyadicspec_{command}.csv"
    if command == "classify":
        cache = LevelCache(cfg.spectrum)
        rep = run_classify(cfg.spectrum, cfg.params, cache)
        text = (
            json.dumps(report_to_dict(rep), indent=2) + "\n"
            if as_json
            else render_report(rep)
        )
        if csv_path:
            _write_classify_csv(csv_path, rep, cfg, cache)
        code = 2 if rep.verdict is Verdict.INCONCLUSIVE else 0
        return code, text

    if command == "levels":
        cache = LevelCache(cfg.spectrum)
        out = []
        rows = []
        for n in range(cfg.params.n_max + 1):
            L = cache.level(n)
            out.append(f"level {n}:")
            texts = map(component_text, L.components)
            out.extend([f"  {label}: {text}" for label, text in texts] or ["  (empty)"])
            if csv_path:
                for re_, im_ in sample_points(L):
                    rows.append((n, re_, im_))
        if csv_path:
            _write_csv(csv_path, ["level", "re", "im"], rows, cfg.params.float_digits)
        return 0, "\n".join(out) + "\n"

    if command == "antipodes":
        cache = LevelCache(cfg.spectrum)
        out = []
        for n in range(cfg.params.n_max + 1):
            A = cache.antipodes(n)
            if A.is_empty():
                out.append(f"level {n}: empty")
            else:
                pts = enumerate_points(A, 8)
                desc = (
                    ", ".join(render_pilinear(p.angle) for p in pts)
                    if pts
                    else component_text(A.components[0])[0]
                )
                out.append(f"level {n}: {desc}")
        return 0, "\n".join(out) + "\n"

    if command == "mt":
        rep = antipode_level_union(cfg.spectrum, cfg.params.n_max)
        out = []
        for s in rep.sections:
            tail = []
            if s.tail_all_from is not None:
                tail.append(f"all n >= {s.tail_all_from}")
            if s.tail_extra:
                tail.append(f"beyond bound: {sorted(s.tail_extra)}")
            if s.unbounded_schedule is not None:
                tail.append(_schedule(s.unbounded_schedule))
            suffix = f" ({'; '.join(tail)})" if tail else ""
            out.append(f"t={s.t}: {sorted(s.levels)}{suffix}")
        fin = "finite" if rep.holds else "infinite"
        out.append(f"union over sections: {sorted(rep.union_levels)} -- {fin}")
        closed = image_closedness(cfg.spectrum, 0)
        out.append(f"exponential images closed: {'yes' if closed.closed else 'no'}")
        for w in closed.witnesses:
            out.append(
                f"  not closed: {_closedness_gap(w)} (limit point at log-mod "
                f"{w.log_mod}, angle {render_pilinear(w.angle)})"
            )
        return 0, "\n".join(out) + "\n"

    if command == "simulate":
        from .simulate import (
            DyadicTime,
            continuity_trace,
            default_model,
            joint_spectrum_residual,
            norm_bound_check,
            quasi_uniform_cover,
        )

        cache = LevelCache(cfg.spectrum)
        model = default_model(cache, cfg.params.search_depth)
        out = [f"diagonal model: {len(model.threads)} threads, level cap {model.level_cap}"]
        bad = []
        for n in range(0, 31):  # the level cap is at least 30
            nb = norm_bound_check(model, n)
            if not nb.ok:
                bad.append(n)
        out.append(
            "norm bound |q(1/2^n)| <= exp(zeta/2^n): "
            + ("holds at all levels checked" if not bad else f"FAILS at {bad}")
        )
        for eps in cfg.params.epsilons:
            cov = quasi_uniform_cover(
                cfg.spectrum,
                eps,
                search_bound=cfg.params.search_depth,
                cache=cache,
                node_budget=cfg.params.node_budget,
            )
            if cov.status == "found":
                out.append(f"quasi-uniform cover at eps={eps}: indices {list(cov.indices)}")
            elif cov.status == "absent":
                out.append(
                    f"quasi-uniform cover at eps={eps}: none exists (blocking thread found)"
                )
            else:
                out.append(f"quasi-uniform cover at eps={eps}: not found (inconclusive)")
        if cfg.lambdas:
            rep = joint_spectrum_residual(cfg.spectrum, cfg.lambdas, 10000)
            out.append(
                f"joint-spectrum residual for lambda={list(map(_fmt_complex, cfg.lambdas))}: "
                f"{rep.residual:.6g} (raw {rep.raw:.6g}, {rep.sample_count} samples)"
            )
            out.append(
                "square-chain consistency: "
                + ("ok" if rep.consistent else f"violated at steps {[i for i, c in enumerate(rep.consistency) if not c]}")
            )
        if csv_path:
            times = [DyadicTime.from_fraction(Fraction(1, 2**m)) for m in range(1, 16)]
            rows = continuity_trace(model, times)
            _write_csv(csv_path, ["t", "block", "dist_to_one"], rows, cfg.params.float_digits)
        return 0, "\n".join(out) + "\n"

    if command == "towers":
        if cfg.tower is None:
            return 1, "error: no tower line in config\n"
        from .towers import inverse_limit, lim1_vanishes, middle_group_bounds

        lim = inverse_limit(cfg.tower)
        ml = lim1_vanishes(cfg.tower)
        mid = middle_group_bounds(ml, lim.rank)
        out = [
            f"inverse limit: {lim.description}",
            f"Mittag-Leffler / lim^1 = 0: {'yes' if ml else 'no'}",
            f"middle group: {mid.text}",
        ]
        return 0, "\n".join(out) + "\n"

    return 1, f"error: unknown command {command!r}\n"


def _write_csv(path: str, header: list[str], rows, digits: int):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [format_g(v, digits) if isinstance(v, (float, Fraction)) else v
                 for v in row]
            )


def _write_classify_csv(path: str, rep: ClassificationReport, cfg: Config, cache: LevelCache):
    """The witness's distance table, else the uniform bound's sup table
    (empty without a bound); the witness is re-walked through `cache`, the
    level sets classify built."""
    digits = cfg.params.float_digits
    if rep.witness:
        rate = convergence_rate(cache, rep.witness.thread, rep.witness.depth)
        rows = [
            (r.level, r.dist_lo, r.dist_hi, render_pilinear(r.angle), str(r.log_mod)) for r in rate.rows
        ]
        _write_csv(path, ["n", "dist_lo", "dist_hi", "angle", "log_mod"], rows, digits)
    else:
        rows = rep.uniform_bound.u_table if rep.uniform_bound else ()
        _write_csv(path, ["n", "sup_lo", "sup_hi"], rows, digits)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    ap = argparse.ArgumentParser(
        prog="dyadicspec",
        description="Continuity classifier for dyadic semigroups built from "
        "planar spectrum sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("classify", "levels", "antipodes", "mt", "simulate", "towers"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default="-", help="config file path (default stdin)")
        sp.add_argument("--json", action="store_true", help="structured report")
        sp.add_argument("--csv", default=None, help="write CSV data to this file")
    spe = sub.add_parser("examples", help="run a built-in example")
    spe.add_argument("name", help="roots2k | solenoid | rectangle | primefamily")
    spe.add_argument("--run", default="classify", help="command to run (default classify)")
    spe.add_argument("--json", action="store_true")
    spe.add_argument("--csv", default=None)
    spe.add_argument("--show-config", action="store_true", help="print the config and exit")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "examples":
            cfg = builtin_example(args.name)
            if args.show_config:
                sys.stdout.write(render_config(cfg))
                return 0
            code, text = run(args.run, cfg, args.csv, args.json)
        else:
            if args.config == "-":
                text_in = sys.stdin.read()
            else:
                with open(args.config) as fh:
                    text_in = fh.read()
            cfg = parse_config(text_in)
            code, text = run(args.command, cfg, args.csv, args.json)
    except ComputationLimit as e:
        sys.stderr.write(f"inconclusive: computation limit reached: {e}\n")
        return 2
    except (ConfigError, SpectrumError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except ConsistencyError as e:
        sys.stderr.write(f"error: internal: {e}\n")
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
