"""Command-line interface: config parsing, dispatch, reports, CSV.

Config files are line-based, one `key value` per line, `#` comments.
Keys: spectrum (repeatable), n_max, K (inert: validated and printed only),
search_depth, node_budget, epsilon, delta, float_digits, ext_zero,
emit_csv, tower, lambda.
Spectrum lines use the primitive grammar, e.g.

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
import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .classify import ClassificationReport, ClassifyParams, Verdict
from .classify import classify as run_classify
from .exactnum import PiLinear, PrecisionError
from .exactnum import parse as parse_pilinear, render as render_pilinear
from .levels import (
    ComputationLimit,
    LevelCache,
    antipodal_set,
    enumerate_points,
    sample_points,
)
from .simulate import (
    DiagonalModel,
    DyadicTime,
    continuity_trace,
    joint_spectrum_residual,
    norm_bound_check,
    quasi_uniform_cover,
)
from .spectrum import (
    ConsistencyError,
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SpectrumError,
    SpectrumSet,
    VLine,
    VSegment,
    antipode_level_union,
    image_closedness,
    real_part_range,
)
from .threads import Thread, feasible_branches
from .towers import (
    ConstantMaps,
    PeriodicMaps,
    Tower,
    ZeroTower,
    inverse_limit,
    lim1_vanishes,
    middle_group_bounds,
)


class ConfigError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}")


@dataclass(frozen=True)
class Config:
    spectrum: SpectrumSet
    params: ClassifyParams
    emit_csv: bool = False
    tower: Optional[Tower] = None
    lambdas: Optional[tuple[complex, ...]] = None


_KNOWN_KEYS = {
    "spectrum",
    "n_max",
    "K",
    "search_depth",
    "node_budget",
    "epsilon",
    "delta",
    "float_digits",
    "ext_zero",
    "emit_csv",
    "tower",
    "lambda",
}

_KV_RE = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")


def _parse_rat(text: str, line: int, col: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(line, col, f"bad rational {text!r}")


def _parse_pl(text: str, line: int, col: int) -> PiLinear:
    try:
        return parse_pilinear(text)
    except ValueError as e:
        raise ConfigError(line, col, str(e))


def _parse_pair(text: str, line: int, col: int) -> tuple[str, str]:
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(line, col, f"expected [a,b], got {text!r}")
    inner = text[1:-1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ConfigError(line, col, f"expected two comma-separated values in {text!r}")
    return parts[0].strip(), parts[1].strip()


def _parse_primitive(rest: str, line: int):
    fields = rest.split(None, 1)
    kind = fields[0]
    tail = fields[1] if len(fields) > 1 else ""
    kvs: dict[str, tuple[str, int]] = {}
    consumed = ""
    for m in _KV_RE.finditer(tail):
        kvs[m.group(1)] = (m.group(2), m.start() + 1)
        consumed += m.group(0) + " "
    leftover = tail
    for m in _KV_RE.finditer(tail):
        leftover = leftover.replace(m.group(0), "", 1)
    if leftover.strip():
        raise ConfigError(line, rest.find(leftover.strip()) + 1, f"unparsed text {leftover.strip()!r}")

    def need(*names):
        for nm in names:
            if nm not in kvs:
                raise ConfigError(line, 1, f"{kind} needs {nm}=")
        extra = set(kvs) - set(names)
        if extra:
            raise ConfigError(line, 1, f"{kind} got unknown fields {sorted(extra)}")

    try:
        if kind == "point":
            need("re", "im")
            return Point(
                _parse_rat(kvs["re"][0], line, kvs["re"][1]),
                _parse_pl(kvs["im"][0], line, kvs["im"][1]),
            )
        if kind == "vsegment":
            need("re", "im")
            lo, hi = _parse_pair(kvs["im"][0], line, kvs["im"][1])
            return VSegment(
                _parse_rat(kvs["re"][0], line, kvs["re"][1]),
                _parse_pl(lo, line, kvs["im"][1]),
                _parse_pl(hi, line, kvs["im"][1]),
            )
        if kind == "ilattice":
            need("re", "base", "step")
            return ILattice(
                _parse_rat(kvs["re"][0], line, kvs["re"][1]),
                _parse_pl(kvs["base"][0], line, kvs["base"][1]),
                _parse_pl(kvs["step"][0], line, kvs["step"][1]),
            )
        if kind == "vline":
            need("re")
            return VLine(_parse_rat(kvs["re"][0], line, kvs["re"][1]))
        if kind == "rect":
            need("re", "im")
            rlo, rhi = _parse_pair(kvs["re"][0], line, kvs["re"][1])
            ilo, ihi = _parse_pair(kvs["im"][0], line, kvs["im"][1])
            return Rect(
                _parse_rat(rlo, line, kvs["re"][1]),
                _parse_rat(rhi, line, kvs["re"][1]),
                _parse_pl(ilo, line, kvs["im"][1]),
                _parse_pl(ihi, line, kvs["im"][1]),
            )
        if kind == "primefamily":
            need("nseq", "J")
            try:
                J = int(kvs["J"][0])
            except ValueError:
                raise ConfigError(line, kvs["J"][1], f"bad integer {kvs['J'][0]!r}")
            return PrimeFamily(kvs["nseq"][0], J)
    except SpectrumError as e:
        raise ConfigError(line, 1, str(e))
    raise ConfigError(line, 1, f"unknown primitive {kind!r}")


def _parse_tower(rest: str, line: int) -> Tower:
    fields = rest.split(None, 1)
    kind = fields[0]
    tail = fields[1].strip() if len(fields) > 1 else ""
    try:
        if kind == "zero":
            return Tower(0, ZeroTower())
        if kind == "constant":
            entries = tuple(int(x) for x in tail.split(","))
            return Tower(len(entries), ConstantMaps(entries))
        if kind == "periodic":
            cycle = tuple(
                tuple(int(x) for x in step.split(",")) for step in tail.split("|")
            )
            return Tower(len(cycle[0]), PeriodicMaps(cycle))
    except ValueError:
        raise ConfigError(line, 1, f"bad tower entries {tail!r}")
    raise ConfigError(line, 1, f"unknown tower kind {kind!r} (constant|periodic|zero)")


def parse_config(text: str) -> Config:
    primitives = []
    overrides: dict = {}
    emit_csv = False
    tower: Optional[Tower] = None
    lambdas: Optional[tuple[complex, ...]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split(None, 1)
        key = fields[0]
        rest = fields[1].strip() if len(fields) > 1 else ""
        if key not in _KNOWN_KEYS:
            raise ConfigError(lineno, 1, f"unknown key {key!r}")
        if not rest:
            raise ConfigError(lineno, len(key) + 1, f"{key} needs a value")
        if key == "spectrum":
            primitives.append(_parse_primitive(rest, lineno))
        elif key in {"n_max", "K", "search_depth", "node_budget", "float_digits"}:
            try:
                val = int(rest)
            except ValueError:
                raise ConfigError(lineno, len(key) + 2, f"bad integer {rest!r}")
            if val < 1:
                raise ConfigError(lineno, len(key) + 2, f"{key} must be >= 1")
            overrides[key] = val
        elif key == "epsilon":
            eps = tuple(_parse_rat(x.strip(), lineno, 1) for x in rest.split(","))
            if any(e <= 0 for e in eps):
                raise ConfigError(lineno, 1, "epsilons must be positive")
            overrides["epsilons"] = eps
        elif key == "delta":
            d = _parse_rat(rest, lineno, len(key) + 2)
            if d <= 0:
                raise ConfigError(lineno, 1, "delta must be positive")
            overrides["delta"] = d
        elif key == "ext_zero":
            overrides["ext_zero"] = _parse_bool(rest, lineno)
        elif key == "emit_csv":
            emit_csv = _parse_bool(rest, lineno)
        elif key == "tower":
            tower = _parse_tower(rest, lineno)
        elif key == "lambda":
            try:
                lambdas = tuple(complex(x.strip()) for x in rest.split(","))
            except ValueError:
                raise ConfigError(lineno, 1, f"bad complex list {rest!r}")
    params = ClassifyParams(**overrides)
    return Config(
        spectrum=SpectrumSet(tuple(primitives)),
        params=params,
        emit_csv=emit_csv,
        tower=tower,
        lambdas=lambdas,
    )


def _parse_bool(text: str, line: int) -> bool:
    if text in {"true", "yes", "1"}:
        return True
    if text in {"false", "no", "0"}:
        return False
    raise ConfigError(line, 1, f"bad boolean {text!r}")


def _pl(x: PiLinear) -> str:
    return render_pilinear(x).replace(" ", "")


def render_config(cfg: Config) -> str:
    """Canonical text form; parses back to an identical Config."""
    lines = []
    for p in cfg.spectrum.primitives:
        if isinstance(p, Point):
            lines.append(f"spectrum point re={p.re} im={_pl(p.im)}")
        elif isinstance(p, VSegment):
            lines.append(f"spectrum vsegment re={p.re} im=[{_pl(p.im_lo)},{_pl(p.im_hi)}]")
        elif isinstance(p, ILattice):
            lines.append(f"spectrum ilattice re={p.re} base={_pl(p.base)} step={_pl(p.step)}")
        elif isinstance(p, VLine):
            lines.append(f"spectrum vline re={p.re}")
        elif isinstance(p, Rect):
            lines.append(
                f"spectrum rect re=[{p.re_lo},{p.re_hi}] im=[{_pl(p.im_lo)},{_pl(p.im_hi)}]"
            )
        elif isinstance(p, PrimeFamily):
            lines.append(f"spectrum primefamily nseq={p.n_seq} J={p.J}")
    pr = cfg.params
    lines.append(f"n_max {pr.n_max}")
    lines.append(f"K {pr.K}")
    lines.append(f"search_depth {pr.search_depth}")
    lines.append(f"node_budget {pr.node_budget}")
    lines.append("epsilon " + ",".join(str(e) for e in pr.epsilons))
    lines.append(f"delta {pr.delta}")
    lines.append(f"float_digits {pr.float_digits}")
    lines.append(f"ext_zero {'true' if pr.ext_zero else 'false'}")
    lines.append(f"emit_csv {'true' if cfg.emit_csv else 'false'}")
    if cfg.tower is not None:
        m = cfg.tower.maps
        if isinstance(m, ZeroTower):
            lines.append("tower zero")
        elif isinstance(m, ConstantMaps):
            lines.append("tower constant " + ",".join(map(str, m.entries)))
        else:
            lines.append(
                "tower periodic " + "|".join(",".join(map(str, s)) for s in m.cycle)
            )
    if cfg.lambdas is not None:
        lines.append("lambda " + ",".join(_fmt_complex(c) for c in cfg.lambdas))
    return "\n".join(lines) + "\n"


def _fmt_complex(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real) if c.real != int(c.real) else str(int(c.real))
    return str(c).strip("()")


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


def report_to_dict(rep: ClassificationReport) -> dict:
    d = {
        "verdict": rep.verdict.value,
        "ext_zero_assumed": rep.ext_zero_assumed,
        "witness": None,
        "uniform_bound": None,
        "antipodal": None,
        "pointwise": None,
        "sections": [],
        "closedness_by_level": [
            {"level": n, "closed": c} for n, c in rep.closedness_by_level
        ],
        "notes": list(rep.notes),
        "params": {
            "n_max": rep.params.n_max,
            "K": rep.params.K,
            "search_depth": rep.params.search_depth,
            "node_budget": rep.params.node_budget,
            "delta": str(rep.params.delta),
            "epsilons": [str(e) for e in rep.params.epsilons],
            "float_digits": rep.params.float_digits,
            "ext_zero": rep.params.ext_zero,
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
            "persistence": w.persistence,
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
            "persistent": a.persistent,
            "reason": a.reason,
            "pair_samples": list(a.pair_samples),
        }
    if rep.pointwise:
        d["pointwise"] = {
            "last_branch_level": rep.pointwise.last_branch_level,
            "reason": rep.pointwise.reason,
        }
    for s in rep.sections.sections:
        d["sections"].append(
            {
                "t": str(s.t),
                "levels": sorted(s.levels),
                "tail_extra": sorted(s.tail_extra),
                "tail_all_from": s.tail_all_from,
                "unbounded_schedule": s.unbounded_schedule,
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
    p = d["params"]
    out.append(
        "params: n_max=%s K=%s search_depth=%s node_budget=%s delta=%s "
        "epsilon=%s float_digits=%s ext_zero=%s"
        % (
            p["n_max"],
            p["K"],
            p["search_depth"],
            p["node_budget"],
            p["delta"],
            ",".join(p["epsilons"]),
            p["float_digits"],
            str(p["ext_zero"]).lower(),
        )
    )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands


def _describe_levelset(L) -> list[str]:
    out = []
    for c in L.components:
        out.append(f"  {type(c).__name__}: {c}")
    if not L.components:
        out.append("  (empty)")
    return out


def _default_model(cfg: Config, cache: LevelCache) -> DiagonalModel:
    """A small deterministic model: a few feasible threads grown greedily."""
    from .levels import component_sup_candidates

    seeds = []
    for c in cache.level(0).components:
        seeds.extend(component_sup_candidates(c))
    seeds = list(dict.fromkeys(seeds))[:3]
    cap = max(cfg.params.search_depth, 30)
    threads = []
    for seed in seeds:
        bits = []
        p = seed
        ok = True
        for level in range(0, cap):
            branches = feasible_branches(cache, level, p)
            if not branches:
                ok = False
                break
            bit, p = branches[0]
            bits.append(bit)
        if ok:
            threads.append(Thread(0, seed, tuple(bits)))
    if not threads:
        raise SpectrumError("no feasible threads found for the model")
    return DiagonalModel(cfg.spectrum, tuple(threads), block_dim=2, level_cap=cap)


def run(command: str, cfg: Config, csv_path: Optional[str] = None, as_json: bool = False) -> tuple[int, str]:
    """Dispatch a command; returns (exit_code, report_text)."""
    if command != "towers" and cfg.spectrum.is_empty():
        return 1, "error: config has no spectrum lines\n"
    if csv_path is None and cfg.emit_csv:
        csv_path = f"dyadicspec_{command}.csv"
    if command == "classify":
        rep = run_classify(cfg.spectrum, cfg.params)
        text = (
            json.dumps(report_to_dict(rep), indent=2) + "\n"
            if as_json
            else render_report(rep)
        )
        if csv_path:
            _write_classify_csv(csv_path, rep, cfg)
        code = 2 if rep.verdict is Verdict.INCONCLUSIVE else 0
        return code, text

    if command == "levels":
        cache = LevelCache(cfg.spectrum)
        out = []
        rows = []
        for n in range(cfg.params.n_max + 1):
            L = cache.level(n)
            out.append(f"level {n}:")
            out.extend(_describe_levelset(L))
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
            A = antipodal_set(cache.level(n))
            if A.is_empty():
                out.append(f"level {n}: empty")
            else:
                pts = enumerate_points(A, 8)
                desc = (
                    ", ".join(render_pilinear(p.angle) for p in pts)
                    if pts
                    else type(A.components[0]).__name__
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
            if s.unbounded_schedule:
                tail.append(s.unbounded_schedule)
            suffix = f" ({'; '.join(tail)})" if tail else ""
            out.append(f"t={s.t}: {sorted(s.levels)}{suffix}")
        fin = "finite" if rep.holds else "infinite"
        out.append(f"union over sections: {sorted(rep.union_levels)} -- {fin}")
        closed = image_closedness(cfg.spectrum, 0)
        out.append(f"exponential images closed: {'yes' if closed.closed else 'no'}")
        for w in closed.witnesses:
            out.append(
                f"  not closed: {w.description} (limit point at log-mod "
                f"{w.log_mod}, angle {render_pilinear(w.angle)})"
            )
        return 0, "\n".join(out) + "\n"

    if command == "simulate":
        cache = LevelCache(cfg.spectrum)
        model = _default_model(cfg, cache)
        out = [f"diagonal model: {len(model.threads)} threads, level cap {model.level_cap}"]
        bad = []
        for n in range(0, min(model.level_cap, 30) + 1):
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
                lambda n: n,
                lambda n: 1,
                eps,
                n0=1,
                search_bound=cfg.params.search_depth,
                cache=cache,
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


def _write_classify_csv(path: str, rep: ClassificationReport, cfg: Config):
    rows = []
    if rep.uniform_bound:
        for n, lo, hi in rep.uniform_bound.u_table:
            rows.append((n, lo, hi))
        _write_csv(path, ["n", "sup_lo", "sup_hi"], rows, cfg.params.float_digits)
    elif rep.witness:
        from .realbounds import abs1m_sq_bounds, interval_sqrt
        from .threads import evaluate, step_point

        cache = LevelCache(cfg.spectrum)

        th = rep.witness.thread
        p = evaluate(cache, th, th.base_level)
        for n in range(th.base_level, rep.witness.depth + 1):
            if n > th.base_level:
                p = step_point(p, th.bit_at(n))
            sq = abs1m_sq_bounds(p.log_mod, p.angle, 30)
            lo, hi = interval_sqrt(sq, 30)
            rows.append((n, lo, hi, render_pilinear(p.angle), str(p.log_mod)))
        _write_csv(
            path, ["n", "dist_lo", "dist_hi", "angle", "log_mod"], rows, cfg.params.float_digits
        )
    else:
        _write_csv(path, ["n", "sup_lo", "sup_hi"], rows, cfg.params.float_digits)


def main(argv: Optional[list[str]] = None) -> int:
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
    args = ap.parse_args(argv)

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
    except (PrecisionError, ConsistencyError) as e:
        sys.stderr.write(f"error: internal: {e}\n")
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
