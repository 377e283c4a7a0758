import cmath
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction as F

import pytest

from dyadicspec.exactnum import PiLinear, compare, reduce_mod_2pi
from dyadicspec.levels import LevelCache, LevelPoint
from dyadicspec.simulate import (
    DiagonalModel,
    DyadicRangeError,
    DyadicTime,
    TestVector,
    apply_semigroup,
    continuity_trace,
    decompose,
    joint_spectrum_residual,
    model_from_threads,
    multipliers,
    norm_bound_check,
    quasi_uniform_cover,
    _linspace,
    _sample_spectrum,
)
from dyadicspec.spectrum import (
    ConsistencyError,
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SpectrumSet,
    VLine,
    VSegment,
    real_part_range,
)
from dyadicspec.threads import Thread, evaluate, verify_witness

from conftest import random_spectrum


def model_for(Z, caches={}):
    thr1 = Thread(0, LevelPoint(F(0), PiLinear(0, 0)))
    thr2 = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,))
    return model_from_threads(LevelCache(Z), (thr1, thr2), level_cap=34)


def test_dyadic_time_validation():
    assert DyadicTime.from_fraction(F(3, 8)) == DyadicTime(3, 3)
    assert DyadicTime.from_fraction(6) == DyadicTime(6, 0)
    with pytest.raises(ValueError):
        DyadicTime.from_fraction(F(1, 3))
    with pytest.raises(ValueError):
        DyadicTime.from_fraction(0)
    with pytest.raises(ValueError):
        DyadicTime(4, 1)


def test_decompose_examples():
    d = decompose(DyadicTime.from_fraction(F(3, 8)))
    assert (d.first, d.last, d.odd_part) == (2, 3, 3)
    assert d.exponents == (2, 3)
    d = decompose(DyadicTime.from_fraction(F(1, 2)))
    assert (d.first, d.last, d.odd_part) == (1, 1, 1)
    d = decompose(DyadicTime.from_fraction(F(1, 32) + F(1, 512)))
    assert (d.first, d.last, d.odd_part) == (5, 9, 17)
    with pytest.raises(DyadicRangeError):
        decompose(DyadicTime.from_fraction(9), cap=F(8))


def test_decompose_random_identities():
    rng = random.Random(3)
    for _ in range(400):
        m = rng.randrange(0, 12)
        k = rng.randrange(1, 8 * 2**m)
        t = DyadicTime.from_fraction(F(k, 2**m))
        d = decompose(t, cap=F(8))
        assert d.odd_part % 2 == 1
        assert t.value == F(d.odd_part) * F(2) ** (-d.last)
        assert d.first <= d.last
        assert list(d.exponents) == sorted(set(d.exponents))


def test_decompose_checks_its_bits_add_up():
    class Skewed(DyadicTime):
        # a value that disagrees with the stored k / 2^m
        @property
        def value(self):
            return F(self.k + 2, 2**self.m)

    with pytest.raises(ConsistencyError):
        decompose(Skewed(3, 3))


def test_semigroup_law_exact(roots2k):
    model = model_for(roots2k)
    rng = random.Random(17)
    done = 0
    while done < 80:
        s = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
        t = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
        if s + t >= 2**30:
            continue
        done += 1
        a = multipliers(model, DyadicTime.from_fraction(s))
        b = multipliers(model, DyadicTime.from_fraction(t))
        c = multipliers(model, DyadicTime.from_fraction(s + t))
        for (lma, anga), (lmb, angb), (lmc, angc) in zip(a, b, c):
            assert lma + lmb == lmc
            assert compare(reduce_mod_2pi(anga + angb), angc) == 0


def test_apply_identity_and_scaling(roots2k):
    model = model_for(roots2k)
    v = TestVector.from_rows([[1, 0], [0, 1]])
    # thread 1 is constantly at the fixed point: its block never moves
    w = apply_semigroup(model, DyadicTime.from_fraction(F(1, 2)), v)

    def close(a, b, atol=1e-8):  # np.allclose's default tolerances
        return all(
            cmath.isclose(x, y, rel_tol=1e-5, abs_tol=atol) for x, y in zip(a, b, strict=True)
        )

    assert close(w.blocks[0], v.blocks[0])
    assert close(w.blocks[1], tuple(-x for x in v.blocks[1]), atol=1e-12)
    assert v.weights == (1.0, 1.0)


def test_norm_bound_examples(roots2k, solenoid, rectangle):
    for Z in (roots2k, solenoid):
        model = model_for(Z)
        for n in (0, 3, 17, 30):
            nb = norm_bound_check(model, n)
            assert nb.ok and nb.max_log_mod == 0
    corner = Thread(0, LevelPoint(F(-1), PiLinear(0, 1)))
    model = model_from_threads(LevelCache(rectangle), (corner,), level_cap=34)
    for n in (0, 5, 30):
        nb = norm_bound_check(model, n)
        assert nb.ok and nb.max_log_mod <= 0


def test_quasi_uniform_cover_found_rectangle(rectangle):
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        cov = quasi_uniform_cover(rectangle, eps, 1, 50)
        assert cov.status == "found"
        assert len(cov.indices) <= 3
        assert cov.sup_sq[1] < eps**2


def test_quasi_uniform_cover_absent(solenoid, roots2k):
    for Z in (solenoid, roots2k):
        cov = quasi_uniform_cover(Z, F(1, 2), 1, 50)
        assert cov.status == "absent"
        assert cov.absent_witness is not None


def test_blocking_search_stops_at_the_certified_tail():
    # on the circle at eps 1 the bit-1 tail keeps |1 - z|^2 >= 1 at every
    # level (threads.tail_closes), so a search to index 5000 takes a few pops
    line = SpectrumSet((VLine(F(0)),))
    cov = quasi_uniform_cover(line, F(1), 1, 5000, node_budget=50)
    assert cov.status == "absent"
    th = cov.absent_witness
    assert len(th.bits) == 5000 - th.base_level and th.bits[-1] == 1
    assert verify_witness(LevelCache(line), th, 5000, F(1))


def test_covers_on_a_shared_cache_match_fresh_caches(roots2k, solenoid, rectangle, primefamily):
    # the run's covers, one per eps in order on one cache, as the CLI calls them
    from dyadicspec.classify import ClassifyParams

    rng = random.Random(2002)
    cases = [(Z, 30, 50000) for Z in (roots2k, solenoid, rectangle, primefamily)]
    cases += [(random_spectrum(rng), 8, 2000) for _ in range(20)]
    for Z, bound, budget in cases:
        shared = LevelCache(Z)
        for eps in ClassifyParams().epsilons:
            args = (Z, eps, 1, bound)
            got = quasi_uniform_cover(*args, cache=shared, node_budget=budget)
            assert got == quasi_uniform_cover(*args, node_budget=budget), (Z, eps)


def test_quasi_uniform_cover_needs_a_candidate_index(solenoid):
    with pytest.raises(ValueError, match=r"n0 \(3\) exceeds search_bound \(2\)"):
        quasi_uniform_cover(solenoid, F(1, 10), n0=3, search_bound=2)
    cov = quasi_uniform_cover(solenoid, F(1, 10), n0=2, search_bound=2)
    assert cov.status == "absent"


def test_residual_rectangle(rectangle):
    rep = joint_spectrum_residual(rectangle, [1.0, 1.0, 1.0], 10000)
    assert rep.residual < 1e-6
    assert rep.consistent

    rep = joint_spectrum_residual(rectangle, [5.0], 10000)
    assert rep.residual >= 1

    rep = joint_spectrum_residual(rectangle, [1.0, -1.0], 10000)
    assert rep.consistent  # (-1)^2 == 1 numerically
    assert rep.residual > 0.3  # -1 is far from the level-1 image

    rep = joint_spectrum_residual(rectangle, [1.0, 0.5], 2000)
    assert not rep.consistent and rep.consistency == (False,)


def test_residual_argmin_near_zero(rectangle):
    rep = joint_spectrum_residual(rectangle, [1.0, 1.0], 10000)
    assert abs(rep.argmin) < 1e-9


def test_continuity_trace_shapes(roots2k):
    model = model_for(roots2k)
    times = [DyadicTime.from_fraction(F(1, 2**m)) for m in (1, 2, 3)]
    rows = continuity_trace(model, times)
    assert len(rows) == 6
    # principal-fixed-point block never leaves 1
    assert all(val == 0 for t, k, val in rows if k == 0)


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import dyadicspec.cli
added = {m.partition(".")[0] for m in set(sys.modules) - before}
print("numpy" in sys.modules, sorted(added - set(sys.stdlib_module_names) - {"dyadicspec"}))
"""


def test_cli_import_loads_no_numpy():
    import dyadicspec

    src = os.path.dirname(os.path.dirname(dyadicspec.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    # neither numpy nor any other third-party module
    assert proc.stdout.split() == ["False", "[]"]


# -S: no site hooks, so only the package can load what is checked
_LAZY_PROBE = """
import sys
import dyadicspec.cli
print([m for m in ("dataclasses", "inspect", "dyadicspec.simulate", "dyadicspec.towers") if m in sys.modules])
from dyadicspec import DiagonalModel, Tower
print(DiagonalModel.__module__, Tower.__module__)
"""


def test_cli_import_defers_simulate_and_towers():
    import dyadicspec

    src = os.path.dirname(os.path.dirname(dyadicspec.__file__))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src}

    def python(*args, stdin=None):
        proc = subprocess.run(
            [sys.executable, "-S", *args], input=stdin, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert python("-c", _LAZY_PROBE).splitlines() == [
        "[]",
        "dyadicspec.simulate dyadicspec.towers",
    ]
    # the commands that need them load them
    out = python("-m", "dyadicspec.cli", "examples", "roots2k", "--run", "simulate")
    assert out.startswith("diagonal model: 1 threads")
    out = python(
        "-m", "dyadicspec.cli", "towers", "--config", "-",
        stdin="spectrum vline re=0\ntower periodic 2,1|1,1\n",
    )
    assert out.splitlines() == [
        "inverse limit: lim = Z^1",
        "Mittag-Leffler / lim^1 = 0: no",
        "middle group: undetermined: lim^1 does not vanish",
    ]


# The numpy bodies the stdlib port replaced, kept as oracles.
def _np_sample_spectrum(np, Z, density, window):
    per = max(16, density // max(1, len(Z.primitives)))
    chunks = []
    for p in Z.primitives:
        if isinstance(p, Point):
            chunks.append(np.array([complex(p.re, float(p.im))]))
        elif isinstance(p, VSegment):
            u = np.linspace(float(p.im_lo), float(p.im_hi), per)
            chunks.append(float(p.re) + 1j * u)
        elif isinstance(p, ILattice):
            span = int(math.ceil(window / float(p.step))) + 1
            kk = min(per // 2, max(span, 2))
            ks = np.arange(-kk, kk + 1)
            chunks.append(float(p.re) + 1j * (float(p.base) + ks * float(p.step)))
        elif isinstance(p, VLine):
            u = np.linspace(-window, window, per)
            chunks.append(float(p.re) + 1j * u)
        elif isinstance(p, Rect):
            side = max(3, math.isqrt(per))
            if side % 2 == 0:
                side += 1
            s = np.linspace(float(p.re_lo), float(p.re_hi), side)
            u = np.linspace(float(p.im_lo), float(p.im_hi), side)
            chunks.append((s[:, None] + 1j * u[None, :]).ravel())
        elif isinstance(p, PrimeFamily):
            vals = []
            for j in p.primes():
                vals.append(complex(0, float(p.alpha(j))))
                vals.append(complex(0, float(p.beta(j))))
            chunks.append(np.array(vals))
    return np.concatenate(chunks)


def _np_residual(np, Z, lambdas, sample_density):
    N = len(lambdas) - 1
    _, zeta = real_part_range(Z)
    window = (2.0 ** (N + 1)) * math.pi
    z = _np_sample_spectrum(np, Z, sample_density, window)
    total = np.zeros(z.shape, dtype=float)
    raw = np.zeros(z.shape, dtype=float)
    for n, lam in enumerate(lambdas):
        w = np.exp(z / 2.0**n)
        phi = np.abs(lam - w) ** 2
        b = (1.0 + math.exp(float(zeta) / 2.0**n)) ** 2
        total += phi / b / 2.0**n
        raw += phi / 2.0**n
    idx = int(np.argmin(total))
    return z, float(total[idx]), float(raw.min()), complex(z[idx])


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


_RECTANGLE_CASES = [
    ([1.0, 1.0, 1.0], 10000),
    ([5.0], 10000),
    ([1.0, -1.0], 10000),
    ([1.0, 0.5], 2000),
    ([1.0, 1.0], 10000),
    ([float("nan"), 1.0], 2000),  # a NaN total is the minimum, as in numpy
]


def _same(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) or math.isnan(a) and math.isnan(b)


@pytest.mark.parametrize("name", ["roots2k", "solenoid", "rectangle", "primefamily"])
def test_residual_matches_numpy_oracle(name, request):
    np = pytest.importorskip("numpy")
    Z = request.getfixturevalue(name)
    cases = [([1.0, 1.0, 1.0], 10000), ([1.0, 1j, -1.0], 10000)]
    if name == "rectangle":
        cases += _RECTANGLE_CASES
    for lambdas, density in cases:
        window = (2.0 ** len(lambdas)) * math.pi
        samples = _sample_spectrum(Z, density, window)
        want_z, residual, raw, argmin = _np_residual(np, Z, lambdas, density)
        assert list(map(_bits, samples)) == list(map(_bits, want_z))
        rep = joint_spectrum_residual(Z, lambdas, density)
        assert rep.sample_count == want_z.size
        assert rep.argmin == argmin
        assert _same(rep.residual, residual) and _same(rep.raw, raw)
        consistency = tuple(
            bool(abs(lambdas[i + 1] ** 2 - lambdas[i]) <= 1e-9) for i in range(len(lambdas) - 1)
        )
        assert rep.consistency == consistency


def _class_chain_sample_spectrum(Z, density, window):
    """The per-class body `_sample_spectrum` replaced, kept as an oracle."""
    per = max(16, density // max(1, len(Z.primitives)))
    out = []
    for p in Z.primitives:
        if isinstance(p, Point):
            out.append(complex(p.re, float(p.im)))
        elif isinstance(p, VSegment):
            re = float(p.re)
            out.extend(complex(re, u) for u in _linspace(float(p.im_lo), float(p.im_hi), per))
        elif isinstance(p, ILattice):
            span = int(math.ceil(window / float(p.step))) + 1
            kk = min(per // 2, max(span, 2))
            re, base, step = float(p.re), float(p.base), float(p.step)
            out.extend(complex(re, base + k * step) for k in range(-kk, kk + 1))
        elif isinstance(p, VLine):
            re = float(p.re)
            out.extend(complex(re, u) for u in _linspace(-window, window, per))
        elif isinstance(p, Rect):
            side = max(3, math.isqrt(per))
            if side % 2 == 0:
                side += 1
            us = _linspace(float(p.im_lo), float(p.im_hi), side)
            for s in _linspace(float(p.re_lo), float(p.re_hi), side):
                out.extend(complex(s, u) for u in us)
        elif isinstance(p, PrimeFamily):
            for j in p.primes():
                out.append(complex(0, float(p.alpha(j))))
                out.append(complex(0, float(p.beta(j))))
        else:
            raise TypeError(type(p).__name__)
    return out


def test_sample_spectrum_matches_the_class_chain(roots2k, solenoid, rectangle, primefamily):
    # a rect on one real value keeps its side x side grid
    one_re = SpectrumSet((Rect(F(1), F(1), PiLinear(0, 0), PiLinear(0, 1)),))
    rng = random.Random(3501)
    spectra = [roots2k, solenoid, rectangle, primefamily, one_re]
    spectra += [random_spectrum(rng) for _ in range(200)]
    for Z in spectra:
        for density, N in ((10000, 2), (2000, 4), (40, 1)):
            window = (2.0 ** (N + 1)) * math.pi
            got = _sample_spectrum(Z, density, window)
            want = _class_chain_sample_spectrum(Z, density, window)
            assert list(map(_bits, got)) == list(map(_bits, want)), (Z, density)
    assert len(_sample_spectrum(one_re, 10000, 8 * math.pi)) == 101 * 101


def test_blocking_threads_pinned(solenoid, roots2k):
    # the exact blocking threads found before the search moved into threads.search
    sol = Thread(0, LevelPoint(F(0), PiLinear(0, 1)), (0,) + (1,) * 49)
    r2k = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), (1, 0) + (1,) * 48)
    for Z, th in ((solenoid, sol), (roots2k, r2k)):
        for n0 in (1, 2, 3):
            cov = quasi_uniform_cover(Z, F(1, 2), n0, 50)
            assert cov.absent_witness == th, n0
    # at eps 3/2 the levels below n0 go unchecked: |1 - z|^2 = 2 < 9/4 at
    # level 1 of the circle, and level 2 of roots2k holds only 1, -1, i, -i
    expected = ((solenoid, (None, sol, sol)), (roots2k, (None, None, r2k)))
    for Z, threads in expected:
        for n0, th in zip((1, 2, 3), threads):
            cov = quasi_uniform_cover(Z, F(3, 2), n0, 50)
            assert (cov.status, cov.absent_witness) == ("unknown" if th is None else "absent", th), n0


def test_stored_points_match_a_per_level_walk(roots2k, solenoid, rectangle):
    corner = Thread(0, LevelPoint(F(-1), PiLinear(0, 1)))
    late = Thread(3, LevelPoint(F(0), PiLinear(0, 1)), bits=(1, 0, 1))
    models = (
        model_for(roots2k),
        model_from_threads(LevelCache(rectangle), (corner,), level_cap=20),
        model_from_threads(LevelCache(solenoid), (late, late), level_cap=20),
    )
    for model in models:
        base = max(th.base_level for th in model.threads)
        cache = LevelCache(model.spectrum)
        for n in range(base, model.level_cap + 1):
            pts = [evaluate(cache, th, n) for th in model.threads]
            t = DyadicTime.from_fraction(F(1, 2**n))
            assert multipliers(model, t) == tuple((p.log_mod, p.angle) for p in pts)
            assert norm_bound_check(model, n).max_log_mod == max(p.log_mod for p in pts)
        for n in range(base):
            with pytest.raises(ValueError):
                norm_bound_check(model, n)
        with pytest.raises(DyadicRangeError):
            norm_bound_check(model, model.level_cap + 1)


def test_residual_far_right_is_scaled_not_overflowed():
    # zeta = 1000: term n is |e^-c - e^(i/2^n)|^2 / (e^-c + 1)^2 with c = 1000/2^n
    rep = joint_spectrum_residual(SpectrumSet((Point(F(1000), PiLinear(1, 0)),)), [1, 1])
    assert rep.residual == pytest.approx(1.5)
    assert rep.raw == math.inf


def test_residual_keeps_an_infinite_lambda_infinite():
    # zeta <= 0 scales nothing, so inf+infj stays inf rather than turning nan
    Z = SpectrumSet((Point(F(0), PiLinear(1, 0)),))
    rep = joint_spectrum_residual(Z, [complex(math.inf, math.inf)], 10)
    assert rep.residual == math.inf and rep.raw == math.inf


@pytest.mark.parametrize("name", ["roots2k", "solenoid", "rectangle", "primefamily"])
def test_simulate_builds_each_level_once(name, monkeypatch):
    # the default model walks its threads in the run's level cache
    from dyadicspec import levels
    from dyadicspec.cli import builtin_example, run

    # and normalizes only level 0, where the model and the blocking search seed
    calls, normalized = [], []
    level_view, normalize = levels.level_view, levels.normalize
    monkeypatch.setattr(levels, "level_view", lambda Z, n: calls.append(n) or level_view(Z, n))
    monkeypatch.setattr(levels, "normalize", lambda n, comps: normalized.append(n) or normalize(n, comps))
    assert run("simulate", builtin_example(name))[0] == 0
    assert calls and len(calls) == len(set(calls))
    assert normalized == [0]


@pytest.mark.parametrize("name", ["roots2k", "solenoid", "rectangle", "primefamily"])
def test_simulate_computes_each_sup_once(name, monkeypatch, capsys):
    # the covers for the three eps read each level's sup from the run's cache
    from dyadicspec import levels
    from dyadicspec.cli import main

    asked, sups = [], []
    sup, sup_sqrt, sup_ints = LevelCache.sup, LevelCache.sup_sqrt, levels._sup_ints
    monkeypatch.setattr(LevelCache, "sup", lambda self, n, digits=30: asked.append((n, digits)) or sup(self, n, digits))
    monkeypatch.setattr(LevelCache, "sup_sqrt", lambda self, n, d: asked.append((n, d)) or sup_sqrt(self, n, d))
    # each enclosure is charged to the (level, digits) that asked for it
    monkeypatch.setattr(levels, "_sup_ints", lambda points, digits: sups.append(asked[-1]) or sup_ints(points, digits))
    assert main(["examples", name, "--run", "simulate"]) == 0
    assert sups and len(sups) == len(set(sups))


def test_diagonal_model_reuses_the_callers_cache(roots2k, solenoid):
    cache = LevelCache(roots2k)
    own = model_for(roots2k)
    shared = model_from_threads(cache, own.threads, level_cap=34)
    assert shared.spectrum == roots2k and set(cache._views) == set(range(35))
    # the model holds no cache: models of one spectrum and threads are equal
    assert shared == own and hash(shared) == hash(own) and repr(shared) == repr(own)
    with pytest.raises(ValueError):
        DiagonalModel(solenoid, own.threads, 34, own.walks[:1])  # a walk per thread
    with pytest.raises(TypeError):
        DiagonalModel(roots2k, own.threads, 34, own.walks, cache=cache)  # not an argument
