import random
import typing
from fractions import Fraction as F

import pytest

from dyadicspec import levels, realbounds
from dyadicspec.classify import (
    ClassificationReport,
    ClassifyParams,
    Verdict,
    check_not_uniform,
    check_uniform,
    classify,
    pointwise_certificate,
)
from dyadicspec.cli import builtin_example, parse_config
from dyadicspec.exactnum import PiLinear
from dyadicspec.levels import LevelCache, level_set
from dyadicspec.spectrum import (
    ClosednessReport,
    ILattice,
    Point,
    SpectrumSet,
    VLine,
    antipode_level_union,
    image_closedness,
)

from conftest import random_spectrum


def test_four_canonical_verdicts(roots2k, solenoid, rectangle, primefamily):
    assert classify(roots2k).verdict is Verdict.NOT_STRONGLY_CONTINUOUS
    assert classify(solenoid).verdict is Verdict.NOT_STRONGLY_CONTINUOUS
    assert classify(rectangle).verdict is Verdict.UNIFORMLY_CONTINUOUS
    assert classify(primefamily).verdict is Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM


def test_classify_fills_the_callers_cache(solenoid, rectangle):
    cache = LevelCache(solenoid)
    assert classify(solenoid, cache=cache) == classify(solenoid)
    assert cache._levels  # the witness search filled it
    with pytest.raises(ValueError):
        classify(rectangle, cache=cache)


def test_report_contents(roots2k, rectangle, primefamily):
    rep = classify(roots2k)
    assert rep.witness is not None
    # the lattice step 2*pi keeps level sets antipode-closed from level 1 on
    assert (rep.witness.source, rep.witness.closed_from) == (roots2k.primitives[0], 1)
    assert rep.antipodal is not None
    assert rep.sections.holds is False

    rep = classify(rectangle)
    assert rep.uniform_bound is not None
    assert rep.uniform_bound.symbolic_constant is not None
    assert rep.sections.holds is True
    assert sorted(rep.sections.union_levels) == [0, 1]
    assert image_closedness(rep.spectrum, 0).closed

    rep = classify(primefamily)
    assert rep.pointwise is not None
    assert rep.antipodal is not None and rep.sections.holds is False
    assert rep.witness is None


def test_uniform_check_fails_on_circleish(solenoid, roots2k, primefamily):
    p = ClassifyParams(n_max=8)
    for Z in (solenoid, roots2k, primefamily):
        assert check_uniform(Z, LevelCache(Z), p) is None


def test_not_uniform_persistent_reasons(roots2k, primefamily, rectangle):
    # antipodes persist through the tail of the first infinite section:
    # every level from 1 on for the lattice, the schedule n_j for the family
    p = ClassifyParams(n_max=8)
    for Z, tail in ((roots2k, (1, None)), (primefamily, (None, primefamily.primitives[0]))):
        sections = antipode_level_union(Z, p.n_max)
        assert check_not_uniform(Z, LevelCache(Z), p, sections) is not None
        s = next(s for s in sections.sections if s.infinite)
        assert (s.tail_all_from, s.unbounded_schedule) == tail
    sections = antipode_level_union(rectangle, p.n_max)
    a = check_not_uniform(rectangle, LevelCache(rectangle), p, sections)
    assert a is None or sections.holds


def test_pointwise_certificate_scope(primefamily, solenoid):
    n_max = ClassifyParams().n_max
    assert pointwise_certificate(primefamily, antipode_level_union(primefamily, n_max)) is not None
    assert pointwise_certificate(solenoid, antipode_level_union(solenoid, n_max)) is None


def test_single_point_spectra_uniform():
    for z in (Point(F(0), PiLinear(0, 0)), Point(F(-1), PiLinear(1, 0))):
        rep = classify(SpectrumSet((z,)))
        assert rep.verdict is Verdict.UNIFORMLY_CONTINUOUS


def test_inconclusive_when_budget_tiny(solenoid):
    params = ClassifyParams(node_budget=1, search_depth=2, n_max=4)
    rep = classify(solenoid, params)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_monotone_in_depth(roots2k, rectangle):
    # more depth may settle an Inconclusive, but never flips a definite verdict
    shallow = ClassifyParams(n_max=8, search_depth=12)
    deep = ClassifyParams(n_max=14, search_depth=40)
    for Z in (roots2k, rectangle):
        v1 = classify(Z, shallow).verdict
        v2 = classify(Z, deep).verdict
        assert v2 is not Verdict.INCONCLUSIVE
        assert v1 in (v2, Verdict.INCONCLUSIVE)


def test_reports_are_deterministic(roots2k, primefamily):
    for Z in (roots2k, primefamily):
        a, b = classify(Z), classify(Z)
        assert a == b


def test_dense_lattice_not_strong():
    Z = SpectrumSet((ILattice(F(0), PiLinear(0, 0), PiLinear(1, 0)),))
    rep = classify(Z)
    assert rep.verdict is Verdict.NOT_STRONGLY_CONTINUOUS
    # an irrational step: a dense orbit, no antipode-closed level
    assert (rep.witness.source, rep.witness.closed_from) == (Z.primitives[0], None)


def test_mixture_line_dominates(rectangle):
    Z = SpectrumSet(rectangle.primitives + (VLine(F(0)),))
    assert classify(Z).verdict is Verdict.NOT_STRONGLY_CONTINUOUS


def test_primefamily_other_sequence():
    from dyadicspec.levels import antipodal_set, level_set
    from dyadicspec.spectrum import PrimeFamily, section_antipode_levels

    pf = PrimeFamily("3j+1", 4)
    Z = SpectrumSet((pf,))
    schedule = {pf.n_of(j) for j in pf.primes()}
    assert schedule == {10, 16, 22, 34}
    m = section_antipode_levels(Z, F(0), 40)
    assert m.levels | m.tail_extra == schedule
    for n in (9, 10, 11, 16, 17):
        assert antipodal_set(level_set(Z, n)).is_empty() == (n not in schedule)
    assert classify(Z).verdict is Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM


def _oracle_antipodal(Z, n_max):
    """(level, sample) at every level 0..n_max whose full level set holds
    an antipodal pair, from `antipodal_set` alone."""
    out = []
    for n in range(n_max + 1):
        A = levels.antipodal_set(level_set(Z, n))
        if not A.is_empty():
            pts = levels.enumerate_points(A, 1)
            out.append((n, pts[0] if pts else A.components[0]))
    return out


def test_antipodal_levels_from_sections_match_every_level_set():
    # the section levels (or every level, for a dense lattice) are exactly
    # the levels whose level set holds z and -z, with the same samples
    names = ("roots2k", "solenoid", "rectangle", "primefamily")
    spectra = [builtin_example(name).spectrum for name in names]
    spectra.append(parse_config("spectrum ilattice re=0 base=0 step=1\n").spectrum)
    rng = random.Random(1901)
    spectra += [random_spectrum(rng) for _ in range(600)]
    for k, Z in enumerate(spectra):
        n_max = (4, 8, 12)[k % 3]
        sections = antipode_level_union(Z, n_max)
        a = check_not_uniform(Z, LevelCache(Z), ClassifyParams(n_max=n_max), sections)
        got = [] if a is None else list(a.samples)
        assert got == _oracle_antipodal(Z, n_max), Z
        assert a is None or a.levels == tuple(n for n, _ in got)


def test_antipodal_set_built_once_per_reported_level(monkeypatch):
    # antipodes are taken once per reported level, at that level, by one
    # antipodal set off the level's view, whether or not it is all points
    asked, calls = [], []
    sample = LevelCache.antipodal_sample
    monkeypatch.setattr(LevelCache, "antipodal_sample", lambda self, n: asked.append(n) or sample(self, n))
    antipodal_set = levels.antipodal_set
    monkeypatch.setattr(levels, "antipodal_set", lambda L: calls.append(asked[-1]) or antipodal_set(L))
    for text, reported in (
        ("spectrum primefamily nseq=2j J=40\n", (6, 10)),
        ("spectrum primefamily nseq=2j J=8\nspectrum vsegment re=1 im=[0,1*pi]\n", (0, 6, 10)),
    ):
        asked.clear()
        calls.clear()
        cfg = parse_config(text)
        rep = classify(cfg.spectrum, cfg.params)
        assert rep.antipodal.levels == reported
        assert calls == list(reported)


def test_prime_family_accumulation_point_is_not_an_antipode():
    # X_0 holds -1 (the point im=pi) and, in its closure, the point 1 where
    # the family's image accumulates; neither route sees 1, so level 0 is
    # not reported, and the verdict does not depend on it
    cfg = parse_config("spectrum primefamily nseq=2j J=8\nspectrum point re=0 im=1*pi\n")
    Z = cfg.spectrum
    rep = classify(Z, cfg.params)
    assert rep.verdict is Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM
    assert rep.antipodal.levels == (6, 10)
    assert [n for n, _ in _oracle_antipodal(Z, cfg.params.n_max)] == [6, 10]
    assert not image_closedness(Z, 0).closed


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("spectrum point re=0 im=1\nsearch_depth 2000\n", Verdict.UNIFORMLY_CONTINUOUS),
        (
            "spectrum primefamily nseq=2j J=40\nsearch_depth 200\n",
            Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM,
        ),
    ],
)
def test_deep_search_on_a_bounded_spectrum_builds_few_levels(text, verdict, monkeypatch):
    # no thread can stay delta away from 1 at level search_depth, so the
    # witness search builds that one level set instead of failing through
    # every level below it
    calls = []
    level_view = levels.level_view
    monkeypatch.setattr(levels, "level_view", lambda Z, n: calls.append(n) or level_view(Z, n))
    cfg = parse_config(text)
    assert classify(cfg.spectrum, cfg.params).verdict is verdict
    assert calls and len(calls) <= cfg.params.n_max + 2


def test_uniform_table_shares_one_exp_per_radius_and_one_cos_per_angle(monkeypatch):
    # each row of the table has two radii (re_lo / 2^n and 0) and the angles
    # +-pi / 2^n: one exp per radius and one cos for both angles, and the
    # symbolic constant's one exp
    exps, coss = [], []
    exp_ints, cos_ints = realbounds._exp_ints, realbounds._cos_ints
    for module in (levels, realbounds):
        monkeypatch.setattr(module, "_exp_ints", lambda x, d: exps.append(x) or exp_ints(x, d))
        monkeypatch.setattr(module, "_cos_ints", lambda a, d: coss.append(a) or cos_ints(a, d))
    cfg = parse_config("spectrum rect re=[-201,0] im=[-1*pi,1*pi]\n")
    rows = cfg.params.n_max + 1
    assert check_uniform(cfg.spectrum, LevelCache(cfg.spectrum), cfg.params) is not None
    assert exps and len(exps) <= 2 * rows + 1
    # the kernel takes the log-modulus as its (numerator, denominator) pair
    assert all(exps.count(x) == 1 for x in exps if x != (0, 1)) and exps.count((0, 1)) <= rows
    assert coss and len(coss) <= rows
    assert len({realbounds.even_key(a) for a in coss}) == len(coss)


def _leaf_types(t) -> set:
    """The classes a field annotation names, through unions and containers."""
    args = typing.get_args(t)
    return {x for a in args if a is not Ellipsis for x in _leaf_types(a)} if args else {t}


def _reachable_fields(*roots) -> list[tuple[type, str, set]]:
    """(record, field, leaf classes) of every field of every record reachable
    from `roots` through field annotations."""
    seen: set = set()
    todo, out = list(roots), []
    while todo:
        cls = todo.pop()
        if cls in seen or not hasattr(cls, "_fields"):
            continue
        seen.add(cls)
        # records written out by hand annotate their __init__ instead
        hints = typing.get_type_hints(cls) or typing.get_type_hints(cls.__init__)
        for name in cls._fields:
            leaves = _leaf_types(hints[name])
            out.append((cls, name, leaves))
            todo.extend(leaves)
    return out


def test_report_records_hold_exact_values_only():
    # the reports hold no text: cli alone writes their sentences
    fields = _reachable_fields(ClassificationReport, ClosednessReport)
    records = {cls.__name__ for cls, _, _ in fields}
    assert {
        "WitnessThread", "AntipodalLevels", "PointwiseCertificate", "SectionLevels",
        "PrimeFamily", "ILattice", "VLine", "Thread", "LevelPoint", "Component",
        "ClosednessWitness", "ClassifyParams",
    } <= records
    assert [(cls.__name__, name) for cls, name, leaves in fields if str in leaves] == []
