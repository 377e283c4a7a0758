import ast
import copy
import dataclasses
import functools
import pathlib
import pickle
from fractions import Fraction as F

import pytest

import dyadicspec
from dyadicspec.classify import ClassifyParams, classify
from dyadicspec.cli import builtin_example
from dyadicspec.exactnum import PiLinear
from dyadicspec.levels import (
    Annulus,
    Arc,
    CircleLattice,
    FullCircle,
    Interval,
    IsolatedPoint,
    LevelCache,
    LevelPoint,
    Orbit,
    Sector,
)
from dyadicspec.records import record
from dyadicspec.simulate import DiagonalModel, DyadicTime
from dyadicspec.spectrum import (
    ILattice,
    PrimeFamily,
    Rect,
    SectionPoints,
    SpectrumError,
    SpectrumSet,
    VLine,
    VSegment,
)
from dyadicspec.threads import Thread
from dyadicspec.towers import ConstantMaps, PeriodicMaps, Tower, TowerError

BUILTINS = ("roots2k", "solenoid", "rectangle", "primefamily")
P = LevelPoint(F(-1, 2), PiLinear(0, F(1, 3)))


def _collect(obj, out: dict) -> None:
    """Every record reachable from obj, once each, keyed by id."""
    if hasattr(type(obj), "_fields"):
        if id(obj) not in out:
            out[id(obj)] = obj
            for name in type(obj)._fields:
                _collect(getattr(obj, name), out)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            _collect(x, out)


@functools.cache
def _twin_class(cls):
    return dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)


def _twin(x):
    """The frozen dataclass with x's class name, fields and values."""
    return _twin_class(type(x))(*(getattr(x, n) for n in type(x)._fields))


@pytest.fixture(scope="module")
def builtin_records():
    found: dict = {}
    for name in BUILTINS:
        cfg = builtin_example(name)
        _collect(classify(cfg.spectrum, cfg.params), found)
        cache = LevelCache(cfg.spectrum)
        for n in range(7):
            _collect(cache.level(n).components, found)
    return list(found.values())


def test_records_match_frozen_dataclasses(builtin_records):
    kinds = {type(x).__name__ for x in builtin_records}
    assert {"ClassificationReport", "LevelPoint", "IsolatedPoint", "Thread"} <= kinds
    by_class: dict = {}
    for x in builtin_records:
        t = _twin(x)
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
        assert x == type(x)(*(getattr(x, n) for n in type(x)._fields))
        assert x != t and t != x  # like two different dataclasses
        by_class.setdefault(type(x), []).append((x, t))
    for pairs in by_class.values():
        pairs = pairs[:25]
        for x, tx in pairs:
            for y, ty in pairs:
                assert (x == y) == (tx == ty)
                assert (x != y) == (tx != ty)


def test_keywords_defaults_and_bad_arguments():
    th = Thread(base=P, base_level=2)
    assert (th.base_level, th.base, th.bits, th.tail_principal) == (2, P, (), True)
    assert Thread(0, P, (1, 0)).bits == (1, 0)
    assert (PrimeFamily().n_seq, PrimeFamily().J) == ((2, 0), 8)
    assert PrimeFamily(J=3) == PrimeFamily("2j", 3)
    assert ClassifyParams(n_max=5) == ClassifyParams(5)
    assert LevelPoint(angle=P.angle, log_mod=P.log_mod) == P
    assert IsolatedPoint(point=P).point is P
    for bad in (
        lambda: Thread(0),  # missing
        lambda: Thread(0, P, colour=1),  # unknown
        lambda: VLine(F(0), F(1)),  # too many
        lambda: VLine(F(0), re=F(0)),  # twice
        lambda: LevelPoint(F(0)),
        lambda: IsolatedPoint(),
    ):
        with pytest.raises(TypeError):
            bad()


def test_records_are_immutable():
    for x, name in ((VLine(F(0)), "re"), (Thread(0, P), "bits"), (P, "angle"), (IsolatedPoint(P), "point")):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            setattr(x, "other", None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(P, "__dict__") and not hasattr(IsolatedPoint(P), "__dict__")


def test_post_init_checks_still_fire():
    one, zero = PiLinear(1), PiLinear(0)
    for bad in (
        lambda: VSegment(F(0), one, zero),
        lambda: ILattice(F(0), zero, zero),
        lambda: Rect(F(1), F(0), zero, one),
        lambda: PrimeFamily("2j", 0),
        lambda: PrimeFamily("0j", 3),
    ):
        with pytest.raises(SpectrumError):
            bad()
    assert SpectrumSet([VLine(F(0))]).primitives == (VLine(F(0)),)
    with pytest.raises(ValueError):
        DyadicTime(2, 1)
    with pytest.raises(ValueError):
        DiagonalModel(SpectrumSet((VLine(F(0)),)), (), 1, 1)
    with pytest.raises(TowerError):
        Tower(-1, ConstantMaps(()))
    with pytest.raises(TowerError):
        Tower(2, PeriodicMaps(((2, 1), (1,))))


def test_cached_views_work_on_records():
    lo, hi = PiLinear(0, F(-1, 4)), PiLinear(0, F(1, 4))
    arc = Arc(F(0), lo, hi)
    assert arc.angles == Interval(lo, hi) and arc.angles is arc.angles
    assert arc.radial == (F(0), F(0))
    assert FullCircle(F(1)).radial == (F(1), F(1)) and FullCircle(F(1)).angles is None
    lat = CircleLattice(F(0), PiLinear(0), F(1, 2))
    assert lat.angles == Orbit(PiLinear(0), F(1, 2)) and lat.count == 4
    assert Sector(F(-1), F(0), lo, hi).radial == (F(-1), F(0))
    assert Annulus(F(-1), F(0)).radial == (F(-1), F(0))
    fam = PrimeFamily("2j", 2)
    assert isinstance(fam.section, SectionPoints) and fam.section is fam.section
    assert len(fam.section.values) == 4
    # a cached view is not a field: equality and hash ignore it
    assert arc == Arc(F(0), lo, hi) and hash(arc) == hash(Arc(F(0), lo, hi))


def test_copy_and_pickle_round_trip():
    for x in (P, IsolatedPoint(P), Thread(0, P, (1,)), Arc(F(0), PiLinear(0), PiLinear(0, F(1, 2)))):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_record_without_fields():
    @record
    class Empty:
        pass

    assert Empty() == Empty() and hash(Empty()) == hash(())
    assert repr(Empty()).endswith("Empty()")


def test_init_only_keywords_reach_post_init():
    @record
    class Scaled:
        x: int

        def __post_init__(self, *, scale=1):
            self.__dict__["scaled"] = self.x * scale

    assert Scaled(2).scaled == 2 and Scaled(2, scale=3).scaled == 6
    # an init-only value is not a field
    assert Scaled(2, scale=3) == Scaled(2) and repr(Scaled(2, scale=3)).endswith("Scaled(x=2)")
    for bad in (lambda: Scaled(2, 3), lambda: Scaled(2, colour=1), lambda: VLine(F(0), scale=2)):
        with pytest.raises(TypeError):
            bad()


def test_source_generates_no_code():
    """No module imports dataclasses, and none calls exec, eval or compile."""
    src = pathlib.Path(dyadicspec.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in {"exec", "eval", "compile"}, path.name
