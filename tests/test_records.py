"""The value classes keep the contract of frozen dataclasses.

Field-only records are NamedTuples; the values with a cached_property
cache, a validating constructor or fields read on hot paths (`Cone`) are
`geom.Record` subclasses, and the genexp line summary is a small mutable
class. Each keeps its keyword
constructor and defaults, compares and hashes by its fields, prints as
``Name(field=value, ...)``, pickles round-trip and refuses assignment to its
fields.
"""

import pickle
from fractions import Fraction

import pytest

from conesemi.construct import IdemaxialSpec, LevelStatus, PfLinesReport
from conesemi.errors import UnsupportedDimension
from conesemi.genexp import ExpandDecision, GeneratorInput, _LineTable
from conesemi.geom import Cone, RayCoords
from conesemi.render import RenderSpec
from conesemi.semigroup import CofiniteNat, CSemigroup, NumericalSemigroup, make_csemigroup
from conesemi.wilf import GenusLevel, WilfReport, WilfSummary

FULL2 = Cone.full_cone(2)
SECTOR = Cone.from_rays((1, 0), (1, 1))
S_A = make_csemigroup(SECTOR, [(1, 1), (2, 2)])
NS = NumericalSemigroup.from_gaps([1, 2, 4])
REPORT = WilfReport(e=3, n=1, c=3, p=2, margin=-3, holds=False)

# (class, keyword fields of one value, keyword fields of a different value)
RECORDS = [
    (RayCoords, dict(alpha=Fraction(1, 2), beta=Fraction(3)),
     dict(alpha=Fraction(1), beta=Fraction(3))),
    (Cone, dict(p=2, rays=((1, 0), (0, 1)), full=True, det=1),
     dict(p=2, rays=((1, 0), (1, 1)), full=False, det=1)),
    (NumericalSemigroup, dict(gaps=(1, 2, 4)), dict(gaps=(1,))),
    (CofiniteNat, dict(excluded=(1, 4)), dict(excluded=())),
    (CSemigroup, dict(cone=SECTOR, gaps=((1, 1), (2, 2))),
     dict(cone=FULL2, gaps=((1, 1), (2, 2)))),
    (WilfReport, dict(e=3, n=1, c=3, p=2, margin=-3, holds=False),
     dict(e=3, n=2, c=3, p=2, margin=0, holds=True)),
    (GenusLevel, dict(genus=2, semigroups=(S_A,)), dict(genus=2, semigroups=())),
    (WilfSummary, dict(cone=SECTOR, max_genus=2, counts=(1, 2, 4), min_margin=-3,
                       counterexamples=((S_A, REPORT),)),
     dict(cone=SECTOR, max_genus=2, counts=(1, 2, 4), min_margin=-3, counterexamples=())),
    (GeneratorInput, dict(cone=FULL2, generators=((0, 1), (1, 0))),
     dict(cone=FULL2, generators=((0, 1), (1, 0), (1, 1)))),
    (ExpandDecision, dict(ok=True, genus=2, reason=None, detail=""),
     dict(ok=False, genus=None, reason="NotCofinite", detail="ray")),
    (IdemaxialSpec, dict(cone=SECTOR, pattern=NS), dict(cone=FULL2, pattern=NS)),
    (LevelStatus, dict(level=3, is_pf_level=True, is_frobenius_level=False, contained=True,
                       counterexample=None),
     dict(level=3, is_pf_level=False, is_frobenius_level=False, contained=False,
          counterexample=((1, 0), (1, 1), (2, 1)))),
    (PfLinesReport, dict(pattern_gaps=(1, 2), pattern_pf=(2,), levels=(),
                         pf_levels_contained=True, frobenius_level_contained=None),
     dict(pattern_gaps=(1,), pattern_pf=(1,), levels=(), pf_levels_contained=True,
          frobenius_level_contained=True)),
    (RenderSpec, dict(viewport=(4, 5), margin=3, show_pf=True, show_generators=False,
                      show_levels=False),
     dict(viewport=None, margin=3, show_pf=False, show_generators=False, show_levels=False)),
]


@pytest.mark.parametrize("cls,fields,other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, other):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert value == twin and hash(value) == hash(twin)
    assert value != cls(**other)
    assert all(getattr(value, f) == v for f, v in fields.items())
    shown = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
    assert value == twin


def test_defaults():
    assert RenderSpec() == RenderSpec(None, 3, False, False, False)
    assert ExpandDecision(True) == ExpandDecision(ok=True, genus=None, reason=None, detail="")


def test_validating_constructors():
    gi = GeneratorInput(FULL2, [[1, 0], (0, 1), (1, 0)])
    assert gi.generators == ((0, 1), (1, 0))  # deduplicated, canonical order
    with pytest.raises(UnsupportedDimension):
        GeneratorInput(Cone.full_cone(3), [(1, 0, 0)])
    with pytest.raises(UnsupportedDimension):
        IdemaxialSpec(Cone.full_cone(1), NS)


def test_line_table_stays_a_mutable_value():
    table = _LineTable(t_min=0, t0=2, k=3, window=0b101)
    assert table == _LineTable(0, 2, 3, 0b101) != _LineTable(0, 2, 3)
    assert repr(table) == "_LineTable(t_min=0, t0=2, k=3, window=5)"
    assert pickle.loads(pickle.dumps(table)) == table
    with pytest.raises(TypeError):
        hash(table)
    table.t0 = None
    assert not table.member(2)


def test_semigroup_caches_ride_along_in_pickles():
    """Sweep workers send their counterexample nodes back by pickle: a child
    keeps the minimal generators it inherited from its parent, and caches
    stay off equality."""
    parent = make_csemigroup(FULL2, [])
    child = parent.remove_generator((1, 0))
    inherited = child.__dict__["minimal_generators"]
    copy = pickle.loads(pickle.dumps(child))
    assert copy == child and copy.__dict__["minimal_generators"] == inherited
    fresh = make_csemigroup(FULL2, [(1, 0)])
    assert fresh == child and "minimal_generators" not in fresh.__dict__
    assert fresh.minimal_generators == inherited
    assert pickle.loads(pickle.dumps(Cone.from_rays((2, 1), (1, 3)))).det == 5
    with pytest.raises(AttributeError):
        del child.gaps
