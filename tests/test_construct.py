"""Lower-set removals, tunable elasticity, idemaxial semigroups."""

from fractions import Fraction

import pytest

from conesemi import (
    Cone,
    IdemaxialSpec,
    NumericalSemigroup,
    construct,
    frobenius_band,
    high_elasticity,
    idemaxial,
    lower_set,
    lower_set_semigroup,
    make_csemigroup,
    pf_lines_check,
)
from conesemi.errors import (
    DegeneratePattern,
    InvalidInput,
    PointOutsideCone,
    UnsupportedDimension,
    ZeroPoint,
)
from conesemi.geom import canon_key

PATTERNS = ([3, 5], [2, 3], [3, 4], [4, 7, 9])


def _pattern(gens):
    return NumericalSemigroup.from_generators(gens)


# -- lower sets -----------------------------------------------------------------


def test_lower_set_reproduces_s_a(cone_a, s_a):
    assert lower_set_semigroup(cone_a, [(2, 2)]) == s_a


def test_lower_set_incomparable_pair(cone_a):
    s = lower_set_semigroup(cone_a, [(1, 1), (10, 0)])
    assert set(s.frobenius_set()) == {(1, 1), (10, 0)}
    assert s.quasi_elasticity() == 5
    assert set(s.gaps) == {(1, 1)} | {(k, 0) for k in range(1, 11)}


def test_lower_set_empty(cone_skew):
    assert lower_set_semigroup(cone_skew, []).genus == 0


def test_lower_set_frobenius_identity(full2, cone_a):
    for cone, pts in ((full2, [(2, 3), (4, 0)]), (cone_a, [(3, 1), (2, 2)])):
        s = lower_set_semigroup(cone, pts)
        assert set(s.frobenius_set()) == set(pts)


LOWER_SET_CASES = {
    "N2": (Cone.full_cone(2), [(40, 3), (20, 20), (3, 40)]),
    "D5": (Cone.from_rays((2, 1), (1, 3)), [(30, 20), (20, 35)]),
    "N3": (Cone.full_cone(3), [(4, 1, 2), (0, 5, 0), (1, 1, 1)]),
    "D20": (Cone.from_rays((1, 0), (1, 20)), [(5, 30), (9, 1)]),
}


@pytest.mark.parametrize("name", sorted(LOWER_SET_CASES))
def test_lower_set_semigroup_needs_no_closure_check(name, monkeypatch):
    """The gaps are the union of the points' lower sets less 0, canonically
    sorted, built without a call to make_csemigroup; its check accepts them."""
    cone, points = LOWER_SET_CASES[name]
    calls = []
    monkeypatch.setattr(construct, "make_csemigroup", lambda *a: calls.append(a))
    s = lower_set_semigroup(cone, points)
    assert calls == []
    union = {a for f in points for a in lower_set(cone, f) if any(a)}
    assert s.gaps == tuple(sorted(union, key=canon_key))
    assert make_csemigroup(cone, s.gaps[::-1]) == s


def test_lower_set_errors(cone_a):
    with pytest.raises(ZeroPoint):
        lower_set_semigroup(cone_a, [(0, 0)])
    with pytest.raises(PointOutsideCone):
        lower_set_semigroup(cone_a, [(0, 1)])


# -- elasticity ------------------------------------------------------------------


@pytest.mark.parametrize("target", [1, 2, 5, 10, 100, Fraction(7, 2)])
def test_high_elasticity_exceeds_target(full2, cone_a, target):
    for cone in (full2, cone_a):
        assert high_elasticity(cone, target).quasi_elasticity() > target


def test_high_elasticity_examples(full2, cone_a):
    assert high_elasticity(cone_a, 4).quasi_elasticity() > 4
    assert high_elasticity(full2, 10).quasi_elasticity() > 10


def test_high_elasticity_rejects_small_target(full2, full1):
    with pytest.raises(InvalidInput):
        high_elasticity(full2, Fraction(1, 2))
    with pytest.raises(UnsupportedDimension):
        high_elasticity(full1, 2)


# -- idemaxial -------------------------------------------------------------------


def test_idemaxial_35(full2):
    s = idemaxial(IdemaxialSpec(full2, _pattern([3, 5])))
    assert s.genus == 18
    assert s.ray_restriction(0).gaps == (1, 2, 4, 7)
    assert s.ray_restriction(1).gaps == (1, 2, 4, 7)
    level7 = {(x, 7 - x) for x in range(8)}
    assert set(s.frobenius_set()) == level7
    assert set(s.pseudo_frobenius()) == level7
    assert s.weight_set().excluded == (7,)


def test_idemaxial_full_pattern_is_genus0(full2):
    assert idemaxial(IdemaxialSpec(full2, NumericalSemigroup.from_gaps([]))).genus == 0


def test_idemaxial_skew(cone_skew):
    spec = IdemaxialSpec(cone_skew, _pattern([2, 3]))
    s = idemaxial(spec)
    for h in s.gaps:
        lvl = spec.level(h)
        assert lvl <= 1 and (lvl.denominator > 1 or lvl == 1)
    assert s.ray_restriction(0).gaps == (1,)
    assert s.ray_restriction(1).gaps == (1,)
    # closure is revalidated by construction; equality double-checks it
    assert make_csemigroup(cone_skew, s.gaps) == s


def test_idemaxial_dimension_guard(full1):
    with pytest.raises(UnsupportedDimension):
        IdemaxialSpec(full1, _pattern([2, 3]))


@pytest.mark.parametrize("gens", PATTERNS)
def test_idemaxial_ray_restrictions_match_pattern(full2, cone_a, gens):
    pattern = _pattern(gens)
    for cone in (full2, cone_a):
        s = idemaxial(IdemaxialSpec(cone, pattern))
        assert s.ray_restriction(0).gaps == pattern.gaps
        assert s.ray_restriction(1).gaps == pattern.gaps


# -- Frobenius band -----------------------------------------------------------------


def test_band_values(full2):
    assert frobenius_band(IdemaxialSpec(full2, _pattern([3, 5]))) == (5, 8)
    assert frobenius_band(IdemaxialSpec(full2, _pattern([2, 3]))) == (0, 2)
    assert frobenius_band(IdemaxialSpec(full2, _pattern([3, 4]))) == (3, 6)


def test_band_degenerate(full2):
    with pytest.raises(DegeneratePattern):
        frobenius_band(IdemaxialSpec(full2, NumericalSemigroup.from_gaps([])))


@pytest.mark.parametrize("gens", PATTERNS)
def test_band_contains_frobenius_levels(full2, cone_a, gens):
    pattern = _pattern(gens)
    for cone in (full2, cone_a):
        spec = IdemaxialSpec(cone, pattern)
        lo, hi = frobenius_band(spec)
        for f in idemaxial(spec).frobenius_set():
            assert lo <= spec.level(f) <= hi


# -- pseudo-Frobenius lines ------------------------------------------------------------


def test_pf_lines_35(full2):
    report = pf_lines_check(IdemaxialSpec(full2, _pattern([3, 5])))
    assert report.pattern_pf == (7,)
    by_level = {st.level: st for st in report.levels}
    assert by_level[7].contained and by_level[7].is_pf_level
    assert not by_level[4].contained
    x, m, bad = by_level[4].counterexample
    assert sum(x) == 4 and sum(bad) == 7
    assert report.pf_levels_contained
    assert report.frobenius_level_contained


def test_pf_lines_23(full2):
    report = pf_lines_check(IdemaxialSpec(full2, _pattern([2, 3])))
    assert report.pattern_pf == (1,)
    assert all(st.contained for st in report.levels)


def test_pf_lines_trivial_pattern(full2):
    report = pf_lines_check(IdemaxialSpec(full2, NumericalSemigroup.from_gaps([])))
    assert report.levels == ()
    assert report.frobenius_level_contained is None


@pytest.mark.parametrize("gens", PATTERNS)
def test_pf_level_lines_always_contained(full2, cone_a, gens):
    for cone in (full2, cone_a):
        report = pf_lines_check(IdemaxialSpec(cone, _pattern(gens)))
        assert report.pf_levels_contained
        assert report.frobenius_level_contained
