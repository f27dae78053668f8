"""Generator expansion: exact gap sets, certificates, and diagnoses."""

import random

import pytest

from conesemi import (
    GeneratorInput,
    enumerate_cone_points,
    expand,
    is_csemigroup,
    make_csemigroup,
    oracle_member,
)
from conesemi.errors import (
    ConeMismatch,
    NotCofinite,
    PointOutsideCone,
    UnsupportedDimension,
    ZeroPoint,
)
from conesemi.wilf import enumerate_genus

S_A_MSG = ((1, 0), (2, 1), (3, 2), (3, 3), (4, 4), (5, 5))


def test_input_validation(cone_a, full1):
    with pytest.raises(ZeroPoint):
        GeneratorInput(cone_a, ((0, 0),))
    with pytest.raises(PointOutsideCone):
        GeneratorInput(cone_a, ((1, 2),))
    with pytest.raises(UnsupportedDimension):
        GeneratorInput(full1, ((1,),))
    with pytest.raises(ConeMismatch):
        GeneratorInput(cone_a, ())
    g = GeneratorInput(cone_a, ((2, 1), (1, 0), (2, 1)))
    assert g.generators == ((1, 0), (2, 1))  # deduplicated, canonical order


def test_expand_s_a(cone_a, s_a):
    assert expand(GeneratorInput(cone_a, S_A_MSG)).gaps == s_a.gaps


def test_expand_hilbert_basis(cone_a):
    assert expand(GeneratorInput(cone_a, ((1, 0), (1, 1)))).gaps == ()


def test_expand_ray_gcd_failure(cone_a):
    with pytest.raises(NotCofinite) as err:
        expand(GeneratorInput(cone_a, ((2, 0), (1, 1))))
    assert err.value.payload["ray"] == [1, 0]


def test_expand_uncovered_ray(cone_a):
    with pytest.raises(ConeMismatch):
        expand(GeneratorInput(cone_a, ((1, 0),)))


def test_expand_dead_interior_line(cone_a):
    """Both ray restrictions are cofinite, but no combination reaches the
    line x - y = 1, so the complement is infinite and expansion must say so
    rather than return a semigroup."""
    with pytest.raises(NotCofinite) as err:
        expand(GeneratorInput(cone_a, ((3, 0), (5, 0), (1, 1))))
    assert err.value.payload["direction"] == [1, 1]


def test_expand_dead_interior_line_full2(full2):
    with pytest.raises(NotCofinite):
        expand(GeneratorInput(full2, ((3, 0), (5, 0), (0, 3), (0, 5))))


def test_is_csemigroup_decisions(cone_a):
    good = is_csemigroup(GeneratorInput(cone_a, S_A_MSG))
    assert good.ok and good.genus == 2
    bad = is_csemigroup(GeneratorInput(cone_a, ((1, 0),)))
    assert not bad.ok and bad.reason == "ConeMismatch"
    dead = is_csemigroup(GeneratorInput(cone_a, ((3, 0), (5, 0), (1, 1))))
    assert not dead.ok and dead.reason == "NotCofinite"
    assert good.to_obj() == {"is_csemigroup": True, "genus": 2}


def test_expand_cofinite_with_interior_generator(full2):
    s = expand(GeneratorInput(full2, ((3, 0), (5, 0), (0, 3), (0, 5), (1, 1))))
    # x = (1, 2) needs one diagonal step plus (0, 1), which is missing
    assert not s.member((1, 2))
    assert s.member((4, 1))
    assert s.genus == len(s.gaps)
    # result revalidates cleanly
    assert make_csemigroup(s.cone, s.gaps) == s


def test_membership_matches_oracle(cone_a, full2):
    cases = [
        (cone_a, S_A_MSG),
        (cone_a, ((1, 0), (2, 1), (3, 3), (4, 4))),
        (full2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1))),
    ]
    for cone, gens in cases:
        s = expand(GeneratorInput(cone, gens))
        for x in enumerate_cone_points(cone, 20):
            assert s.member(x) == oracle_member(cone, gens, x, 20)


def test_deep_points_are_members(cone_a, full2):
    rng = random.Random(5)
    for cone, gens in ((cone_a, S_A_MSG), (full2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1)))):
        s = expand(GeneratorInput(cone, gens))
        r1, r2 = cone.rays
        c1 = max(s.ray_restriction(0).conductor, 1)
        c2 = max(s.ray_restriction(1).conductor, 1)
        for _ in range(500):
            a = rng.randint(2 * c1, 2 * c1 + 40)
            b = rng.randint(2 * c2, 2 * c2 + 40)
            deep = (a * r1[0] + b * r2[0], a * r1[1] + b * r2[1])
            assert s.member(deep)


def test_round_trip_genus_le_4(cone_a, full2):
    for cone in (cone_a, full2):
        for level in enumerate_genus(cone, 4):
            for s in level.semigroups:
                again = expand(GeneratorInput(cone, s.minimal_generators))
                assert again.gaps == s.gaps


def test_expand_skew_cone(cone_skew):
    free = make_csemigroup(cone_skew, [])
    basis = free.minimal_generators
    assert expand(GeneratorInput(cone_skew, basis)).gaps == ()
    for level in enumerate_genus(cone_skew, 3):
        for s in level.semigroups:
            assert expand(GeneratorInput(cone_skew, s.minimal_generators)).gaps == s.gaps


def test_expand_sweep_budget_guard(cone_a, monkeypatch):
    from conesemi.errors import CapacityExceeded

    monkeypatch.setenv("CONESEMI_CAPACITY", "50")
    with pytest.raises(CapacityExceeded):
        expand(GeneratorInput(cone_a, ((7, 0), (9, 0), (1, 1))))


def test_expand_box_budget_guard(monkeypatch):
    """With det 20 the certificate box scans 20 * 20 = 400 candidates for
    K1 = K2 = 1, five times the 80 points the strip sweeps summarize."""
    from conesemi import Cone
    from conesemi.errors import CapacityExceeded

    g = GeneratorInput(Cone.from_rays((1, 0), (1, 20)), tuple((1, k) for k in range(21)))
    assert expand(g).gaps == ()
    monkeypatch.setenv("CONESEMI_CAPACITY", "200")
    with pytest.raises(CapacityExceeded):
        expand(g)


def test_expand_detects_missing_line_access(cone_skew):
    """Dropping (1,1) from the Hilbert basis makes the whole lattice line at
    ray-1 distance 1 unreachable: no other generator has that offset, so the
    complement is infinite even though both rays stay covered."""
    basis = make_csemigroup(cone_skew, []).minimal_generators
    partial = tuple(g for g in basis if g != (1, 1)) + ((2, 2),)
    with pytest.raises(NotCofinite) as err:
        expand(GeneratorInput(cone_skew, partial))
    assert err.value.payload["line_point"] == [1, 1]
