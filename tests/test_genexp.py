"""Generator expansion: exact gap sets, certificates, and diagnoses."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi import (
    Cone,
    GeneratorInput,
    NumericalSemigroup,
    enumerate_cone_points,
    expand,
    is_csemigroup,
    lower_set_semigroup,
    make_csemigroup,
    oracle_member,
)
from conesemi.errors import (
    CapacityExceeded,
    ConeMismatch,
    NotCofinite,
    PointOutsideCone,
    UnsupportedDimension,
    ZeroPoint,
)
from conesemi.genexp import _far_gaps
from conesemi.geom import Grid
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
    monkeypatch.setenv("CONESEMI_CAPACITY", "50")
    with pytest.raises(CapacityExceeded):
        expand(GeneratorInput(cone_a, ((7, 0), (9, 0), (1, 1))))


def test_expand_detects_missing_line_access(cone_skew):
    """Dropping (1,1) from the Hilbert basis makes the whole lattice line at
    ray-1 distance 1 unreachable: no other generator has that offset, so the
    complement is infinite even though both rays stay covered."""
    basis = make_csemigroup(cone_skew, []).minimal_generators
    partial = tuple(g for g in basis if g != (1, 1)) + ((2, 2),)
    with pytest.raises(NotCofinite) as err:
        expand(GeneratorInput(cone_skew, partial))
    assert err.value.payload["line_point"] == [1, 1]


def test_expand_answers_with_a_redundant_far_ray_generator(full2):
    """The reachability table of a ray is sized by its generators' shortest
    coprime prefix, so 10^8 on the ray costs nothing."""
    gens = [(2, 0), (3, 0), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]
    s = expand(GeneratorInput(full2, gens + [(10**8, 0)]))
    assert s == expand(GeneratorInput(full2, gens))
    assert s.gaps == ((0, 1), (1, 0))
    assert NumericalSemigroup.from_generators([2, 3, 10**8]).gaps == (1,)


# -- the band certificate and the grid fill against graded reachability ----------------

CONES = {
    "N2": Cone.full_cone(2),
    "S11": Cone.from_rays((1, 0), (1, 1)),
    "D5": Cone.from_rays((2, 1), (1, 3)),
    "D20": Cone.from_rays((1, 0), (1, 20)),
    "L999": Cone.from_rays((1, 0), (999, 1000)),
    "SK": Cone.from_rays((1000, 999), (999, 998)),
}


def _point(cone, u, v):
    """The lattice point with scaled coordinates (u, v)."""
    ((a, b), (c, e)), d = cone.rays, cone.det
    return ((u * a + v * c) // d, (u * b + v * e) // d)


def _lattice(cone, bounds):
    """The scaled coordinates (u, v) <= bounds of lattice points, by v and
    then u, so each comes after every lattice point below it."""
    d, c = cone.det, cone.residue_step(0)
    return [(u, v) for v in range(bounds[1] + 1) for u in range(c * v % d, bounds[0] + 1, d)]


def _sums(cone, gens, bounds):
    """Reference: the scaled coordinates (u, v) <= bounds of the sums of
    gens, one lattice point at a time: a point is a sum when it is 0 or a
    generator plus an earlier sum."""
    steps = {cone.scaled_coords(a) for a in gens}
    sums = {(0, 0)}
    for u, v in _lattice(cone, bounds):
        if any((u - a, v - b) in sums for a, b in steps):
            sums.add((u, v))
    return sums


def _depths(cone, gens):
    """Per ray, max(conductor, 1) of its generators' numerical semigroup."""
    return [max(NumericalSemigroup.from_generators(cone.ray_multiples(gens, i)).conductor, 1)
            for i in (0, 1)]


@pytest.mark.parametrize("name", ["D5", "N2", "S11"])
def test_band_certificate_finds_a_single_gap(name):
    """Each point of a box in turn is made the one gap; the band check must
    see it exactly when its scaled coordinate i is at least k[i] * det,
    wherever it sits."""
    cone = CONES[name]
    d, k = cone.det, [2, 3]
    grid = Grid(cone, (4 * d - 1, 5 * d - 1))
    box = _lattice(cone, grid.bounds)
    for u, v in box:
        gap = grid.mask([_point(cone, u, v)])
        assert _far_gaps(grid, gap, k) == [u >= 2 * d, v >= 3 * d]
    assert len(box) == bin(grid.ones).count("1")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_box_certificate_matches_the_per_point_scan(data):
    """The band check, two shifts of a whole gap mask, against a scan of
    its points one at a time, for any set of box points as the gaps and
    any depths inside the box."""
    name = data.draw(st.sampled_from(["D20", "D5", "N2", "S11"]))
    cone = CONES[name]
    d = cone.det
    bounds = tuple(data.draw(st.integers(1, 4)) * d - 1 for _ in (0, 1))
    grid = Grid(cone, bounds)
    k = [data.draw(st.integers(1, (b + 1) // d)) for b in bounds]
    box = _lattice(cone, bounds)
    gaps = data.draw(st.sets(st.sampled_from(box), max_size=6))
    expected = [any(x[i] >= k[i] * d for x in gaps) for i in (0, 1)]
    assert _far_gaps(grid, grid.mask(_point(cone, u, v) for u, v in gaps), k) == expected


@pytest.mark.parametrize("name, gens", [
    ("N2", ((2, 0), (3, 0), (0, 2), (0, 3), (9, 1), (1, 1))),
    ("D5", ((4, 2), (6, 3), (2, 6), (3, 9), (7, 4), (3, 8))),
], ids=["N2", "D5"])
def test_expand_doubles_the_depth_past_a_band_with_gaps(name, gens, monkeypatch):
    """Gaps in the band of the first box: the depth doubles, and the gaps
    still match graded reachability on a box twice the size of the last."""
    cone, boxes = CONES[name], []

    class Recording(Grid):
        def __init__(self, cone, bounds):
            boxes.append(bounds)
            super().__init__(cone, bounds)

    monkeypatch.setattr("conesemi.genexp.Grid", Recording)
    gaps = {cone.scaled_coords(x) for x in expand(GeneratorInput(cone, gens)).gaps}
    assert len(boxes) > 1
    bounds = [2 * b + 1 for b in boxes[-1]]
    assert gaps == set(_lattice(cone, bounds)) - _sums(cone, gens, bounds)


def _draw_generators(data, cone):
    """Two coprime multiples of each ray and up to two more past the
    conductor; up to four interior points, each maybe with its neighbour one
    line further from either ray and with a copy far out along a ray; and
    mostly a point at distance 1 from each ray, without which a line is
    empty."""
    d = cone.det
    top = 3 if d >= 20 else 7
    gens = []
    for r in cone.rays:
        a = data.draw(st.integers(1, top - 1))
        b = data.draw(st.integers(a + 1, top).filter(lambda b: gcd(a, b) == 1))
        extra = data.draw(st.lists(st.integers(1, 40), max_size=2))
        gens += [(m * r[0], m * r[1]) for m in [a, b, *extra]]
    inside = [_point(cone, u, v) for u, v in _lattice(cone, (2 * d + 6, 2 * d + 6))
              if u and v and u + v <= 2 * d + 6]
    picks = data.draw(st.lists(st.sampled_from(inside), max_size=4))
    # mostly a point at distance 1 from each ray, without which a line is empty
    for i in (0, 1):
        line = [p for p in inside if cone.scaled_coords(p)[1 - i] == 1]
        if data.draw(st.integers(0, 3)):
            picks.append(data.draw(st.sampled_from(line)))
    for p in picks:
        gens.append(p)
        for i in data.draw(st.sets(st.sampled_from((0, 1)))):
            q = tuple(map(int.__add__, p, cone.unit_point(i)))
            if cone.contains(q):
                gens.append(q)
        if data.draw(st.booleans()):
            r = cone.rays[data.draw(st.sampled_from((0, 1)))]
            gens.append((p[0] + 10**6 * r[0], p[1] + 10**6 * r[1]))
    return gens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_expand_matches_graded_reachability(data):
    """Gap sets and empty lines against the reference table. Extra ray
    multiples run past the conductor; an interior point may come with its
    neighbour one line further from either ray; a point far out along a ray
    lies past every box. The table's box is twice the larger of K_i * det
    and the gaps' extent, so it also covers points expand certified
    without filling them. A NotCofinite names a line at distance 1 from
    its ray that holds no sum in a box twice the first band's depth."""
    name = data.draw(st.sampled_from(sorted(CONES)))
    cone = CONES[name]
    d = cone.det
    gens = _draw_generators(data, cone)
    k = _depths(cone, gens)
    try:
        s = expand(GeneratorInput(cone, gens))
    except CapacityExceeded:
        # a box past the default cap, as on L999 with (2, 1) and (1000, 1001)
        return
    except NotCofinite as e:
        axis = cone.rays.index(tuple(e.payload["direction"]))
        assert cone.scaled_coords(tuple(e.payload["line_point"]))[1 - axis] == 1
        sums = _sums(cone, gens, (2 * k[0] * d, 2 * k[1] * d))
        assert all(x[1 - axis] != 1 for x in sums), (name, gens)
        # the line at distance 1 from ray 0 is the one checked first
        assert axis == 0 or any(x[1] == 1 for x in map(cone.scaled_coords, gens))
        return
    gaps = {cone.scaled_coords(x) for x in s.gaps}
    bounds = [2 * max([k[i] * d] + [x[i] + 1 for x in gaps]) for i in (0, 1)]
    assert gaps == set(_lattice(cone, bounds)) - _sums(cone, gens, bounds), (name, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_line_tables_match_the_per_entry_summary(data):
    """Every box expand fills, the first and each one after a doubling, holds
    on each line of fixed v exactly the sums the reference table finds one
    lattice point at a time."""
    name = data.draw(st.sampled_from(["D20", "D5", "N2", "S11"]))
    cone = CONES[name]
    gens = _draw_generators(data, cone)
    fills = []

    def recording(grid, gaps, k):
        fills.append((grid.bounds, grid.points(grid.ones ^ gaps)))
        return _far_gaps(grid, gaps, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("conesemi.genexp._far_gaps", recording)
        try:
            expand(GeneratorInput(cone, gens))
        except NotCofinite:
            assert not fills  # a memberless line is found before any fill
            return
    assert fills
    for bounds, members in fills:
        got, want = {}, {}
        for u, v in map(cone.scaled_coords, members):
            got.setdefault(v, set()).add(u)
        for u, v in _sums(cone, gens, bounds):
            want.setdefault(v, set()).add(u)
        assert got == want, (name, gens, bounds)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_expand_returns_a_gap_set_the_closure_check_accepts(data):
    """expand builds its result without make_csemigroup; validating its gaps
    must give the same semigroup back. The generators are those of a
    semigroup that removes up to two lower sets, less up to two of them,
    plus up to three cone points that may be its gaps."""
    cone = CONES[data.draw(st.sampled_from(["D5", "N2", "S11"]))]
    inside = [p for p in enumerate_cone_points(cone, 10) if any(p)]
    tops = data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=2))
    gens = list(lower_set_semigroup(cone, tops).minimal_generators)
    for _ in range(data.draw(st.integers(0, 2))):
        gens.pop(data.draw(st.integers(0, len(gens) - 1)))
    gens += data.draw(st.lists(st.sampled_from(inside), max_size=3))
    try:
        s = expand(GeneratorInput(cone, gens))
    except (NotCofinite, ConeMismatch):
        return
    assert make_csemigroup(cone, s.gaps) == s
