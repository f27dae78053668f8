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
from conesemi.genexp import _box_is_clear, _LineTable, _Sweep
from conesemi.geom import _cross
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
    """With det 20 the certificate box spans 20 * 20 = 400 scaled coordinates
    for K1 = K2 = 1, five times the 80 points the strip sweeps summarize."""
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


# -- the box certificate, line by line -------------------------------------------

BOX_CONES = {
    "N2": Cone.full_cone(2),
    "S11": Cone.from_rays((1, 0), (1, 1)),
    "D5": Cone.from_rays((2, 1), (1, 3)),
}


def _box_is_clear_per_point(cone, sweep1, k1, k2):
    """Reference: the certificate box tested one lattice point at a time."""
    d = cone.det
    r1, r2 = cone.rays
    for u in range(k1 * d, 2 * k1 * d):
        for v in range(k2 * d, 2 * k2 * d):
            px = u * r1[0] + v * r2[0]
            py = u * r1[1] + v * r2[1]
            if px % d or py % d:
                continue
            x = (px // d, py // d)
            j = _cross(r1, x)
            t, rem = divmod(_cross(x, r2) - j * sweep1.ob1, d)
            assert rem == 0
            if not sweep1.tables[j].member(t):
                return False
    return True


def _first_box(cone, gens):
    """The ray-1 sweep of gens and the first depths (k1, k2) expand tries."""
    g = GeneratorInput(cone, gens)
    ray_ns = [
        NumericalSemigroup.from_generators(cone.ray_multiples(g.generators, i)) for i in (0, 1)
    ]
    k1, k2 = (max(ns.conductor, 1) for ns in ray_ns)
    return _Sweep(cone, g.generators, 0, ray_ns[0]), k1, k2


def _box_steps(cone, gens, max_steps=6):
    """(k1, k2, per-line, per-point) for each doubling step expand takes."""
    sweep1, k1, k2 = _first_box(cone, gens)
    steps = []
    for _ in range(max_steps):
        sweep1.extend(2 * k2 * cone.det)
        clear = _box_is_clear(sweep1, k1, k2)
        steps.append((k1, k2, clear, _box_is_clear_per_point(cone, sweep1, k1, k2)))
        if clear:
            break
        k1, k2 = 2 * k1, 2 * k2
    return steps


@pytest.mark.parametrize("name", sorted(BOX_CONES))
def test_box_certificate_finds_a_single_non_member(name):
    """Each point of a clear box in turn is made the one non-member of its
    line's box range; both checks must see it, wherever it sits."""
    cone = BOX_CONES[name]
    r1, r2 = cone.rays
    basis = make_csemigroup(cone, []).minimal_generators
    # the Hilbert basis with each ray r replaced by 2r and 3r, plus r1 + r2
    gens = tuple(g for g in basis if g not in (r1, r2)) + tuple(
        (k * r[0], k * r[1]) for r in (r1, r2) for k in (2, 3)
    ) + ((r1[0] + r2[0], r1[1] + r2[1]),)
    sweep1, k1, k2 = _first_box(cone, gens)
    d = cone.det
    sweep1.extend(2 * k2 * d)
    assert (k1, k2) == (2, 2) and _box_is_clear(sweep1, k1, k2)
    for j in range(k2 * d, 2 * k2 * d):
        table = sweep1.tables[j]
        lo = -((j * sweep1.ob1 - k1 * d) // d)
        for t in range(lo, lo + k1):
            sweep1.tables[j] = _LineTable(table.t_min, lo, t - lo + 1, (1 << t - lo) - 1)
            assert not _box_is_clear(sweep1, k1, k2)
            assert not _box_is_clear_per_point(cone, sweep1, k1, k2)
        sweep1.tables[j] = table
    assert _box_is_clear_per_point(cone, sweep1, k1, k2)


def test_box_certificate_matches_the_per_point_scan_on_doubling_steps():
    """Boxes that are not clear at the first depth. With det 1 the ray
    multiples alone fill the first box, so these sets lie in the det-5 sector."""
    for gens in (
        ((4, 2), (18, 9), (7, 21), (8, 24), (3, 3), (1, 1)),
        ((8, 4), (18, 9), (5, 15), (6, 18), (2, 1), (3, 2), (2, 2)),
    ):
        steps = _box_steps(BOX_CONES["D5"], gens)
        assert [(line, point) for _, _, line, point in steps] == [(False, False), (True, True)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_box_certificate_matches_the_per_point_scan(data):
    name = data.draw(st.sampled_from(sorted(BOX_CONES)))
    cone = BOX_CONES[name]
    gens = []
    for r in cone.rays:
        a = data.draw(st.integers(2, 7))
        b = data.draw(st.integers(a + 1, 9).filter(lambda b: gcd(a, b) == 1))
        gens += [(a * r[0], a * r[1]), (b * r[0], b * r[1])]
    inside = [p for p in enumerate_cone_points(cone, 6) if any(p)]
    gens += data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=6))
    try:
        steps = _box_steps(cone, tuple(gens))
    except NotCofinite:
        return  # a memberless line: the box is never reached
    for k1, k2, line, point in steps:
        assert line == point, (name, gens, k1, k2)


# -- the line tables against the per-entry summary -----------------------------------

LINE_CONES = {
    "N2": Cone.full_cone(2),
    "S11": Cone.from_rays((1, 0), (1, 1)),
    "D5": Cone.from_rays((2, 1), (1, 3)),
    "D20": Cone.from_rays((1, 0), (1, 20)),
}


def _summaries_per_entry(sweep, ray_ns, steps, n_lines):
    """Reference: the sweep's first n_lines lines summarized one window entry
    at a time, as (t_min, t0, window) with a tuple of k flags; steps are the
    same-ray generators, as multiples of the ray. A memberless line raises
    NotCofinite."""
    k, d = sweep.k, sweep.d
    rows = [(0, 0, tuple(t in ray_ns for t in range(k)))]

    def member(row, t):
        _, t0, window = row
        return t >= t0 and (t >= t0 + k or window[t - t0])

    def first_member_at_least(row, s):
        _, t0, window = row
        s = max(s, t0)
        while s < t0 + k and not window[s - t0]:
            s += 1
        return s

    for j in range(1, n_lines):
        t_min = -(j * sweep.ob1 // d)
        starts = [
            first_member_at_least(rows[j - ja], t_min + delta) - delta
            for ja, delta in sweep.offline
            if ja <= j
        ]
        if not starts:
            witness = sweep.line_point(j, max(t_min, 0))
            raise NotCofinite(
                f"no member on the lattice line through {witness} with "
                f"direction {sweep.ray}; the complement is infinite"
            )
        t0 = min(starts)
        window = []
        for t in range(t0, t0 + k):
            window.append(
                any(t - m >= t0 and window[t - m - t0] for m in steps)
                or any(member(rows[j - ja], t + delta) for ja, delta in sweep.offline if ja <= j)
            )
        rows.append((t_min, t0, tuple(window)))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_line_tables_match_the_per_entry_summary(data):
    """Every line's (t_min, t0, window) and every NotCofinite message of both
    sweeps agree with the per-entry reference. Extra ray multiples run past
    the conductor (same-ray steps >= k); an interior point may come with its
    neighbour one line further from either ray, which has the same off-line
    delta; a point far out along a ray lands past every window."""
    name = data.draw(st.sampled_from(sorted(LINE_CONES)))
    cone = LINE_CONES[name]
    gens = []
    for r in cone.rays:
        a = data.draw(st.integers(1, 6))
        b = data.draw(st.integers(a + 1, 9).filter(lambda b: gcd(a, b) == 1))
        extra = data.draw(st.lists(st.integers(1, 40), max_size=2))
        gens += [(m * r[0], m * r[1]) for m in [a, b, *extra]]
    inside = [p for p in enumerate_cone_points(cone, 6) if all(cone.scaled_coords(p))]
    for p in data.draw(st.lists(st.sampled_from(inside), max_size=5)):
        gens.append(p)
        for i in data.draw(st.sets(st.sampled_from((0, 1)))):
            u = cone.unit_point(i)
            if cone.contains((p[0] + u[0], p[1] + u[1])):
                gens.append((p[0] + u[0], p[1] + u[1]))
        if data.draw(st.booleans()):
            r = cone.rays[data.draw(st.sampled_from((0, 1)))]
            gens.append((p[0] + 10**6 * r[0], p[1] + 10**6 * r[1]))
    g = GeneratorInput(cone, gens)
    ray_ns = [
        NumericalSemigroup.from_generators(cone.ray_multiples(g.generators, i)) for i in (0, 1)
    ]
    for axis in (0, 1):
        sweep = _Sweep(cone, g.generators, axis, ray_ns[axis])
        steps = cone.ray_multiples(g.generators, axis)
        n_lines = min(2 * max(ray_ns[1 - axis].conductor, 1) * cone.det, 160)
        try:
            expected = _summaries_per_entry(sweep, ray_ns[axis], steps, n_lines)
        except NotCofinite as e:
            with pytest.raises(NotCofinite) as err:
                sweep.extend(n_lines)
            assert str(err.value) == str(e)
            continue
        sweep.extend(n_lines)
        got = [
            (t.t_min, t.t0, tuple(t.window >> i & 1 == 1 for i in range(t.k)))
            for t in sweep.tables
        ]
        assert got == expected, (name, gens, axis)
        assert all(t.window >> t.k == 0 for t in sweep.tables)
