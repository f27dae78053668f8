"""Geometry layer: membership, ray coordinates, orders, graded enumeration."""

import itertools
import random

import pytest

from conesemi import Cone, enumerate_cone_points, geom, lower_set, weight
from conesemi.errors import CapacityExceeded, DimensionMismatch, InvalidInput
from conesemi.geom import add, canon_key, lattice_box, scale, sub

DET20 = Cone.from_rays((1, 0), (1, 20))
SECTORS = [
    Cone.from_rays(r1, r2)
    for r1, r2 in (((1, 0), (1, 1)), ((2, 1), (1, 3)), ((1, 0), (1, 20)),
                   ((3, 1), (1, 4)), ((5, 2), (2, 7)), ((1, 0), (2, 7)))
]


def test_cone_normalizes_rays():
    c = Cone.from_rays((2, 0), (3, 3))
    assert c.rays == ((1, 0), (1, 1))
    assert c.det == 1


def test_cone_swaps_to_counterclockwise():
    c = Cone.from_rays((1, 1), (1, 0))
    assert c.rays == ((1, 0), (1, 1))
    assert c.det > 0


def test_cone_rejects_bad_rays():
    with pytest.raises(InvalidInput):
        Cone.from_rays((1, 0), (2, 0))  # dependent
    with pytest.raises(InvalidInput):
        Cone.from_rays((0, 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        Cone.full_cone(4)


def test_full2_is_canonical_sector():
    assert Cone.from_rays((1, 0), (0, 1)) == Cone.full_cone(2)


def test_contains_examples(cone_a, full2):
    assert cone_a.contains((3, 1))
    assert not cone_a.contains((1, 2))
    assert full2.contains((0, 0))


def test_contains_dimension_mismatch(cone_a):
    with pytest.raises(DimensionMismatch):
        cone_a.contains((1, 2, 3))


def test_ray_coords_examples(cone_a):
    rc = cone_a.ray_coords((3, 1))
    assert (rc.alpha, rc.beta) == (2, 1)
    rc = cone_a.ray_coords((2, 2))
    assert (rc.alpha, rc.beta) == (0, 2)
    c = Cone.from_rays((2, 1), (1, 3))
    rc = c.ray_coords((3, 4))
    assert (rc.alpha, rc.beta) == (1, 1)


def test_ray_coords_reconstruct_random(cone_skew):
    rng = random.Random(0)
    r1, r2 = cone_skew.rays
    for _ in range(1000):
        x = (rng.randint(-50, 50), rng.randint(-50, 50))
        rc = cone_skew.ray_coords(x)
        rebuilt = (rc.alpha * r1[0] + rc.beta * r2[0], rc.alpha * r1[1] + rc.beta * r2[1])
        assert rebuilt == x


def test_contains_iff_coords_nonnegative(cone_skew):
    rng = random.Random(1)
    for _ in range(500):
        x = (rng.randint(-30, 30), rng.randint(-30, 30))
        rc = cone_skew.ray_coords(x)
        assert cone_skew.contains(x) == (rc.alpha >= 0 and rc.beta >= 0)


def test_cone_order_examples(cone_a):
    assert cone_a.leq((1, 1), (2, 2))
    assert not cone_a.leq((3, 1), (4, 0))
    assert cone_a.leq((3, 1), (3, 1))


def test_cone_order_is_partial_order(cone_skew):
    rng = random.Random(2)
    pts = enumerate_cone_points(cone_skew, 12)
    for _ in range(300):
        x, y, z = (rng.choice(pts) for _ in range(3))
        assert cone_skew.leq(x, x)
        if cone_skew.leq(x, y) and cone_skew.leq(y, x):
            assert x == y
        if cone_skew.leq(x, y) and cone_skew.leq(y, z):
            assert cone_skew.leq(x, z)


def test_weight_examples():
    assert weight((2, 2)) == 4
    assert weight((0, 0)) == 0
    assert weight((3, 1)) == 4


def test_enumerate_examples(cone_a, full1):
    assert enumerate_cone_points(cone_a, 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert enumerate_cone_points(full1, 3) == [(0,), (1,), (2,), (3,)]
    assert enumerate_cone_points(cone_a, 0) == [(0, 0)]


def test_enumerate_matches_rectangle_scan(cone_a, cone_skew, full2):
    for cone in (cone_a, cone_skew, full2):
        for bound in (0, 1, 7, 12):
            expected = sorted(
                (
                    (x, y)
                    for x in range(bound + 1)
                    for y in range(bound + 1)
                    if x + y <= bound and cone.contains((x, y))
                ),
                key=canon_key,
            )
            got = enumerate_cone_points(cone, bound)
            assert got == expected
            assert sorted(set(got), key=canon_key) == got  # strictly increasing


def test_enumerate_full3(full3):
    pts = enumerate_cone_points(full3, 2)
    assert pts[0] == (0, 0, 0)
    assert len(pts) == 1 + 3 + 6


def test_enumerate_capacity(cone_a, monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", "10")
    with pytest.raises(CapacityExceeded):
        enumerate_cone_points(cone_a, 100)


def test_capacity_env_override(monkeypatch, cone_a):
    monkeypatch.setenv("CONESEMI_CAPACITY", "5")
    with pytest.raises(CapacityExceeded):
        enumerate_cone_points(cone_a, 100)
    monkeypatch.setenv("CONESEMI_CAPACITY", "junk")
    with pytest.raises(InvalidInput):
        enumerate_cone_points(cone_a, 1)


def test_lower_set_matches_scan(cone_skew, full2):
    rng = random.Random(3)
    for cone in (cone_skew, full2):
        pts = enumerate_cone_points(cone, 14)
        for _ in range(40):
            h = rng.choice(pts)
            expected = [a for a in pts if weight(a) <= weight(h) and cone.leq(a, h)]
            assert lower_set(cone, h) == expected


def test_lower_set_outside_cone_is_empty(cone_a):
    assert lower_set(cone_a, (1, 2)) == []


def test_lower_set_budget_guard(cone_a, full2, monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", "100")
    with pytest.raises(CapacityExceeded):
        lower_set(cone_a, (2000, 0))
    with pytest.raises(CapacityExceeded):
        lower_set(full2, (50, 50))


def test_sector_lower_set_is_charged_near_its_point_count(monkeypatch):
    """The det-20 lower set of (30, 20) has 611 points and is charged 630,
    not the 581 * 21 = 12,201 pairs of scaled coordinates in its box."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "1000")
    assert len(lower_set(DET20, (30, 20))) == 611
    monkeypatch.setenv("CONESEMI_CAPACITY", "629")
    with pytest.raises(CapacityExceeded):
        lower_set(DET20, (30, 20))


def test_sector_lower_set_charge_covers_its_points(monkeypatch):
    charged = []
    monkeypatch.setattr(geom, "charge", lambda points, what, cap=None: charged.append(points))
    rng = random.Random(6)
    for cone in SECTORS:
        pts = enumerate_cone_points(cone, 40)
        for _ in range(300):
            box = lattice_box(cone, rng.choice(pts))
            assert charged[-1] >= len(box)


def test_point_arithmetic_guards():
    with pytest.raises(DimensionMismatch):
        add((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        sub((1,), (1, 2))
    assert scale(3, (1, 2)) == (3, 6)


def test_normals_point_inward(cone_a, cone_skew, full2):
    for cone in (cone_a, cone_skew, full2):
        for x in enumerate_cone_points(cone, 9):
            assert all(
                n[0] * x[0] + n[1] * x[1] >= 0 for n in cone.normals
            )


def test_cone_json_roundtrip(cone_a, cone_skew, full1, full3):
    for cone in (cone_a, cone_skew, full1, full3):
        assert Cone.from_obj(cone.to_obj()) == cone
    # wrapped form is accepted too
    assert Cone.from_obj({"cone": {"type": "full", "p": 2}}) == Cone.full_cone(2)
    with pytest.raises(InvalidInput):
        Cone.from_obj({"type": "hexagonal"})


LEAN999 = Cone.from_rays((1, 0), (999, 1000))
# each cone with the bounds of its larger grids: the det-1 sector of nearly
# parallel rays, and the lean-999 sector, whose rows u in 41..999 are empty
GRID_CONES = [(Cone.full_cone(1), [(60,)]), (Cone.full_cone(2), [(25, 12)]),
              (Cone.full_cone(3), [(5, 3, 2)]), (Cone.from_rays((1000, 999), (999, 998)), []),
              (LEAN999, [(1500, 40)])] + [(c, [(30, 20)]) for c in SECTORS]


def _box(cone, bounds):
    """The cone points with scaled coordinates at most bounds, canonically
    sorted: (u * r1 + v * r2) / det for the integer (u, v) that give one."""
    if cone.full:
        return sorted(itertools.product(*(range(b + 1) for b in bounds)), key=canon_key)
    (x1, y1), (x2, y2) = cone.rays
    scaled = ((u * x1 + v * x2, u * y1 + v * y2)
              for u in range(bounds[0] + 1) for v in range(bounds[1] + 1))
    return sorted(((x // cone.det, y // cone.det) for x, y in scaled
                   if x % cone.det == 0 and y % cone.det == 0), key=canon_key)


@pytest.mark.parametrize("cone,larger", GRID_CONES,
                         ids=[repr(c.rays).replace(" ", "") for c, _ in GRID_CONES])
def test_grid_slots_add_and_subtract_like_points(cone, larger):
    """The grid holds exactly the cone points of its box, in canonical order,
    and a sum or difference of two box points lies on a bit of `ones`
    exactly when it is a box point: on every pair of a small box, and on
    3,000 random pairs of a larger one."""
    rng = random.Random(0)
    for bounds in [(0,) * cone.p, (3,) * cone.p, (7, 4, 2)[:cone.p]] + larger:
        grid = geom.Grid(cone, bounds)
        box = _box(cone, bounds)
        assert grid.points(grid.ones) == box
        inside = set(box)
        slots = {x: grid.mask([x]).bit_length() - 1 for x in box}
        pairs = [(a, b) for a in box for b in box]
        for a, b in pairs if len(pairs) < 3000 else rng.sample(pairs, 3000):
            total, diff = slots[a] + slots[b], slots[a] - slots[b]
            assert (grid.ones >> total & 1) == (add(a, b) in inside)
            assert (diff >= 0 and grid.ones >> diff & 1) == (sub(a, b) in inside)
