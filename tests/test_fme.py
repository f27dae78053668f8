"""Strict-inequality Fourier-Motzkin feasibility."""

from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi import enumerate_cone_points, lower_set_semigroup
from conesemi.fme import feasible_strict
from conesemi.wilf import enumerate_genus


def _angular_separable(vectors):
    """Independent 2D decision: a with a.v > 0 for all v exists iff the
    distinct directions fit strictly inside an open half-plane, i.e. some
    cyclic angular gap exceeds pi (cross of sorted neighbours negative)."""

    def norm(v):
        g = gcd(abs(v[0]), abs(v[1]))
        return (v[0] // g, v[1] // g)

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        return -cross(a, b)

    dirs = sorted({norm(v) for v in vectors}, key=cmp_to_key(cmp))
    if len(dirs) == 1:
        return True
    return any(
        cross(dirs[i], dirs[(i + 1) % len(dirs)]) < 0 for i in range(len(dirs))
    )


def test_single_halfplane():
    assert feasible_strict([(1, 0)])


def test_opposite_rows_infeasible():
    assert not feasible_strict([(1, 0), (-1, 0)])
    assert not feasible_strict([(1, -1), (-1, 1)])


def test_zero_row_infeasible():
    assert not feasible_strict([(0, 0)])


def test_empty_system_feasible():
    assert feasible_strict([])


def test_mixed_two_vars():
    # a1 + a2 > 0 with a1 < 0 forces a2 > -a1 > 0: feasible
    assert feasible_strict([(1, 1), (-1, 0)])


def test_three_vars():
    assert feasible_strict([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)])
    assert not feasible_strict([(1, 1, 1), (-1, -1, -1)])


def test_ray_separation_cases():
    # positivity plus "separate (3,1) from (4,0) and (2,2)" needs a2 > a1 > a2
    rows = [(1, 0), (0, 1), (-1, 1), (1, -1)]
    assert not feasible_strict(rows)
    # separating (4,0) only needs small a2
    rows = [(1, 0), (0, 1), (1, -1), (2, -2), (1, -2)]
    assert feasible_strict(rows)


def test_length_mismatch():
    with pytest.raises(ValueError):
        feasible_strict([(1, 0), (1, 0, 0)])


def test_elimination_agrees_with_angular_oracle(full2, cone_a, cone_skew, s_b):
    """Dual-route check on every separation system arising from the gaps of
    every semigroup of genus <= 4 over three cones (plus S_B)."""
    units = [(1, 0), (0, 1)]
    systems = 0
    pool = [s_b]
    for cone in (full2, cone_a, cone_skew):
        for level in enumerate_genus(cone, 4):
            pool.extend(level.semigroups)
    for s in pool:
        for f in s.gaps:
            rows = [
                (f[0] - h[0], f[1] - h[1]) for h in s.gaps if h != f
            ] + units
            assert feasible_strict(rows) == _angular_separable(rows)
            systems += 1
    assert systems > 1500


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_frobenius_elements_agree_with_angular_oracle(full2, cone_a, cone_skew, data):
    """frobenius_elements on the union of the lower sets of 1-4 random
    points: a gap is kept exactly when its separation rows pass the angular
    decision."""
    cone = data.draw(st.sampled_from([full2, cone_a, cone_skew]))
    candidates = enumerate_cone_points(cone, 8)[1:]
    points = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4))
    s = lower_set_semigroup(cone, points)
    units = [(1, 0), (0, 1)]
    expected = tuple(
        f for f in s.gaps
        if _angular_separable([(f[0] - h[0], f[1] - h[1]) for h in s.gaps if h != f] + units)
    )
    assert s.frobenius_elements() == expected
