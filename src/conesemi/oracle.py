"""Brute-force reference implementations, deliberately slow and simple.

These certify the main algorithms by agreement: no certificates, no strip
sweeps, no generator-region bounds: just graded tables, pairwise scans and
exhaustive subset filters with explicit weight caps. Caps are checked, never
silently assumed.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import CapacityExceeded, InvalidInput
from .geom import (Cone, Point, add, charge, enumerate_cone_points, is_zero, json_ints,
                   json_points, sub, weight)
from .semigroup import CSemigroup, msg_weight_bound


def oracle_member(cone: Cone, generators, x, weight_cap: int) -> bool:
    """Is x a sum of generators? Full graded reachability table, no shortcuts."""
    x, gens = json_ints(x, "x"), json_points(generators, "generators")
    if not cone._contains(x):
        return False
    if weight(x) > weight_cap:
        raise CapacityExceeded(
            f"weight_cap {weight_cap} is below the query weight {weight(x)}"
        )
    reachable: dict[Point, bool] = {}
    for p in enumerate_cone_points(cone, weight_cap):
        if is_zero(p):
            reachable[p] = True
            continue
        hit = False
        for a in gens:
            q = sub(p, a)
            if cone._contains(q) and reachable.get(q, False):
                hit = True
                break
        reachable[p] = hit
    return reachable[x]


def oracle_minimals(s: CSemigroup, weight_cap: int) -> tuple[Point, ...]:
    """Minimal nonzero members under the induced order, by pairwise scan.

    The cap must cover the certified search region of the main algorithm,
    otherwise a minimal element could hide beyond the scan.
    """
    bound = msg_weight_bound(s)
    if weight_cap < bound:
        raise CapacityExceeded(
            f"weight_cap {weight_cap} is below the certified region bound {bound}"
        )
    pts = [
        p
        for p in enumerate_cone_points(s.cone, weight_cap)
        if not is_zero(p) and s._member(p)
    ]
    charge(len(pts) ** 2, "the pairwise scan")
    # y <= x in the induced order (`induced_leq`) on points already read
    return tuple(
        x for x in pts if not any(y != x and s._member(sub(x, y)) for y in pts)
    )


def _complement_closed(gap_set: frozenset, members: list[Point], cap: int) -> bool:
    # members come sorted by weight; sums heavier than the cap cannot be gaps
    for i, a in enumerate(members):
        wa = weight(a)
        if 2 * wa > cap:
            break
        for b in members[i:]:
            if wa + weight(b) > cap:
                break
            if add(a, b) in gap_set:
                return False
    return True


def oracle_all_gapsets(
    cone: Cone, genus: int, weight_cap: int | None = None
) -> list[tuple[Point, ...]]:
    """Every closure-valid gap set of the given size, by exhaustive filter.

    The default cap is twice the genus scaled by the heaviest ray (a gap on
    a ray of weight w sits at w * k with k at most 2*genus - 1). A valid gap
    set touching the cap boundary raises, signalling that the cap must be
    raised to trust the enumeration.
    """
    if genus < 0:
        raise InvalidInput("genus must be nonnegative")
    if weight_cap is None:
        weight_cap = 2 * genus * max(weight(r) for r in cone.rays)
    cap = weight_cap
    pts = [p for p in enumerate_cone_points(cone, cap) if not is_zero(p)]
    charge(comb(len(pts), genus), "the gap-set filter")
    out = []
    for combo in itertools.combinations(pts, genus):
        gap_set = frozenset(combo)
        members = [p for p in pts if p not in gap_set]
        if _complement_closed(gap_set, members, cap):
            out.append(combo)
    for combo in out:
        if combo and max(weight(h) for h in combo) >= cap:
            raise CapacityExceeded(
                f"gap set {combo} touches the weight cap {cap}; raise the cap"
            )
    return out
