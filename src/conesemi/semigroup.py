"""Cofinite subsemigroups of a pointed integer cone and their invariants.

A C-semigroup is stored by its cone together with the finite set of cone
lattice points it misses (the gaps). Everything else (minimal generators,
Frobenius/pseudo-Frobenius sets, Apery sets, weight data) is derived on
demand with exact arithmetic and cached on the immutable value.

Orders in play:
  * cone order:     x <= y  iff  y - x lies in the cone;
  * induced order:  x <= y  iff  y - x lies in the semigroup.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    EmptyGapSet,
    GapOutsideCone,
    InvalidInput,
    InvalidRay,
    NotAMember,
    NotClosed,
    ZeroGap,
    ZeroShift,
)
from .geom import (
    Cone,
    Point,
    Record,
    add,
    canon_key,
    charge,
    charge_box,
    enumerate_cone_points,
    is_zero,
    json_field,
    json_points,
    lower_set,
    scale,
    sub,
    weight,
)

if TYPE_CHECKING:
    from fractions import Fraction


class NumericalSemigroup(Record):
    """A cofinite additive submonoid of the naturals, stored by its gap set."""

    _fields = ("gaps",)

    def __init__(self, gaps: tuple[int, ...]):
        self.__dict__["gaps"] = gaps

    @classmethod
    def from_gaps(cls, gaps) -> "NumericalSemigroup":
        normalized = sorted({int(g) for g in gaps})
        if normalized and normalized[0] < 1:
            raise ZeroGap("numerical semigroup gaps must be positive")
        gap_set = set(normalized)
        for h in normalized:
            for a in range(1, h // 2 + 1):
                if a not in gap_set and h - a not in gap_set:
                    raise NotClosed((h,), (a,), (h - a,))
        return cls(tuple(normalized))

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """Expand a coprime generating set; gaps found by graded reachability.

        The table marks exactly the sums of generators, so its unmarked
        entries form a closed gap set without a separate closure check.
        """
        gens = sorted({int(g) for g in generators})
        if not gens or gens[0] < 1:
            raise InvalidInput("generators must be positive integers")
        if gcd(*gens) != 1:
            raise InvalidInput(f"generators {gens} must have gcd 1")
        m = gens[0]
        bound = m * gens[-1] + 2
        while True:
            charge(bound, "the reachability table")
            reach = bytearray(bound)
            reach[0] = 1
            for t in range(1, bound):
                for a in gens:
                    if a <= t and reach[t - a]:
                        reach[t] = 1
                        break
            # m consecutive members make everything beyond them reachable
            run = 0
            for t in range(bound):
                run = run + 1 if reach[t] else 0
                if run == m:
                    return cls(tuple(k for k in range(t - m + 1) if not reach[k]))
            bound *= 2

    @cached_property
    def _gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def frobenius(self) -> int:
        """Largest gap, or -1 when the semigroup is all of the naturals."""
        return self.gaps[-1] if self.gaps else -1

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def multiplicity(self) -> int:
        """Least nonzero element."""
        t = 1
        while t in self._gap_set:
            t += 1
        return t

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n not in self._gap_set

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps a with a + n in the semigroup for every nonzero element n."""
        if not self.gaps:
            raise EmptyGapSet("the full semigroup has no pseudo-Frobenius numbers")
        out = []
        for a in self.gaps:
            # elements beyond frobenius - a push a + n past every gap
            if all(
                a + n not in self._gap_set
                for n in range(1, self.frobenius - a + 1)
                if n in self
            ):
                out.append(a)
        return tuple(out)

    def to_obj(self) -> dict:
        return {
            "gaps": list(self.gaps),
            "frobenius": self.frobenius,
            "conductor": self.conductor,
            "multiplicity": self.multiplicity,
        }


class CofiniteNat(NamedTuple):
    """The naturals minus a finite excluded set."""

    excluded: tuple[int, ...]

    def __contains__(self, t: int) -> bool:
        return t >= 0 and t not in self.excluded

    def to_obj(self) -> dict:
        return {"excluded": list(self.excluded)}


class CSemigroup(Record):
    """Cone plus canonically sorted gap tuple.

    Construct through :func:`make_csemigroup`, which validates that the
    gaps are nonzero cone points whose complement is closed under addition.
    Direct construction assumes those invariants. Instances are immutable
    and safe to share between threads; derived data is cached.
    """

    _fields = ("cone", "gaps")

    def __init__(self, cone: Cone, gaps: tuple[Point, ...]):
        self.__dict__.update(cone=cone, gaps=gaps)

    # -- basic structure -------------------------------------------------------

    @cached_property
    def gap_set(self) -> frozenset[Point]:
        return frozenset(self.gaps)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @cached_property
    def max_gap_weight(self) -> int:
        return max((weight(h) for h in self.gaps), default=0)

    def member(self, x) -> bool:
        x = tuple(x)
        return self.cone.contains(x) and x not in self.gap_set

    def induced_leq(self, x, y) -> bool:
        """Induced order: x <= y iff y - x belongs to the semigroup."""
        return self.member(sub(tuple(y), tuple(x)))

    # -- generators ------------------------------------------------------------

    @cached_property
    def _generator_region(self) -> tuple[tuple[int, ...], int]:
        """Scaled per-ray bounds containing every minimal generator, plus a
        weight cap for the bounded region.

        If the i-th scaled ray coordinate of x exceeds every gap's by more
        than step_i * det (step_i a nonzero element of the i-th ray
        restriction), then x - step_i * r_i is a nonzero member, so x
        decomposes. Minimal generators therefore fit in the box below.
        """
        cone = self.cone
        d = cone.det
        bounds = []
        for i, r in enumerate(cone.rays):
            step = max(self.ray_restriction(i).conductor, 1)
            hmax = max((cone.scaled_coords(h)[i] for h in self.gaps), default=0)
            bounds.append(hmax + step * d)
        cap = sum(u * weight(r) for u, r in zip(bounds, cone.rays)) // d
        return tuple(bounds), cap

    @cached_property
    def minimal_generators(self) -> tuple[Point, ...]:
        """The unique minimal generating set: minimal nonzero elements under
        the induced order, i.e. the members with no two-member decomposition."""
        bounds, cap = self._generator_region
        cone = self.cone
        members: list[tuple[Point, tuple[int, ...]]] = []
        for x in enumerate_cone_points(cone, cap):
            if is_zero(x) or x in self.gap_set:
                continue
            sc = cone.scaled_coords(x)
            if all(u <= b for u, b in zip(sc, bounds)):
                members.append((x, sc))
        out = []
        for x, sx in members:
            wx = weight(x)
            decomposable = False
            for a, sa in members:
                if weight(a) >= wx:
                    break
                if all(c <= t for c, t in zip(sa, sx)):
                    # x - a stays in the cone; nonzero since weights differ
                    if sub(x, a) not in self.gap_set:
                        decomposable = True
                        break
            if not decomposable:
                out.append(x)
        return tuple(out)

    def remove_generator(self, m) -> "CSemigroup":
        """S \\ {m} for a minimal generator m; see `remove_generators`."""
        return self.remove_generators([m])[0]

    def remove_generators(self, ms) -> list["CSemigroup"]:
        """S \\ {m} for each minimal generator m in ms, in that order, their
        minimal generators derived from these instead of rescanning the
        certified region.

        Generators of S other than m stay minimal: a decomposition in S \\ {m}
        is one in S. A new generator x of S \\ {m} decomposes in S only
        through m, so x = m + n with n in msg(S), or x = 3m. Such a candidate
        is kept unless x - c is a nonzero member of S \\ {m} for an old
        generator c (one of msg(S) other than m). That test is complete: a
        decomposition x = a + b in S \\ {m} writes a and b as sums of its
        generators, and x - c is a nonzero member for each old c among them.
        Were all of them new, each m plus a nonzero member of S, x would lie
        in 2m + (S \\ {0}) + (S \\ {0}): that would decompose n in S if
        x = m + n, or m if x = 3m, and 2m is too light.

        The decomposition test runs on packed scaled coordinates (see
        `_pack`), packed once for all the children. Every candidate
        coordinate is at most 3 times the largest generator coordinate of S,
        so fields of that width never carry into a guard bit. The input
        check, the canonical order and the returned generators stay tuples,
        and nothing packed is kept on the instance.
        """
        msg = self.minimal_generators
        index = {n: i for i, n in enumerate(msg)}
        ms = [tuple(m) for m in ms]
        for m in ms:
            if m not in index:
                raise InvalidInput(f"{m} is not a minimal generator", point=list(m))
        cone = self.cone
        # a full cone's scaled coordinates are the points themselves
        scaled = msg if cone.full else [cone.scaled_coords(n) for n in msg]
        width = (3 * max(map(max, scaled))).bit_length()
        guards = _pack([1 << width] * cone.p, width)
        # msg is canonically sorted, so by weight
        weights = [weight(n) for n in msg]
        packed = [_pack(sc, width) for sc in scaled]
        # a difference of candidates fits the fields, so a wider gap is none
        holes = set()
        for h in self.gaps:
            sc = h if cone.full else cone.scaled_coords(h)
            if max(sc) >> width == 0:
                holes.add(_pack(sc, width))
        children = []
        for m in ms:
            i = index[m]
            wm, pm = weights[i], packed[i]
            old = msg[:i] + msg[i + 1:]
            old_w = weights[:i] + weights[i + 1:]
            old_p = packed[:i] + packed[i + 1:]
            # m + n as (weight, packed, n), the point built only if it is
            # kept; sums of fields that stay below 2^width are fieldwise sums
            fresh = [(wm + wn, pm + pn, n) for wn, pn, n in zip(old_w, old_p, old)]
            fresh += [(2 * wm, 2 * pm, m), (3 * wm, 3 * pm, scale(2, m))]
            kept = list(zip(old_w, old))
            for wx, px, n in fresh:
                high = px | guards
                for pc in old_p[: bisect_left(old_w, wx)]:
                    # no field borrows, so x - c stays in the cone; it is
                    # nonzero since the weights differ, and no member if it
                    # is m or a gap of S
                    if (high - pc) & guards == guards and px - pc != pm and px - pc not in holes:
                        break
                else:
                    kept.append((wx, add(m, n)))
            at = bisect(self.gaps, canon_key(m), key=canon_key)
            child = CSemigroup(cone, self.gaps[:at] + (m,) + self.gaps[at:])
            child.__dict__["minimal_generators"] = tuple(x for _, x in sorted(kept))
            children.append(child)
        return children

    # -- gap-side invariants -----------------------------------------------------

    def frobenius_set(self, order: str = "cone") -> tuple[Point, ...]:
        """Maximal gaps under the cone order (default) or the induced order;
        the induced-maximal gaps are the pseudo-Frobenius set.

        A gap k lies above a gap h in the cone order when every scaled
        coordinate of k - h is >= 0, and in the induced order when k - h is
        moreover no gap. Both tests run on scaled coordinates packed once per
        gap (see `_pack`), and only against heavier gaps: k - h is a nonzero
        cone point, so its weight is positive.
        """
        if order not in ("cone", "induced"):
            raise InvalidInput(f"order must be 'cone' or 'induced', got {order!r}")
        cone = self.cone
        scaled = [cone.scaled_coords(h) for h in self.gaps]
        width = max(map(max, scaled), default=0).bit_length()
        packed = [_pack(sc, width) for sc in scaled]
        guards = _pack([1 << width] * cone.p, width)
        high = [pk | guards for pk in packed]
        # without borrows, (k | guards) - h is the packed k - h plus guards
        holes = set(high) if order == "induced" else ()
        weights = [weight(h) for h in self.gaps]
        out = []
        for h, ph, wh in zip(self.gaps, packed, weights):
            for hk in high[bisect(weights, wh):]:
                diff = hk - ph
                if diff & guards == guards and diff not in holes:
                    break
            else:
                out.append(h)
        return tuple(out)

    def pseudo_frobenius(self) -> tuple[Point, ...]:
        """Gaps a with a + s in the semigroup for every nonzero member s.

        These are the gaps maximal under the induced order: a <= b for a gap
        b != a exactly when b = a + s with s a nonzero member.
        """
        if not self.gaps:
            raise EmptyGapSet("the gap-free semigroup has no pseudo-Frobenius set")
        return self.frobenius_set("induced")

    def apery_set(self, b) -> tuple[Point, ...]:
        """Members a with a - b a gap; equivalently gaps shifted by b that land
        back in the semigroup."""
        b = tuple(b)
        self.cone._check_dim(b)
        if is_zero(b):
            raise ZeroShift("Apery shift must be nonzero")
        if not self.member(b):
            raise NotAMember(f"{b} is not in the semigroup", point=list(b))
        shifted = (add(h, b) for h in self.gaps)
        return tuple(sorted((a for a in shifted if a not in self.gap_set), key=canon_key))

    def frobenius_elements(self) -> tuple[Point, ...]:
        """Gaps that a strictly positive weight vector separates from all other
        gaps; equivalently the possible gap maxima over all term orders.

        Feasibility of the open system {a > 0, (f-h).a > 0 for all h} is
        decided exactly by Fourier-Motzkin elimination.
        """
        from .fme import feasible_strict

        if not self.gaps:
            raise EmptyGapSet("the gap-free semigroup has no Frobenius elements")
        p = self.cone.p
        units = [tuple(1 if j == i else 0 for j in range(p)) for i in range(p)]
        out = []
        for f in self.gaps:
            rows = [sub(f, h) for h in self.gaps if h != f]
            if feasible_strict(rows + units):
                out.append(f)
        return tuple(out)

    # -- weight data ---------------------------------------------------------------

    def weight_set(self) -> CofiniteNat:
        """Weights whose level line exists in the cone and carries no
        Frobenius-set gap, as a cofinite subset of the naturals."""
        excluded = {weight(f) for f in self.frobenius_set()}
        bound = self.cone.empty_level_bound()
        charge(bound, "the weight-set level scan")
        for t in range(bound):
            if self.cone.level_is_empty(t):
                excluded.add(t)
        return CofiniteNat(tuple(sorted(excluded)))

    def quasi_elasticity(self) -> Fraction:
        """max/min of the Frobenius-set weights."""
        from fractions import Fraction

        if not self.gaps:
            raise EmptyGapSet("quasi-elasticity undefined for the gap-free semigroup")
        ws = [weight(f) for f in self.frobenius_set()]
        return Fraction(max(ws), min(ws))

    def ray_restriction(self, i: int) -> NumericalSemigroup:
        """Multiples k of ray i with k * r_i missing from the semigroup, as a
        numerical semigroup gap set."""
        rays = self.cone.rays
        if not 0 <= i < len(rays):
            raise InvalidRay(f"ray index {i} out of range for {len(rays)} rays")
        return NumericalSemigroup.from_gaps(self.cone.ray_multiples(self.gaps, i))

    # -- serialization ----------------------------------------------------------------

    def to_obj(self) -> dict:
        return {"cone": self.cone.to_obj(), "gaps": [list(g) for g in self.gaps]}

    @staticmethod
    def from_obj(obj) -> "CSemigroup":
        """Decode and validate ``{"cone": ..., "gaps": [[x, y], ...]}``."""
        cone = Cone.from_obj(json_field(obj, "cone"))
        return make_csemigroup(cone, json_points(json_field(obj, "gaps"), "gaps"))

    def sort_key(self):
        return tuple(canon_key(g) for g in self.gaps)


def _pack(coords, width: int) -> int:
    """Nonnegative coordinates below 2^width as one int, one field each.

    Field i holds bits i*(width+1) to i*(width+1)+width-1, and the bit above
    it is the field's guard bit; packing 2^width in every field gives the
    mask H of all guard bits. For packed x and c, ((x | H) - c) & H == H
    exactly when x_i >= c_i for every i: setting a guard bit lends each field
    2^width, so no borrow crosses fields, and a field's guard bit survives
    the subtraction unless that field borrowed it.
    """
    out = 0
    for u in reversed(coords):
        out = out << (width + 1) | u
    return out


def make_csemigroup(cone: Cone, gaps) -> CSemigroup:
    """Validate a gap set and build the semigroup.

    Checks: every gap is a nonzero lattice point of the cone, and for every
    gap h each decomposition h = a + b into nonzero cone points has a or b
    among the gaps (the complement is closed under addition). The points a
    with h - a in the cone form h's lattice box: a coordinate box in scaled
    ray coordinates.

    The gaps are taken in canonical order, and each is stored as one bit in
    p rows: for each scaled coordinate, the row of the lattice points that
    share its other coordinates, at the point's index along that
    coordinate. On a sector a row's lattice points form one residue class
    mod det (see `Cone.residue_step`), and a point's index is its
    coordinate divided by det. The rows are complete for h when h is
    tested: a gap g != h in h's box has h - g a nonzero cone point, whose
    weight is positive, so g is lighter than h and was stored before it.

    h is tested along its longest axis: for each prefix q (the other
    coordinates) the free points of row q, read forward, meet the free
    points of row h - q, read backward, exactly where a and h - a are both
    members. Each box is charged to CONESEMI_CAPACITY, as `lattice_box`
    charges it, before any of its bits is stored. Only the canonically
    first failing gap has its lower set scanned in canonical order, so the
    witness in a NotClosed error is the canonically first offending
    decomposition (first h, then first a).
    """
    seen = set()
    normalized = []
    for g in gaps:
        g = tuple(int(c) for c in g)
        cone._check_dim(g)
        if is_zero(g):
            raise ZeroGap(f"{g} cannot be a gap")
        if not cone.contains(g):
            raise GapOutsideCone(f"{g} is not in the cone", point=list(g))
        if g not in seen:
            seen.add(g)
            normalized.append(g)
    normalized.sort(key=canon_key)
    d = cone.det
    # along axis i, the lattice points of the row at other coordinate w have
    # coordinate i in the class of w * steps[i] mod d (d is 1 on full cones)
    steps = (0,) * cone.p if cone.full else (cone.residue_step(0), cone.residue_step(1))
    rows = [{} for _ in steps]
    for h in normalized:
        charge_box(cone, h)
        sc = cone.scaled_coords(h)
        for i, row in enumerate(rows):
            key = sc[:i] + sc[i + 1:]
            row[key] = row.get(key, 0) | 1 << sc[i] // d
        i = sc.index(max(sc))
        if _splits_into_members(rows[i], sc[i], sc[:i] + sc[i + 1:], d, steps[i]):
            # a = 0 and a = h pair with the gap h, so a witness is nonzero
            for a in lower_set(cone, h):
                b = sub(h, a)
                if a not in seen and b not in seen:
                    raise NotClosed(h, a, b)
    return CSemigroup(cone=cone, gaps=tuple(normalized))


def _splits_into_members(row: dict, top: int, rest: tuple[int, ...], d: int, step: int) -> bool:
    """Whether the point h with scaled coordinate `top` along the rows of
    `row`, and `rest` for the others, is a + (h - a) with both free in the
    rows; see `make_csemigroup`.

    Each pair of prefixes (q, rest - q) is tried once, so the first
    coordinate of q runs to half its value. On a sector the two rows hold
    residues r and r', and index k of row q pairs with index
    (top - r - r') / d - k of row rest - q.
    """
    pairs = [((), ())]
    for i, c in enumerate(rest):
        pairs = [
            (q + (u,), q2 + (c - u,))
            for q, q2 in pairs
            for u in range(c // 2 + 1 if i == 0 else c + 1)
        ]
    for q, q2 in pairs:
        n = top
        if d > 1:
            n -= q[0] * step % d + q2[0] * step % d
            if n < 0:
                continue
            n //= d
        width = n + 1
        full = (1 << width) - 1
        free = ~row.get(q, 0) & full
        if free:
            free2 = ~row.get(q2, 0) & full
            if free2 and free & int(format(free2, f"0{width}b")[::-1], 2):
                return True
    return False


def msg_weight_bound(s: CSemigroup) -> int:
    """Weight cap of the certified search region for minimal generators."""
    return s._generator_region[1]
