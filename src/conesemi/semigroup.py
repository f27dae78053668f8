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

from functools import cached_property
from itertools import accumulate
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    EmptyGapSet,
    GapOutsideCone,
    InvalidInput,
    NotAMember,
    NotClosed,
    ZeroGap,
    ZeroShift,
)
# enumerate_cone_points is unused here but stays importable: the benchmark
# tracer replaces semigroup.enumerate_cone_points along with the other copies
from .geom import (
    Cone,
    Grid,
    Point,
    Record,
    add,
    canon_key,
    charge,
    enumerate_cone_points,
    is_zero,
    json_field,
    json_ints,
    json_points,
    lower_set,
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
        """Validate positive gaps with the closure check of `make_csemigroup`
        on the cone N, which charges the grid of the gaps' box to
        CONESEMI_CAPACITY."""
        normalized = sorted(set(json_ints(gaps, "gaps", ordered=False)))
        if normalized and normalized[0] < 1:
            raise ZeroGap("numerical semigroup gaps must be positive")
        make_csemigroup(Cone.full_cone(1), [(g,) for g in normalized])
        return cls(tuple(normalized))

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """Expand a coprime generating set; the gaps are the points of a
        grid on N below the Frobenius bound that are no sums of generators
        (`Grid.sums`), so they form a closed gap set without a separate
        closure check.
        """
        gens = sorted(set(json_ints(generators, "generators", ordered=False)))
        if not gens or gens[0] < 1:
            raise InvalidInput("generators must be positive integers")
        if gcd(*gens) != 1:
            raise InvalidInput(f"generators {gens} must have gcd 1")
        m = gens[0]
        # a_1 < ... < a_k with gcd 1 have a Frobenius number below a_1 * a_k,
        # and more generators only lower it: a large redundant one costs nothing
        last = next(a for a, c in zip(gens, accumulate(gens, gcd)) if c == 1)
        bound = m * last
        charge(bound, "the reachability table")
        grid = Grid(Cone.full_cone(1), (bound - 1,))
        sums = grid.sums((a,) for a in gens)
        return cls(tuple(k for k, in grid.points(grid.ones ^ sums)))

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
        pf = CSemigroup(Cone.full_cone(1), tuple((g,) for g in self.gaps)).pseudo_frobenius()
        return tuple(a for (a,) in pf)

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
    """Cone with a canonically sorted gap tuple.

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
        return self._member(json_ints(x, "x"))

    def _member(self, x: Point) -> bool:
        """`member` for a point already read by `json_ints`."""
        return self.cone._contains(x) and x not in self.gap_set

    def induced_leq(self, x, y) -> bool:
        """Induced order: x <= y iff y - x belongs to the semigroup."""
        return self._member(sub(json_ints(y, "y"), json_ints(x, "x")))

    # -- generators ------------------------------------------------------------

    @cached_property
    def _generator_region(self) -> tuple[tuple[int, ...], int]:
        """Scaled per-ray bounds containing every minimal generator, and a
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
            hmax = max((cone._scaled_coords(h)[i] for h in self.gaps), default=0)
            bounds.append(hmax + step * d)
        cap = sum(u * weight(r) for u, r in zip(bounds, cone.rays)) // d
        return tuple(bounds), cap

    @cached_property
    def minimal_generators(self) -> tuple[Point, ...]:
        """The unique minimal generating set: minimal nonzero elements under
        the induced order, i.e. the members with no two-member decomposition.

        They are the atoms (see `Grid.split`) of the nonzero members of the
        grid of the certified region's box: the summands of a decomposition
        of a box point lie in its box, so in the region.
        """
        grid = Grid(self.cone, self._generator_region[0])
        atoms, _ = grid.split(grid.ones ^ grid.mask(self.gaps) ^ 1)
        return tuple(sorted(map(grid.point, atoms), key=canon_key))

    @cached_property
    def embedding_dimension(self) -> int:
        """e, the number of minimal generators."""
        return len(self.minimal_generators)

    # -- gap-side invariants -----------------------------------------------------

    def frobenius_set(self, order: str = "cone") -> tuple[Point, ...]:
        """Maximal gaps under the cone order (default) or the induced order;
        the induced-maximal gaps are the pseudo-Frobenius set.

        Both run on the grid of the gaps' box (`gap_grid`), which holds every
        gap above a gap. In the induced order a gap h lies below another
        exactly when h + a is a gap for an atom a of the nonzero members below
        a gap. For if h + s is a gap for a nonzero member s, then s lies
        below that gap, so s = a + r for such an atom a and a member r, and
        h + a is a gap, or h + s = (h + a) + r would be a member. In the cone
        order h lies below a gap exactly when h + b lies below a gap for a
        cone atom b of the box (`Grid.below`). Either way h is maximal unless
        its bit is in one shift of the mask above it.
        """
        if order not in ("cone", "induced"):
            raise InvalidInput(f"order must be 'cone' or 'induced', got {order!r}")
        grid, gaps, down = gap_grid(self.cone, self.gaps)
        if order == "cone":
            above, steps = down, grid.cone_atoms
        else:
            # the nonzero members below a gap
            above, steps = gaps, grid.split((down ^ gaps) & ~1)[0]
        covered = 0
        for j in steps:
            covered |= above >> j
        return tuple(grid.points(gaps & ~covered))

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
        b = json_ints(b, "b")
        self.cone._check_dim(b)
        if is_zero(b):
            raise ZeroShift("Apery shift must be nonzero")
        if not self._member(b):
            raise NotAMember(f"{b} is not in the semigroup", point=list(b))
        shifted = (add(h, b) for h in self.gaps)
        return tuple(sorted((a for a in shifted if a not in self.gap_set), key=canon_key))

    def frobenius_elements(self) -> tuple[Point, ...]:
        """Gaps that a strictly positive weight vector separates from all other
        gaps; equivalently the possible gap maxima over all term orders.

        Feasibility of the open system {a > 0, (f-h).a > 0 for all h} is
        decided exactly by Fourier-Motzkin elimination. Only the Frobenius set
        (the cone-maximal gaps) gives candidates and rows: a gap f below a
        gap h fails, since a.(h-f) > 0 for every a > 0, and the row f - h for
        h below a maximal h' follows from f - h' and a.(h' - h) >= 0.
        """
        from .fme import feasible_strict

        if not self.gaps:
            raise EmptyGapSet("the gap-free semigroup has no Frobenius elements")
        p = self.cone.p
        units = [tuple(1 if j == i else 0 for j in range(p)) for i in range(p)]
        maximal = self.frobenius_set()
        out = []
        for f in maximal:
            rows = [sub(f, h) for h in maximal if h != f]
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
        # the gaps are closed, so are those on a ray: no closure check
        return NumericalSemigroup(tuple(sorted(self.cone.ray_multiples(self.gaps, i))))

    # -- serialization ----------------------------------------------------------------

    def to_obj(self) -> dict:
        return {"cone": self.cone.to_obj(), "gaps": [list(g) for g in self.gaps]}

    @staticmethod
    def from_obj(obj) -> "CSemigroup":
        """Decode and validate ``{"cone": ..., "gaps": [[x, y], ...]}``."""
        cone = Cone.from_obj(json_field(obj, "cone"))
        return make_csemigroup(cone, json_field(obj, "gaps"))

    def sort_key(self):
        return tuple(canon_key(g) for g in self.gaps)


def gap_grid(cone: Cone, gaps) -> tuple[Grid, int, int]:
    """The grid of the box of these cone points, whose scaled coordinates
    bound theirs (the box of 0 alone if there are none), the mask of the
    points on it and the mask of the box points below them (`Grid.below`).
    The grid is charged to CONESEMI_CAPACITY."""
    scaled = [cone._scaled_coords(h) for h in gaps] or [(0,) * cone.p]
    grid = Grid(cone, tuple(map(max, zip(*scaled))))
    mask = grid.mask(gaps)
    return grid, mask, grid.below(mask)


def make_csemigroup(cone: Cone, gaps) -> CSemigroup:
    """Validate a gap set and build the semigroup.

    Checks: every gap is a nonzero lattice point of the cone, and for every
    gap h each decomposition h = a + b into nonzero cone points has a or b
    among the gaps (the complement is closed under addition). The points a
    with h - a in the cone form h's lattice box: a coordinate box in scaled
    ray coordinates.

    The check runs on the grid of the gaps' box (`gap_grid`), which holds
    each gap's box: the set is closed exactly when no gap is among the sums
    of `Grid.split` on M, the nonzero members below a gap (`Grid.below`).
    Take the canonically first gap h = a + b with a, b nonzero members;
    both lie below h, so in M. If a is not an atom of M, a = a' + m with
    a' an atom and m in M; then m + b is below h, lighter, and a sum of two
    members, so a member, in M, and h = a' + (m + b) is a sum. Conversely
    every sum of an atom and a point of M splits into two members.
    So the canonically first gap among the sums is the canonically first
    offending gap, and only its lower set is scanned in canonical order:
    the witness in a NotClosed error is the canonically first offending
    decomposition (first h, then first a). A set with no gap builds no grid.
    """
    points = json_points(gaps, "gaps")
    for g in points:
        cone._check_dim(g)
        if is_zero(g):
            raise ZeroGap(f"{g} cannot be a gap")
        if not cone._contains(g):
            raise GapOutsideCone(f"{g} is not in the cone", point=list(g))
    seen = set(points)
    normalized = sorted(seen, key=canon_key)
    if normalized:
        grid, holes, down = gap_grid(cone, normalized)
        _, hits = grid.split((down ^ holes) & ~1, holes)
        if hits:
            h = grid.points(hits)[0]
            # a = 0 and a = h pair with the gap h, so a witness is nonzero
            for a in lower_set(cone, h):
                b = sub(h, a)
                if a not in seen and b not in seen:
                    raise NotClosed(h, a, b)
    return CSemigroup(cone=cone, gaps=tuple(normalized))


def msg_weight_bound(s: CSemigroup) -> int:
    """Weight cap of the certified search region for minimal generators."""
    return s._generator_region[1]
