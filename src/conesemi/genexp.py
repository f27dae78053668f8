"""Expand a finite generating set inside a 2D cone into its gap set.

The complement of the generated semigroup is computed exactly, with a
termination certificate instead of open-ended search. In scaled ray
coordinates (u, v), ray i is where the other coordinate is 0 and
n * r_i has i-th coordinate n * det:

  1. Per extremal ray, the generators lying on the ray must generate a
     cofinite numerical semigroup (scaled gcd 1). Its least element m_i
     and the depth K_i, which starts at its conductor (at least 1), size
     the box u < (K_1 + m_1) det, v < (K_2 + m_2) det.
  2. A member on the lattice line at distance 1 from ray i (the other
     coordinate 1) is a generator on that line shifted along r_i. With
     no such generator the line holds no member and the complement is
     infinite; with one, j times it lies on each line at distance j.
  3. The members in the box are the sums of generators in the box, since
     summands lie below their sum. They are one `Grid` mask: {0}, closed
     under each generator a in turn by shifts of 2^i * a while that stays
     in the box (`Grid.sums`).
  4. The band of box points with u >= K_1 det or v >= K_2 det certifies
     the rest: a cone point beyond the box, less m_1 r_1 while its u is
     past the box and m_2 r_2 while its v is, is a band point, and the
     m_i r_i are generators. So when the band holds no gap, the gaps are
     those of the box. Otherwise K_i doubles for each i with a gap at i-th
     coordinate >= K_i det, and the box is filled again. With both lines
     of step 2 holding members the gap set is finite, so the band clears
     at some depth; the box is charged per round.

Every step is a finite exact computation, so the result is the exact gap
set whenever it is finite, and a NotCofinite diagnosis with a witness line
otherwise.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import (
    ConeMismatch,
    NotCofinite,
    PointOutsideCone,
    UnsupportedDimension,
    ZeroPoint,
)
from .geom import (
    Cone,
    Grid,
    Record,
    _ceil_div,
    add,
    canon_key,
    charge,
    is_zero,
    json_field,
    json_points,
    scale,
)
# make_csemigroup is unused here but stays importable: the benchmark tracer
# replaces genexp.make_csemigroup along with the other modules' copies
from .semigroup import CSemigroup, NumericalSemigroup, make_csemigroup


class GeneratorInput(Record):
    """A 2D cone with a deduplicated set of nonzero generators inside it."""

    _fields = ("cone", "generators")

    def __init__(self, cone: Cone, generators):
        gens = json_points(generators, "generators")
        if cone.p != 2:
            raise UnsupportedDimension("generator expansion is implemented for 2D cones")
        for a in gens:
            if is_zero(a):
                raise ZeroPoint("0 is not a useful generator")
            if not cone._contains(a):
                raise PointOutsideCone(f"generator {a} is outside the cone", point=list(a))
        if not gens:
            raise ConeMismatch("at least one generator is required")
        self.__dict__.update(cone=cone, generators=tuple(sorted(set(gens), key=canon_key)))

    @classmethod
    def from_obj(cls, obj) -> "GeneratorInput":
        """Decode ``{"cone": ..., "generators": [[x, y], ...]}``."""
        cone = Cone.from_obj(json_field(obj, "cone"))
        return cls(cone, json_field(obj, "generators"))


class ExpandDecision(NamedTuple):
    """Outcome of the membership-closure decision for a generating set."""

    ok: bool
    genus: int | None = None
    reason: str | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj: dict = {"is_csemigroup": self.ok}
        if self.ok:
            obj["genus"] = self.genus
        else:
            obj["reason"] = self.reason
            obj["detail"] = self.detail
        return obj


def _far_gaps(grid: Grid, gaps: int, k: list[int]) -> list[bool]:
    """Per ray i, whether a gap of the mask has i-th scaled coordinate at
    least k[i] * det: whether one stays in the box when k[i] * r_i is
    subtracted, by a shift of its slot (see `Grid`)."""
    return [(gaps >> grid.slot(scale(c, r))) & grid.ones != 0
            for c, r in zip(k, grid.cone.rays)]


def expand(g: GeneratorInput) -> CSemigroup:
    """The semigroup generated by g, provided its gap set is finite.

    Raises ConeMismatch when a ray carries no generator, NotCofinite when
    the complement is provably infinite, CapacityExceeded when the box
    would outgrow CONESEMI_CAPACITY before its band clears.

    The result is built without a second validation. Its gaps are the box
    points that are no sum of generators, and the clear band proves every
    other cone point a sum, so the complement is exactly the monoid the
    generators span: closed under addition, and 0 (the empty sum) is no gap.
    """
    cone = g.cone
    d = cone.det
    k, m = [], []
    for i, r in enumerate(cone.rays):
        multiples = cone.ray_multiples(g.generators, i)
        if not multiples:
            raise ConeMismatch(
                f"no generator lies on extremal ray {r}", ray=list(r)
            )
        common = gcd(*multiples)
        if common != 1:
            raise NotCofinite(
                f"generators on ray {r} are multiples of {common}", ray=list(r)
            )
        k.append(max(NumericalSemigroup.from_generators(multiples).conductor, 1))
        m.append(min(multiples))

    # the box's lattice points; the name is the one this charge site had
    # when line sweeps did the work
    charge((k[0] + m[0]) * (k[1] + m[1]) * d, "the strip sweeps")
    for axis, ray in enumerate(cone.rays):
        # a member at distance 1 from the ray is a generator there shifted by
        # multiples of the ray, and j times that generator lies on line j
        if not any(cone._scaled_coords(a)[1 - axis] == 1 for a in g.generators):
            base = cone.unit_point(1 - axis)
            t = max(_ceil_div(-cone._scaled_coords(base)[axis], d), 0)
            witness = add(base, scale(t, ray))
            raise NotCofinite(
                f"no member on the lattice line through {witness} with "
                f"direction {ray}; the complement is infinite",
                line_point=list(witness),
                direction=list(ray),
            )
    while True:
        grid = Grid(cone, ((k[0] + m[0]) * d - 1, (k[1] + m[1]) * d - 1))
        gaps = grid.ones ^ grid.sums(g.generators)
        far = _far_gaps(grid, gaps, k)
        if not any(far):
            return CSemigroup(cone, tuple(grid.points(gaps)))
        k = [2 * c if f else c for c, f in zip(k, far)]
        charge((k[0] + m[0]) * (k[1] + m[1]) * d, "the strip sweeps")


def is_csemigroup(g: GeneratorInput) -> ExpandDecision:
    """Decide whether the generators span a cofinite subsemigroup of the cone."""
    try:
        s = expand(g)
    except NotCofinite as e:
        return ExpandDecision(False, reason="NotCofinite", detail=str(e))
    except ConeMismatch as e:
        return ExpandDecision(False, reason="ConeMismatch", detail=str(e))
    return ExpandDecision(True, genus=s.genus)
