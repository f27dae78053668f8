"""Families of C-semigroups built to order.

Two constructions:

  * lower-set removals: delete the union of cone-order lower sets of a
    finite point set. The complement is closed (y below a removed point
    keeps everything below y removed too), and a pairwise-incomparable
    input set comes back as exactly the Frobenius set, which makes the
    quasi-elasticity freely tunable.

  * idemaxial semigroups over a 2D cone: membership depends only on the
    ray-coordinate level l(x) = alpha + beta. With a pattern numerical
    semigroup N, members are the points with l(x) in N or l(x) beyond the
    Frobenius number of N; both ray restrictions then reproduce N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegeneratePattern,
    InvalidInput,
    PointOutsideCone,
    UnsupportedDimension,
    ZeroPoint,
)
# lower_set is unused here but stays importable: the benchmark tracer
# replaces construct's copy along with the other modules'
from .geom import (
    Cone,
    Point,
    Record,
    add,
    charge,
    enumerate_cone_points,
    is_zero,
    json_ints,
    json_points,
    lower_set,
    scale,
    weight,
)
from .semigroup import CSemigroup, NumericalSemigroup, gap_grid, make_csemigroup


def lower_set_semigroup(cone: Cone, points) -> CSemigroup:
    """Remove the cone-order lower sets of the given nonzero points.

    Always yields a valid semigroup; when the points are pairwise
    incomparable they are exactly the Frobenius set of the result.

    The gaps are the nonzero points below them (`gap_grid`), which need no
    closure check: both summands of a sum below a point lie below it too.
    """
    points = json_points(points, "points")
    for f in points:
        if is_zero(f):
            raise ZeroPoint("cannot remove the lower set of the origin")
        if not cone._contains(f):
            raise PointOutsideCone(f"{f} is not in the cone", point=list(f))
    grid, _, down = gap_grid(cone, points)
    # the grid is charged in words, the gaps listed from it one tuple each
    charge((down & ~1).bit_count(), "the lower set")
    return CSemigroup(cone, tuple(grid.points(down & ~1)))


def high_elasticity(cone: Cone, target) -> CSemigroup:
    """A semigroup whose quasi-elasticity exceeds the target ratio.

    Removes the lower sets of f1 = r1 + r2 and of the first ray multiple
    whose weight pushes the ratio past the target; the two are incomparable,
    so the Frobenius weights are exactly weight(f2) / weight(f1) apart.
    """
    if cone.p != 2:
        raise UnsupportedDimension("the elasticity construction is two-dimensional")
    ratio = Fraction(target)
    if ratio < 1:
        raise InvalidInput("target quasi-elasticity must be at least 1")
    r1, r2 = cone.rays
    f1 = add(r1, r2)
    n = (ratio * weight(f1) / weight(r1)).__floor__() + 1
    n = max(n, 2)
    f2 = scale(n, r1)
    return lower_set_semigroup(cone, [f1, f2])


class IdemaxialSpec(Record):
    """A 2D cone with the common pattern of both ray restrictions."""

    _fields = ("cone", "pattern")

    def __init__(self, cone: Cone, pattern: NumericalSemigroup):
        if cone.p != 2:
            raise UnsupportedDimension("idemaxial semigroups are built over 2D cones")
        self.__dict__.update(cone=cone, pattern=pattern)

    def level(self, x) -> Fraction:
        """Ray-coordinate level alpha + beta of a lattice point."""
        return self._level(json_ints(x, "x"))

    def _level(self, x: Point) -> Fraction:
        """`level` for a point already read by `json_ints`."""
        u, v = self.cone._scaled_coords(x)
        return Fraction(u + v, self.cone.det)

    def level_in_pattern(self, lvl: Fraction) -> bool:
        return lvl.denominator == 1 and lvl.numerator in self.pattern


def idemaxial(spec: IdemaxialSpec) -> CSemigroup:
    """Members are the points whose level lies in the pattern or beyond its
    Frobenius number; everything else below that line is a gap (including
    points at fractional levels)."""
    pattern = spec.pattern
    if pattern.genus == 0:
        return make_csemigroup(spec.cone, [])
    frob = pattern.frobenius
    cap = frob * max(weight(r) for r in spec.cone.rays)
    gaps = []
    for x in enumerate_cone_points(spec.cone, cap):
        if is_zero(x):
            continue
        lvl = spec._level(x)
        if lvl <= frob and not spec.level_in_pattern(lvl):
            gaps.append(x)
    return make_csemigroup(spec.cone, gaps)


def frobenius_band(spec: IdemaxialSpec) -> tuple[Fraction, Fraction]:
    """Level band [conductor - multiplicity, conductor] of the pattern; the
    Frobenius set of the idemaxial semigroup lives between these levels."""
    pattern = spec.pattern
    if pattern.genus == 0:
        raise DegeneratePattern("band undefined for the full pattern")
    c = pattern.conductor
    return (Fraction(c - pattern.multiplicity), Fraction(c))


class LevelStatus(NamedTuple):
    """Containment of one gap-level line of the pattern in the PF set."""

    level: int
    is_pf_level: bool
    is_frobenius_level: bool
    contained: bool
    counterexample: tuple[Point, Point, Point] | None

    def to_obj(self) -> dict:
        obj = {
            "level": self.level,
            "pf_level": self.is_pf_level,
            "frobenius_level": self.is_frobenius_level,
            "contained": self.contained,
        }
        if self.counterexample is not None:
            x, m, bad = self.counterexample
            obj["counterexample"] = {
                "gap": list(x),
                "generator": list(m),
                "sum_is_gap": list(bad),
            }
        return obj


class PfLinesReport(NamedTuple):
    """Empirical status of 'pattern level lines sit inside PF' per level."""

    pattern_gaps: tuple[int, ...]
    pattern_pf: tuple[int, ...]
    levels: tuple[LevelStatus, ...]
    pf_levels_contained: bool
    frobenius_level_contained: bool | None

    def to_obj(self) -> dict:
        return {
            "pattern_gaps": list(self.pattern_gaps),
            "pattern_pf": list(self.pattern_pf),
            "levels": [lv.to_obj() for lv in self.levels],
            "pf_levels_contained": self.pf_levels_contained,
            "frobenius_level_contained": self.frobenius_level_contained,
        }


def pf_lines_check(spec: IdemaxialSpec) -> PfLinesReport:
    """Check, per gap level of the pattern, whether the whole lattice line at
    that level lands in the pseudo-Frobenius set of the idemaxial semigroup.

    Lines at pseudo-Frobenius levels of the pattern always pass (adding any
    nonzero level of the pattern lands back in it or beyond the Frobenius
    line); lines at other gap levels usually fail, and the first failing
    point is reported with a generator witnessing it.
    """
    pattern = spec.pattern
    if pattern.genus == 0:
        return PfLinesReport((), (), (), True, None)
    s = idemaxial(spec)
    pf_points = frozenset(s.pseudo_frobenius())
    msg = s.minimal_generators
    pf_levels = set(pattern.pseudo_frobenius())
    statuses = []
    for t in pattern.gaps:
        line = [x for x in s.gaps if spec._level(x) == t]
        counterexample = None
        for x in line:
            if x not in pf_points:
                m = next(m for m in msg if add(x, m) in s.gap_set)
                counterexample = (x, m, add(x, m))
                break
        statuses.append(
            LevelStatus(
                level=t,
                is_pf_level=t in pf_levels,
                is_frobenius_level=t == pattern.frobenius,
                contained=counterexample is None,
                counterexample=counterexample,
            )
        )
    frob_status = next(st for st in statuses if st.is_frobenius_level)
    return PfLinesReport(
        pattern_gaps=pattern.gaps,
        pattern_pf=tuple(sorted(pf_levels)),
        levels=tuple(statuses),
        pf_levels_contained=all(st.contained for st in statuses if st.is_pf_level),
        frobenius_level_contained=frob_status.contained,
    )
