"""Exact lattice geometry: points, pointed integer cones, orders, enumeration.

Points are plain tuples of Python ints (dimension 1..3). A cone is either
the full nonnegative orthant of its dimension or a two-dimensional sector
between two primitive integer rays. All arithmetic is exact; there is no
floating point anywhere in this module.

The canonical total order on lattice points is weight-graded lexicographic:
``key(x) = (weight(x), x)``. It is bookkeeping for deterministic output and
duplicate-free enumeration, nothing more.
"""

from __future__ import annotations

import itertools
import os
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

from .errors import CapacityExceeded, DimensionMismatch, InvalidInput

Point = tuple[int, ...]

DEFAULT_POINT_BUDGET = 10_000_000


def charge(points: int, what: str) -> None:
    """Refuse work that needs more than CONESEMI_CAPACITY points, before it runs.

    The one reader of CONESEMI_CAPACITY (default 10^7) and the one source of
    CapacityExceeded for the point budget. The message names the cap, never
    the charge, which can be too large to print.
    """
    raw = os.environ.get("CONESEMI_CAPACITY")
    cap = DEFAULT_POINT_BUDGET
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidInput(f"CONESEMI_CAPACITY must be an integer, got {raw!r}")
        if cap <= 0:
            raise InvalidInput("CONESEMI_CAPACITY must be positive")
    if points > cap:
        raise CapacityExceeded(
            f"{what} needs more than {cap} points; raise CONESEMI_CAPACITY to override"
        )


def weight(x: Point) -> int:
    """Coordinate sum of a lattice point."""
    return sum(x)


def add(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise DimensionMismatch(f"{x} and {y} have different dimensions")
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise DimensionMismatch(f"{x} and {y} have different dimensions")
    return tuple(a - b for a, b in zip(x, y))


def scale(k: int, x: Point) -> Point:
    return tuple(k * a for a in x)


def is_zero(x: Point) -> bool:
    return all(a == 0 for a in x)


def canon_key(x: Point) -> tuple[int, Point]:
    """Sort key for the canonical (weight-graded lexicographic) order."""
    return (weight(x), x)


def _cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g."""
    if b == 0:
        return (a, 1, 0)
    g, s, t = _ext_gcd(b, a % b)
    return (g, t, s - (a // b) * t)


def _primitive(r: Point) -> Point:
    g = gcd(r[0], r[1])
    return (r[0] // g, r[1] // g)


class Record:
    """Base of the immutable values a NamedTuple does not serve: those with
    a cached_property cache, a validating constructor or hot fields.

    A subclass names its fields in `_fields` and sets them in `__init__`
    through `__dict__`, where cached_property keeps its values too; they
    read faster than NamedTuple fields. Instances compare and hash by their
    fields, print like a NamedTuple, refuse attribute assignment, and
    pickle their `__dict__`, caches included.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RayCoords(NamedTuple):
    """Exact coordinates of a 2D point in the ray basis: x = alpha*r1 + beta*r2."""

    alpha: Fraction
    beta: Fraction


class Cone(Record):
    """A pointed integer cone: full orthant, or 2D sector between two rays.

    Invariants (established by the constructors, assumed everywhere else):
      * ``rays`` are primitive, nonzero, nonnegative integer vectors;
      * for sectors, rays are stored counterclockwise, so ``det > 0``;
      * the full orthant in dimension p has the standard basis as rays.

    Its fields are read on every coordinate computation, so they are
    slots, the fastest attributes to read; with no `__dict__` to restore,
    a cone pickles as its constructor call.
    """

    _fields = __slots__ = ("p", "rays", "full", "det")

    def __init__(self, p: int, rays: tuple[Point, ...], full: bool, det: int):
        for name, value in zip(self._fields, (p, rays, full, det)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return (Cone, self._values())

    @staticmethod
    def full_cone(p: int) -> "Cone":
        if p not in (1, 2, 3):
            raise DimensionMismatch(f"dimension must be 1, 2 or 3, got {p}")
        rays = tuple(tuple(1 if j == i else 0 for j in range(p)) for i in range(p))
        return Cone(p=p, rays=rays, full=True, det=1)

    @staticmethod
    def from_rays(r1, r2) -> "Cone":
        r1, r2 = tuple(r1), tuple(r2)
        if len(r1) != 2 or len(r2) != 2:
            raise DimensionMismatch("sector cones are two-dimensional")
        for r in (r1, r2):
            if any(c < 0 for c in r) or r == (0, 0):
                raise InvalidInput(f"ray {r} must be a nonzero vector of naturals")
        r1, r2 = _primitive(r1), _primitive(r2)
        d = _cross(r1, r2)
        if d == 0:
            raise InvalidInput(f"rays {r1}, {r2} are linearly dependent")
        if d < 0:
            r1, r2 = r2, r1
            d = -d
        if r1 == (1, 0) and r2 == (0, 1):
            return Cone.full_cone(2)
        return Cone(p=2, rays=(r1, r2), full=False, det=d)

    # -- membership and orders ------------------------------------------------

    def _check_dim(self, x: Point) -> None:
        if len(x) != self.p:
            raise DimensionMismatch(f"point {x} has dimension {len(x)}, cone has {self.p}")

    def scaled_coords(self, x: Point) -> tuple[int, ...]:
        """Per-ray coordinates scaled by det, as exact integers.

        x lies in the cone iff every scaled coordinate is >= 0.
        """
        self._check_dim(x)
        if self.full:
            return tuple(x)
        r1, r2 = self.rays
        return (_cross(x, r2), _cross(r1, x))

    def unit_point(self, i: int) -> Point:
        """A lattice point whose i-th scaled coordinate is 1 (2D only).

        That coordinate is a cross product with the other ray, which is
        primitive, so an extended gcd of that ray's coordinates solves it.
        """
        r1, r2 = self.rays
        if i == 0:
            _, s, t = _ext_gcd(r2[1], r2[0])
            return (s, -t)  # cross(x, r2) == 1
        _, s, t = _ext_gcd(r1[0], r1[1])
        return (-t, s)  # cross(r1, x) == 1

    def residue_step(self, i: int) -> int:
        """The c with every lattice point's i-th scaled coordinate congruent
        to c times its other one, mod det (2D only).

        The lattice points whose other scaled coordinate is w are w times
        `unit_point(1 - i)` plus multiples of ray i, whose i-th scaled
        coordinate is det.
        """
        return self.scaled_coords(self.unit_point(1 - i))[i]

    def contains(self, x: Point) -> bool:
        return all(c >= 0 for c in self.scaled_coords(x))

    def ray_coords(self, x: Point) -> RayCoords:
        """Solve x = alpha*r1 + beta*r2 exactly (2D only; signs unrestricted)."""
        from fractions import Fraction

        if self.p != 2:
            raise DimensionMismatch("ray coordinates are defined for 2D cones")
        u, v = self.scaled_coords(x)
        return RayCoords(Fraction(u, self.det), Fraction(v, self.det))

    def leq(self, x: Point, y: Point) -> bool:
        """Cone order: x <= y iff y - x lies in the cone."""
        self._check_dim(x)
        return self.contains(sub(y, x))

    def ray_multiples(self, points, i: int) -> list[int]:
        """The k with k * rays[i] among the points, in input order."""
        out = []
        for x in points:
            sc = self.scaled_coords(x)
            if all(c == 0 for j, c in enumerate(sc) if j != i):
                out.append(sc[i] // self.det)
        return out

    @property
    def normals(self) -> tuple[Point, ...]:
        """Inward normals of the supporting hyperplanes."""
        if self.full:
            return self.rays
        r1, r2 = self.rays
        return ((-r1[1], r1[0]), (r2[1], -r2[0]))

    # -- graded enumeration ---------------------------------------------------

    def _sector_xrange(self, t: int) -> tuple[int, int]:
        # On the level x+y = t the sector cuts x into [lo, hi].
        r1, r2 = self.rays
        w1, w2 = weight(r1), weight(r2)
        lo = _ceil_div(t * r2[0], w2)
        hi = _floor_div(t * r1[0], w1)
        return lo, hi

    def points_at_weight(self, t: int) -> list[Point]:
        """Lattice points of the cone on the level of weight t, lex order."""
        if t < 0:
            return []
        if self.p == 1:
            return [(t,)]
        if self.p == 3:
            return [(a, b, t - a - b) for a in range(t + 1) for b in range(t - a + 1)]
        if self.full:
            return [(a, t - a) for a in range(t + 1)]
        lo, hi = self._sector_xrange(t)
        return [(a, t - a) for a in range(lo, hi + 1)]

    def level_is_empty(self, t: int) -> bool:
        """Whether the cone has no lattice point of weight t."""
        if t < 0:
            return True
        if self.full or self.p != 2:
            return False
        lo, hi = self._sector_xrange(t)
        return lo > hi

    def empty_level_bound(self) -> int:
        """A level T such that every level >= T contains a cone lattice point.

        For a sector, the level line cuts the cone in a segment whose
        x-extent is t*|r1x*w2 - r2x*w1| / (w1*w2); once that reaches 1 the
        segment contains an integer point. Full orthants never miss a level.
        """
        if self.full or self.p != 2:
            return 0
        r1, r2 = self.rays
        w1, w2 = weight(r1), weight(r2)
        spread = abs(r1[0] * w2 - r2[0] * w1)  # nonzero: rays independent
        return _ceil_div(w1 * w2, spread)

    # -- serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        if self.full:
            return {"type": "full", "p": self.p}
        return {"type": "rays2d", "rays": [list(r) for r in self.rays]}

    @staticmethod
    def from_obj(obj) -> "Cone":
        """Decode ``{"type":"full","p":P}`` or ``{"type":"rays2d","rays":[R1,R2]}``,
        optionally wrapped in ``{"cone": ...}``."""
        if isinstance(obj, dict) and "cone" in obj:
            obj = obj["cone"]
        kind = json_field(obj, "type", "cone")
        if kind == "full":
            return Cone.full_cone(json_int(json_field(obj, "p", "cone"), "cone.p"))
        if kind == "rays2d":
            rays = json_points(json_field(obj, "rays", "cone"), "cone.rays")
            if len(rays) != 2:
                raise InvalidInput("rays2d cone takes exactly two rays", path="cone.rays")
            return Cone.from_rays(*rays)
        raise InvalidInput(f"unknown cone type {kind!r:.40}", path="cone.type")


# -- checked JSON readers --------------------------------------------------------
#
# Every object the program reads arrives as decoded JSON. These readers check
# one shape each and raise InvalidInput naming the JSON path of the offending
# value, such as ``cone.p`` or ``gaps[3][1]``.


def json_field(obj, key: str, path: str = ""):
    """obj[key], where obj (found at path) must be a JSON object holding key."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path or 'input'} must be a JSON object", path=path)
    if key not in obj:
        raise InvalidInput(f"missing field {where}", path=where)
    return obj[key]


def json_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InvalidInput(f"{path} must be a list, got {value!r:.40}", path=path)
    return value


def json_int(value, path: str) -> int:
    """A JSON integer; booleans, floats and numeric strings are refused."""
    if type(value) is not int:
        raise InvalidInput(f"{path} must be an integer, got {value!r:.40}", path=path)
    return value


def json_points(value, path: str) -> list[Point]:
    """A JSON list of integer points, as tuples."""
    points = []
    for i, x in enumerate(json_list(value, path)):
        coords = json_list(x, f"{path}[{i}]")
        points.append(tuple(json_int(c, f"{path}[{i}][{j}]") for j, c in enumerate(coords)))
    return points


def charge_box(cone: Cone, x: Point) -> None:
    """Charge the lattice box of x, as `lattice_box` scans it, to
    CONESEMI_CAPACITY."""
    if cone.full:
        size = 1
        for c in x:
            size *= c + 1
        charge(size, "the lower set")
        return
    d = cone.det
    uh, vh = cone.scaled_coords(x)
    # the lattice points with one scaled coordinate fixed have the other in
    # one residue class mod d, so either coordinate bounds the count; the
    # scan also steps through every u, listed or not
    points = min((uh + 1) * (vh // d + 1), (vh + 1) * (uh // d + 1))
    charge(max(uh + 1, points), "the lower-set scan")


def lattice_box(cone: Cone, x: Point) -> list[Point]:
    """Cone lattice points a with x - a also in the cone, for x in the cone.

    In scaled ray coordinates this is a coordinate box, listed in
    lexicographic box order, so the point i places from the end is x minus
    the point i places from the start. The box is charged to
    CONESEMI_CAPACITY before it is scanned.
    """
    charge_box(cone, x)
    if cone.full:
        return list(itertools.product(*(range(c + 1) for c in x)))
    d = cone.det
    r2 = cone.rays[1]
    uh, vh = cone.scaled_coords(x)
    # the lattice points with scaled ray-1 coordinate u are u * base + k * r2,
    # with scaled ray-2 coordinate u * c + k * d: one residue class of v
    base = cone.unit_point(0)
    c = cone.residue_step(1)
    pts = []
    for u in range(uh + 1):
        bx, by = u * base[0], u * base[1]
        pts.extend(
            (bx + k * r2[0], by + k * r2[1])
            for k in range(-(u * c // d), (vh - u * c) // d + 1)
        )
    return pts


def lower_set(cone: Cone, x: Point) -> list[Point]:
    """Cone lattice points a with x - a also in the cone, canonical order.

    In scaled ray coordinates this is a coordinate box, so the size is
    proportional to the output, not to a graded sweep of the whole cone.
    """
    x = tuple(x)
    cone._check_dim(x)
    if not cone.contains(x):
        return []
    return sorted(lattice_box(cone, x), key=canon_key)


def enumerate_cone_points(cone: Cone, max_weight: int) -> list[Point]:
    """All cone lattice points of weight <= max_weight in canonical order."""
    if max_weight < 0:
        raise InvalidInput("max_weight must be nonnegative")
    # the levels are walked even where a skinny sector leaves them empty
    charge(max_weight + 1, "the enumeration to the weight cap")
    out: list[Point] = []
    for t in range(max_weight + 1):
        level = cone.points_at_weight(t)
        charge(len(out) + len(level), "the enumeration to the weight cap")
        out.extend(level)
    return out
