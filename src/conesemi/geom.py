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
import re
from collections.abc import Set as AbstractSet
from functools import cached_property
from math import gcd, prod
from operator import index
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

from .errors import CapacityExceeded, DimensionMismatch, InvalidInput

Point = tuple[int, ...]

DEFAULT_POINT_BUDGET = 10_000_000


def capacity() -> int:
    """CONESEMI_CAPACITY as a positive int (default 10^7): the one reader of
    the point budget's cap."""
    raw = os.environ.get("CONESEMI_CAPACITY")
    if raw is None:
        return DEFAULT_POINT_BUDGET
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidInput(f"CONESEMI_CAPACITY must be an integer, got {raw!r}")
    if cap <= 0:
        raise InvalidInput("CONESEMI_CAPACITY must be positive")
    return cap


def charge(points: int, what: str, cap: int | None = None) -> None:
    """Refuse work that needs more than CONESEMI_CAPACITY points, before it runs.

    The one source of CapacityExceeded for the point budget. A caller that
    charges many times, as a tree walk does, reads `capacity()` once and
    passes it as cap; otherwise each charge reads it. The message names the
    cap, never the charge, which can be too large to print.
    """
    if cap is None:
        cap = capacity()
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
        r1, r2 = json_ints(r1, "r1"), json_ints(r2, "r2")
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

    def scaled_coords(self, x) -> tuple[int, ...]:
        """Per-ray coordinates scaled by det, as exact integers.

        x lies in the cone iff every scaled coordinate is >= 0.
        """
        return self._scaled_coords(json_ints(x, "x"))

    def _scaled_coords(self, x: Point) -> tuple[int, ...]:
        """`scaled_coords` for a point already read by `json_ints`."""
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
        return self._scaled_coords(self.unit_point(1 - i))[i]

    def contains(self, x) -> bool:
        return self._contains(json_ints(x, "x"))

    def _contains(self, x: Point) -> bool:
        """`contains` for a point already read by `json_ints`."""
        return all(c >= 0 for c in self._scaled_coords(x))

    def ray_coords(self, x) -> RayCoords:
        """Solve x = alpha*r1 + beta*r2 exactly (2D only; signs unrestricted)."""
        from fractions import Fraction

        if self.p != 2:
            raise DimensionMismatch("ray coordinates are defined for 2D cones")
        u, v = self.scaled_coords(x)
        return RayCoords(Fraction(u, self.det), Fraction(v, self.det))

    def leq(self, x, y) -> bool:
        """Cone order: x <= y iff y - x lies in the cone."""
        x, y = json_ints(x, "x"), json_ints(y, "y")
        self._check_dim(x)
        return self._contains(sub(y, x))

    def ray_multiples(self, points, i: int) -> list[int]:
        """The k with k * rays[i] among the points, in input order."""
        out = []
        for x in json_points(points, "points"):
            sc = self._scaled_coords(x)
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
        hi = t * r1[0] // w1
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


# -- checked readers -------------------------------------------------------------
#
# Every point and integer list the library takes, from decoded JSON or from
# Python, is read here. Each reader checks one shape and raises InvalidInput
# naming the path of the offending value, such as ``cone.p`` or ``gaps[3][1]``.


def json_field(obj, key: str, path: str = ""):
    """obj[key], where obj (found at path) must be a JSON object holding key."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path or 'input'} must be a JSON object", path=path)
    if key not in obj:
        raise InvalidInput(f"missing field {where}", path=where)
    return obj[key]


def json_list(value, path: str, ordered: bool = False) -> list:
    """A JSON list, or a Python iterable but a str, bytes, dict or (if ordered) set."""
    if type(value) is list:
        return value
    if (isinstance(value, (str, bytes, dict)) or not hasattr(value, "__iter__")
            or ordered and isinstance(value, AbstractSet)):
        raise InvalidInput(f"{path} must be a list, got {value!r:.40}", path=path)
    return list(value)


def json_int(value, path: str) -> int:
    """An integer: a JSON one, or a Python value other than a bool whose type
    has `__index__`. Booleans, floats, fractions and numeric strings are refused."""
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise InvalidInput(f"{path} must be an integer, got {value!r:.40}", path=path)
    return index(value)


def json_ints(value, path: str, ordered: bool = True) -> tuple[int, ...]:
    """A point's coordinates, in order, or (not ordered) any list of integers, as a tuple."""
    return tuple([c if type(c) is int else json_int(c, f"{path}[{j}]")
                  for j, c in enumerate(json_list(value, path, ordered))])


def json_points(value, path: str) -> list[Point]:
    """A list of integer points, as tuples (see `json_ints`), all read before
    the caller validates any; an error names the first bad value."""
    value = json_list(value, path)
    # lists or tuples of ints, the common case: two passes, 5x faster than one per point
    if {*map(type, value)} <= {list, tuple}:
        points = [*map(tuple, value)]
        if {*map(type, itertools.chain.from_iterable(points))} <= {int}:
            return points
    return [json_ints(x, f"{path}[{i}]") for i, x in enumerate(value)]


def lattice_box(cone: Cone, x: Point) -> list[Point]:
    """Cone lattice points a with x - a also in the cone, for x in the cone.

    In scaled ray coordinates this is a coordinate box, listed in
    lexicographic box order, so the point i places from the end is x minus
    the point i places from the start. The box is charged to
    CONESEMI_CAPACITY before it is scanned.
    """
    if cone.full:
        charge(prod(c + 1 for c in x), "the lower set")
        return list(itertools.product(*(range(c + 1) for c in x)))
    d = cone.det
    r2 = cone.rays[1]
    uh, vh = cone._scaled_coords(x)
    # the lattice points with one scaled coordinate fixed have the other in
    # one residue class mod d, so either coordinate bounds the count; the
    # scan also steps through every u, listed or not
    points = min((uh + 1) * (vh // d + 1), (vh + 1) * (uh // d + 1))
    charge(max(uh + 1, points), "the lower-set scan")
    # the points of row u are those of Basis with 0 <= k * d - u * lean <= vh
    _, (bx, by), lean = Basis.of(cone)
    return [(u * bx + k * r2[0], u * by + k * r2[1]) for u in range(uh + 1)
            for k in range(-(-u * lean // d), (vh + u * lean) // d + 1)]


class Basis(NamedTuple):
    """The index of cone lattice points that `Layout` and `Grid` share.

    On N^p a point is its own index. On a sector a point is u * base + k * r2:
    u is its first scaled coordinate, and base is `unit_point(0)` moved along
    r2 until its second scaled coordinate is -lean with 0 <= lean < det. The
    second scaled coordinate of (u, k) is then k * det - u * lean, so a cone
    point has k >= ceil(u * lean / det) >= 0.
    """

    cone: Cone
    base: Point
    lean: int

    @staticmethod
    def of(cone: Cone) -> "Basis":
        if cone.full:
            return Basis(cone, (), 0)
        d, r2 = cone.det, cone.rays[1]
        base = cone.unit_point(0)
        c = cone.residue_step(1)  # the second scaled coordinate of base
        q = -(-c // d)
        return Basis(cone, (base[0] - q * r2[0], base[1] - q * r2[1]), q * d - c)

    def index(self, x: Point) -> tuple:
        """The index of the cone point x."""
        cone = self.cone
        if cone.full:
            return tuple(x)
        u, v = cone._scaled_coords(x)
        return (u, (v + u * self.lean) // cone.det)

    def point(self, i: tuple) -> Point:
        """The point of the index i."""
        if self.cone.full:
            return i
        (u, k), (bx, by), (rx, ry) = i, self.base, self.cone.rays[1]
        return (u * bx + k * rx, u * by + k * ry)


GRID = "the lattice grid"


class Grid:
    """The cone lattice points whose scaled coordinates are at most `bounds`,
    the box, one bit each of one `int`.

    Slots. An index i (see `Basis`) maps to the slot sum(i[t] * strides[t]):
    the last stride is 1, and each other is twice the indexes a box row
    spans along the coordinates after it. On N^p that is twice their extent.
    On a sector row u spans the k with 0 <= k * det - u * lean <= V, the
    second bound, at most V // det + 1 of them, so the rows follow the
    sector however far it leans; det * slot = u * (strides[0] * det + lean)
    + v for v the second scaled coordinate, and strides[0] * det > 2V.
    Either way a sum or difference of two box points has the slot of a box
    point only if it is that point, so a shift by the slot of a point a takes
    each box point y to y + a (`<<`) or y - a (`>>`), and `& ones` keeps
    those in the box. A nonzero cone point has a positive slot; 0 has 0.

    The grid is charged to CONESEMI_CAPACITY in 64-bit words, or in rows
    where those are more, before it is built.
    """

    def __init__(self, cone: Cone, bounds: tuple[int, ...]):
        self.cone, self.bounds = cone, bounds
        self.basis = Basis.of(cone)
        # a full cone has lean 0 and det 1: its index is the point
        d, lean, last = cone.det, self.basis.lean, bounds[-1]
        extents = [b + 1 for b in bounds[:-1]] + [last // d + 1]  # of a row
        self.strides = strides = [1]
        for e in reversed(extents[1:]):
            strides.insert(0, 2 * e * strides[0])
        # the slot of the last index of the last row
        top = sum((e - 1) * s for e, s in zip(extents, strides[:-1]))
        top += (last + bounds[0] * lean) // d
        self.nbytes = top // 8 + 1
        # a row for each index of the coordinates before the last
        charge(max(top // 64 + 1, prod(extents[:-1])), GRID)
        out = bytearray(self.nbytes)
        for head in itertools.product(*map(range, extents[:-1])):
            # on a sector, row u holds the k with 0 <= k * d - u * lean <= last
            w = sum(head) * lean
            lo, hi = -(-w // d), (last + w) // d
            if lo <= hi:
                # rows come in slot order, so only a row's first byte can
                # hold bits of the row before it
                start = self.index_slot(head + (lo,))
                run = ((1 << hi - lo + 1) - 1) << (start & 7)
                chunk = run.to_bytes((run.bit_length() + 7) // 8, "little")
                i = start >> 3
                out[i] |= chunk[0]
                out[i + 1:i + len(chunk)] = chunk[1:]
        self.ones = int.from_bytes(out, "little")

    def index_slot(self, i: tuple) -> int:
        """The slot of the index i."""
        return sum(map(int.__mul__, i, self.strides))

    def slot(self, x: Point) -> int:
        """The slot of the box point x."""
        return self.index_slot(self.basis.index(x))

    def point(self, j: int) -> Point:
        """The box point at slot j."""
        d, lean, (first, *rest) = self.cone.det, self.basis.lean, self.strides
        # det * j = u * (first * det + lean) + v, with 0 <= v < first * det
        u = j * d // (first * d + lean)
        i, j = [u], j - u * first
        for s in rest:
            c, j = divmod(j, s)
            i.append(c)
        return self.basis.point(tuple(i))

    def mask(self, points) -> int:
        """1 at the slot of each of these box points."""
        out = bytearray(self.nbytes)
        for x in points:
            j = self.slot(x)
            out[j >> 3] |= 1 << (j & 7)
        return int.from_bytes(out, "little")

    def points(self, mask: int) -> list[Point]:
        """The box points of a mask, in canonical order."""
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        # the 1s of each nonzero byte, lowest bit first
        slots = (8 * m.start() + b for m in re.finditer(rb"[^\0]", data)
                 for b in range(8) if m[0][0] >> b & 1)
        return sorted(map(self.point, slots), key=canon_key)

    def split(self, members: int, holes: int = 0) -> tuple[list[int], int]:
        """(atoms, hits) for a mask M of nonzero box points: the atoms are the
        slots of the points of M that are no sum a + m of an atom a and m in
        M, lowest first, and hits masks the points of holes that are sums.

        A sum lies above both summands in slot order, so the lowest point of
        M not yet among the sums is an atom. The loop keeps only the bits
        above the last atom j, shifted down by j + 1, where the sums of the
        next atom j + 1 + k are M >> 1 once shifted down by k + 1 more. When
        M is closed under the sums of its points in the box, as the nonzero
        members of a semigroup are, the atoms are the points of M that are no
        sum of two: if x = a + b with a not an atom, a = a' + m, x = a' + (m + b).
        """
        atoms, j, hits = [], -1, 0
        rest, sums = members, members >> 1
        while rest:
            k = (rest & -rest).bit_length()
            j += k
            atoms.append(j)
            rest >>= k
            rest ^= rest & sums
            if holes:
                holes >>= k
                if hit := holes & sums:
                    hits |= hit << j + 1
        return atoms, hits

    @cached_property
    def cone_atoms(self) -> list[int]:
        """The slots of the nonzero box points that are no sum of two such
        points (see `split`): every nonzero box point is a sum of these."""
        return self.split(self.ones ^ 1)[0]

    def doublings(self, x: Point):
        """The slots of x, 2x, 4x, ... while they lie in the box.

        Shifting a mask by each in turn, each shift after the ones before it,
        adds (`<<`) or subtracts (`>>`) k * x for every k < 2^(i + 1) after
        the i-th. Once 2^i * x leaves the box no box point lies above it,
        and the shift would no longer be one to one (see the class
        docstring) but land on box bits.
        """
        j, scaled = self.slot(x), self.cone._scaled_coords(x)
        while all(map(int.__le__, scaled, self.bounds)):
            yield j
            j, scaled = 2 * j, [2 * c for c in scaled]

    def below(self, mask: int) -> int:
        """The box points below some point of the mask in the cone order:
        the mask closed under subtracting each cone atom as often as the
        box allows (see `doublings`)."""
        ones, down = self.ones, mask
        for j in self.cone_atoms:
            for step in self.doublings(self.point(j)):
                down |= (down >> step) & ones
        return down


LAYOUT = "the lattice layout"


class Layout:
    """The cone lattice points that a genus-tree walk to genus g_max reads,
    packed into one `int`: one field of `width` bits per point.

    Bound. A minimal generator x of a semigroup of genus g has
    |box(x)| <= 2g + 2, where box(x) is x's lattice box (`lattice_box`).
    The points of box(x) other than 0 and x pair off as {a, x - a}, into
    ceil((|box(x)| - 2) / 2) disjoint pairs. Each pair holds a gap, or x
    would split into two members, so there are at most g pairs. The layout
    holds P, the points with |box| <= size = 2 g_max + 2, and no others:
    so it holds every minimal generator of every semigroup up to genus
    g_max, and with each of its points that point's whole box.

    Index. A point's index is that of `Basis`. On N^p it is the point,
    and |box(x)| = prod(x_i + 1) is at least x_i + 1, so P lies in the cube
    0..size - 1, on at most size^(p - 1) lines of at most size points. On
    a sector it is (u, k), and a cone point has k >= lo(u) =
    ceil(u * lean / det) >= 0; counting box(u, k) row by row gives
        |box(u, k)| = (u + 1)(k + 1) - 2 * sum_{j <= u} lo(j),
    which grows by u + 1 >= 1 with each step of k: P holds at most size
    points of a row, lo(u) <= k < lo(u) + size. A box holds
    floor(U / det) + floor(V / det) + 1 ray multiples, for scaled
    coordinates U and V, so P lies in the rows u < size * det, which are
    scanned once, each in closed form.

    Slots. The points of P take the slots 0..|P| - 1 in lexicographic
    order of their indexes, and slot j is the field at bit width * j. The
    index is additive, and that of a nonzero cone point m is
    lexicographically positive (on a sector k > 0 where u = 0), so for y
    and y + m in P, y + m comes after y: a move by m takes the field of
    each such y up by d = slot(y + m) - slot(y) > 0 slots, one `<<` of a
    masked `int` for each distinct d (see `move`).

    Counts. `counts` holds, for each point x of P, the number of ordered
    pairs of nonzero members of the gap-free semigroup that sum to x:
    |box(x)| - 2, at most 2 g_max. Both points of each pair lie in box(x),
    so in P: removing a member m takes exactly the pairs (m, y) and (y, m)
    from each point m + y of P (one pair from 2m), and every count stays
    exact through any number of removals. A field is `width` =
    (2 g_max + 1).bit_length() + 1 bits wide; its top bit is a guard (see
    `zeros`).

    The layout is charged to CONESEMI_CAPACITY by its lines or rows before
    P is listed, in 64-bit words before it is packed, and each mask in
    words when it is built (see `charge` for cap). Nothing is computed at
    import.
    """

    def __init__(self, cone: Cone, g_max: int, cap: int | None = None):
        if cap is None:
            cap = capacity()
        self.cone, self.g_max = cone, g_max
        self.basis = Basis.of(cone)
        size = 2 * g_max + 2  # the largest box of a point of P
        self.width = width = (size - 1).bit_length() + 1
        self.top = width - 1  # the guard bit of each field
        # (head, lo, hi, a, c): the indexes head + (k,) for lo <= k <= hi,
        # whose boxes hold a * (k + 1) + c points, in index order
        if cone.full:
            charge(size ** (cone.p - 1), LAYOUT, cap)
            heads = [((), 1)]  # (index, |box|)
            for _ in range(cone.p - 1):
                heads = [(x + (i,), b * (i + 1)) for x, b in heads for i in range(size // b)]
            rows = [(x, 0, size // b - 1, b, 0) for x, b in heads]
        else:
            d, lean = cone.det, self.basis.lean
            charge(size * d, LAYOUT, cap)
            rows, total = [], 0
            for u in range(size * d):
                lo = -(-u * lean // d)
                total += lo
                # |box(u, k)| = (u + 1) * (k + 1) - 2 * total <= size
                hi = (size + 2 * total) // (u + 1) - 1
                if hi >= lo:
                    rows.append(((u,), lo, hi, u + 1, -2 * total))
        self.words = width * sum(hi - lo + 1 for _, lo, hi, _, _ in rows) // 64 + 1
        charge(self.words, LAYOUT, cap)
        boxes = [(x + (k,), a * (k + 1) + c) for x, lo, hi, a, c in rows for k in range(lo, hi + 1)]
        self.radix = 2 * max(max(i) for i, _ in boxes) + 2
        self.index = [i for i, _ in boxes]  # the index of each slot
        self.keys = {self._key(i): j for j, i in enumerate(self.index)}
        ones = self._pack((j, 1) for j in range(len(boxes)))
        self.members = ones ^ 1  # 0 is no nonzero member
        self.counts = self._pack((j, b - 2) for j, (_, b) in enumerate(boxes) if b > 2)
        self.guards = ones << self.top
        self.moves: dict[int, tuple] = {}
        self.boxes: dict[int, int] = {}
        self.names: dict[int, tuple] = {}

    def _key(self, i: tuple) -> int:
        """The index i as one integer in base `radix`. Each coordinate of P
        is below radix / 2, so the key of a sum of two indexes of P is the
        sum of their keys, and the difference of their keys is the key of
        a point of P only if their difference is that point."""
        key = 0
        for c in i:
            key = key * self.radix + c
        return key

    def _pack(self, fields) -> int:
        """The `int` with v in the field of slot j for each (j, v) of fields."""
        out = bytearray(8 * self.words)
        width = self.width
        for j, v in fields:
            bit = width * j
            while v:
                if v & 1:
                    out[bit >> 3] |= 1 << (bit & 7)
                v >>= 1
                bit += 1
        return int.from_bytes(out, "little")

    def _ones(self, slots: list[int], cap: int | None) -> int:
        """1 in the field of each slot, charged in words before it is built."""
        charge(self.width * max(slots, default=0) // 64 + 1, LAYOUT, cap)
        return self._pack((j, 1) for j in slots)

    def slot(self, x: Point) -> int | None:
        """The slot of the cone point x, or None if x is not in P."""
        i = self.basis.index(x)
        j = self.keys.get(self._key(i))
        return j if j is not None and self.index[j] == i else None

    def name(self, j: int) -> tuple:
        """(canonical key, point) of slot j, cached in `names`."""
        x = self.basis.point(self.index[j])
        self.names[j] = out = (canon_key(x), x)
        return out

    def zeros(self, counts: int) -> int:
        """The low bit of each field of P whose count is 0: setting a
        field's guard bit and subtracting the count leaves the guard set
        only where the count is 0, and no field borrows from the next."""
        guards = self.guards
        return ((guards - counts) & guards) >> self.top

    def move(self, j: int, cap: int | None = None) -> tuple[int, list, int]:
        """(bit, classes, plus) for the point m at slot j, cached in
        `moves`: bit is m's field; classes holds a (mask, shift) for each
        distinct d = slot(y + m) - slot(y) over the points y of P with y + m
        in P, where mask selects those y and shift is width * d + 1; plus is
        1 in the field of 2m if 2m is in P, else 0. So the sum of
        ((F & mask) << shift) is 2 in the field of y + m for each y in F."""
        keys, km = self.keys, self._key(self.index[j])
        steps: dict[int, list[int]] = {}
        for k, s in keys.items():
            if (t := keys.get(k + km)) is not None:
                steps.setdefault(t - s, []).append(s)
        classes = [(self._ones(slots, cap), self.width * d + 1) for d, slots in steps.items()]
        two = keys.get(2 * km)
        plus = 0 if two is None else 1 << self.width * two
        self.moves[j] = out = (1 << self.width * j, classes, plus)
        return out

    def box(self, j: int, cap: int | None = None) -> int:
        """The lattice box of the point at slot j, 1 in each of its fields,
        cached in `boxes`: the points y of P with x - y in P."""
        keys, kx = self.keys, self._key(self.index[j])
        self.boxes[j] = mask = self._ones([s for k, s in keys.items() if kx - k in keys], cap)
        return mask


def lower_set(cone: Cone, x: Point) -> list[Point]:
    """Cone lattice points a with x - a also in the cone, canonical order.

    In scaled ray coordinates this is a coordinate box, so the size is
    proportional to the output, not to a graded sweep of the whole cone.
    """
    x = json_ints(x, "x")
    if not cone._contains(x):
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
