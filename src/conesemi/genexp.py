"""Expand a finite generating set inside a 2D cone into its gap set.

The complement of the generated semigroup is computed exactly, with a
termination certificate instead of open-ended search:

  1. Per extremal ray, the generators lying on the ray must generate a
     cofinite numerical semigroup (scaled gcd 1); its conductor k_i bounds
     behaviour along that ray.
  2. Lattice lines parallel to a ray are swept in order of distance from it.
     On each line, the first member t0 is computed (not searched for) from
     the already-summarized lower lines, and the k_i points from t0 on form
     the line's window, stored as the bits of one int (bit i for t0 + i).
     Everything beyond is a member: t0 plus any element of the ray's
     numerical semigroup is one, and that semigroup holds every n >= k_i.
     A point of the line is a member when it is an off-line generator plus
     a member of a lower line, so the window is the OR of one shifted and
     masked copy of a lower line's window per off-line generator. The
     generators on the ray need no pass of their own: adding one to a
     member gives a member, so each copy, and the OR, is already closed
     under them. A line with no member at all proves the complement
     infinite.
  3. The region at ray-distance >= K_i from both rays is certified gap-free
     by checking the finite box [K_1, 2K_1) x [K_2, 2K_2) in ray coordinates:
     any deeper point is a box point plus multiples of K_i * r_i. Each box
     row is one line of the ray-1 sweep, on which the box is a run of K_1
     consecutive points, so a row is read off the line's summary: its first
     member and its window. The K_i double (and the strips re-sweep) while
     the box still contains gaps.

Every sweep step is a finite exact computation, so the result is the exact
gap set whenever it is finite, and a NotCofinite diagnosis with a witness
line otherwise.
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
    Point,
    Record,
    _ceil_div,
    canon_key,
    charge,
    is_zero,
    json_field,
    json_points,
)
# make_csemigroup is unused here but stays importable: the benchmark tracer
# replaces genexp.make_csemigroup along with the other modules' copies
from .semigroup import CSemigroup, NumericalSemigroup, make_csemigroup


class GeneratorInput(Record):
    """A 2D cone plus a deduplicated set of nonzero generators inside it."""

    _fields = ("cone", "generators")

    def __init__(self, cone: Cone, generators):
        if cone.p != 2:
            raise UnsupportedDimension("generator expansion is implemented for 2D cones")
        gens = []
        seen = set()
        for a in generators:
            a = tuple(int(c) for c in a)
            if is_zero(a):
                raise ZeroPoint("0 is not a useful generator")
            if not cone.contains(a):
                raise PointOutsideCone(f"generator {a} is outside the cone", point=list(a))
            if a not in seen:
                seen.add(a)
                gens.append(a)
        if not gens:
            raise ConeMismatch("at least one generator is required")
        gens.sort(key=canon_key)
        self.__dict__.update(cone=cone, generators=tuple(gens))

    @classmethod
    def from_obj(cls, obj) -> "GeneratorInput":
        """Decode ``{"cone": ..., "generators": [[x, y], ...]}``."""
        cone = Cone.from_obj(json_field(obj, "cone"))
        return cls(cone, tuple(json_points(json_field(obj, "generators"), "generators")))


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


class _LineTable:
    """Membership summary of one lattice line x = base + t * ray.

    t_min is the first parameter inside the cone; t0 the first member
    (None for a memberless line). window is an int of k bits: bit i says
    whether t0 + i is a member, and every t >= t0 + k is a member, so
    `window | -1 << k` holds the membership of every t >= t0 at bit t - t0.
    """

    __slots__ = ("t_min", "t0", "k", "window")

    def __init__(self, t_min: int, t0: int | None, k: int, window: int = 0):
        self.t_min, self.t0, self.k, self.window = t_min, t0, k, window

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"_LineTable({fields})"

    def member(self, t: int) -> bool:
        if self.t0 is None or t < self.t0:
            return False
        return t >= self.t0 + self.k or self.window >> (t - self.t0) & 1 == 1

    def all_members(self, lo: int, hi: int) -> bool:
        """Whether every t in [lo, hi) is a member, for lo < hi."""
        if self.t0 is None or lo < self.t0:
            return False
        span = min(hi - self.t0, self.k) - (lo - self.t0)
        return span <= 0 or ~self.window >> (lo - self.t0) & ((1 << span) - 1) == 0

    def first_member_at_least(self, s: int) -> int | None:
        if self.t0 is None:
            return None
        s = max(s, self.t0)
        if s >= self.t0 + self.k:
            return s
        rest = self.window >> (s - self.t0)
        if not rest:
            return self.t0 + self.k
        return s + (rest & -rest).bit_length() - 1


class _Sweep:
    """Line-by-line membership tables parallel to one extremal ray."""

    def __init__(self, cone: Cone, gens, axis: int, ray_ns: NumericalSemigroup):
        self.d = cone.det
        self.ray = cone.rays[axis]
        # line j holds the points whose other scaled coordinate is j; the
        # scaled coordinate along the ray is the point's offset
        line = 1 - axis
        self.base1 = cone.unit_point(line)
        self.ob1 = cone.scaled_coords(self.base1)[axis]
        self.k = max(ray_ns.conductor, 1)
        # generators on the ray enter through ray_ns, the summary of line 0
        self.offline = []
        for a in gens:
            sa = cone.scaled_coords(a)
            ja, oa = sa[line], sa[axis]
            if ja:
                # a sits at parameter mu on its line; landing offset is -mu
                delta, rem = divmod(ja * self.ob1 - oa, self.d)
                assert rem == 0
                self.offline.append((ja, delta))
        self.offline.sort()
        self.full = (1 << self.k) - 1
        # line 0 is the ray itself, summarized by its numerical semigroup
        window = self.full
        for t in ray_ns.gaps:
            window ^= 1 << t
        self.tables = [_LineTable(0, 0, self.k, window)]

    def line_point(self, j: int, t: int) -> Point:
        return (
            j * self.base1[0] + t * self.ray[0],
            j * self.base1[1] + t * self.ray[1],
        )

    def extend(self, n_lines: int) -> None:
        """Summarize lines up to index n_lines - 1 (continuing past work)."""
        for j in range(len(self.tables), n_lines):
            self.tables.append(self._summarize(j))

    def _summarize(self, j: int) -> _LineTable:
        t_min = _ceil_div(-j * self.ob1, self.d)
        t0 = None
        for ja, delta in self.offline:
            if ja > j:
                break
            table = self.tables[j - ja]
            if table.t0 is None:
                continue
            # bit 0 of a window is t0 itself, so a start at or below it lands there
            s = t_min + delta
            s = table.t0 if s <= table.t0 else table.first_member_at_least(s)
            cand = s - delta
            if t0 is None or cand < t0:
                t0 = cand
        if t0 is None:
            witness = self.line_point(j, max(t_min, 0))
            raise NotCofinite(
                f"no member on the lattice line through {witness} with "
                f"direction {self.ray}; the complement is infinite",
                line_point=list(witness),
                direction=list(self.ray),
            )
        # t is a member when t + delta is one on line j - ja for an off-line
        # generator; same-ray steps add nothing, since every line's members
        # are closed under them (see the module docstring)
        window = 0
        for ja, delta in self.offline:
            if ja > j:
                break
            table = self.tables[j - ja]
            # bit i of bits: whether table.t0 + i is a member; set past the window
            bits = table.window | -1 << table.k
            shift = t0 + delta - table.t0
            if shift >= 0:
                window |= bits >> shift & self.full
            elif shift > -self.k:  # else its first member lies past this window
                window |= bits << -shift & self.full
        return _LineTable(t_min, t0, self.k, window)

    def gaps_of_line(self, j: int) -> list[Point]:
        table = self.tables[j]
        out = [self.line_point(j, t) for t in range(table.t_min, table.t0)]
        holes = ~table.window & self.full
        while holes:
            low = holes & -holes
            out.append(self.line_point(j, table.t0 + low.bit_length() - 1))
            holes ^= low
        return out


def _box_is_clear(sweep1: _Sweep, k1: int, k2: int) -> bool:
    """Whether every lattice point with ray coordinates in
    [k1, 2*k1) x [k2, 2*k2) is a member, read line by line.

    Box row j, a scaled ray-2 coordinate in [k2*d, 2*k2*d), is line j of
    sweep1, whose point t has scaled ray-1 coordinate j*ob1 + t*d. Its box
    points are the k1 parameters from ceil((k1*d - j*ob1) / d) on, and they
    are all members unless the range starts before the line's first member
    or meets a non-member of its window.
    """
    d, ob1 = sweep1.d, sweep1.ob1
    for j in range(k2 * d, 2 * k2 * d):
        lo = _ceil_div(k1 * d - j * ob1, d)
        if not sweep1.tables[j].all_members(lo, lo + k1):
            return False
    return True


def expand(g: GeneratorInput) -> CSemigroup:
    """The semigroup generated by g, provided its gap set is finite.

    Raises ConeMismatch when a ray carries no generator, NotCofinite when
    the complement is provably infinite, CapacityExceeded when the strip
    sweeps or the certificate box would outgrow CONESEMI_CAPACITY before
    the certified region stabilizes.

    The result is built without a second validation. Its gaps are the swept
    cone points that are no sum of generators, and the cleared box proves
    every other cone point a sum, so the complement is exactly the monoid
    the generators span: closed under addition, and 0 (the empty sum) is
    no gap.
    """
    cone = g.cone
    d = cone.det
    ray_ns = []
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
        ray_ns.append(NumericalSemigroup.from_generators(multiples))

    cap1 = max(ray_ns[0].conductor, 1)
    cap2 = max(ray_ns[1].conductor, 1)
    sweep1 = _Sweep(cone, g.generators, 0, ray_ns[0])
    sweep2 = _Sweep(cone, g.generators, 1, ray_ns[1])
    while True:
        # sweep work is lines times window width; charge it like enumeration
        charge(4 * d * cap1 * cap2, "the strip sweeps")
        # the certificate box spans (cap1 * d) * (cap2 * d) scaled coordinates;
        # this charge grows 4x per doubling, so it also ends a box that never clears
        charge(cap1 * cap2 * d * d, "the certificate box")
        sweep1.extend(2 * cap2 * d)  # lines indexed by distance from ray 1
        sweep2.extend(2 * cap1 * d)
        if _box_is_clear(sweep1, cap1, cap2):
            break
        cap1 *= 2
        cap2 *= 2

    gaps: set[Point] = set()
    for j in range(cap2 * d):
        gaps.update(sweep1.gaps_of_line(j))
    for i in range(cap1 * d):
        gaps.update(sweep2.gaps_of_line(i))
    return CSemigroup(cone, tuple(sorted(gaps, key=canon_key)))


def is_csemigroup(g: GeneratorInput) -> ExpandDecision:
    """Decide whether the generators span a cofinite subsemigroup of the cone."""
    try:
        s = expand(g)
    except NotCofinite as e:
        return ExpandDecision(False, reason="NotCofinite", detail=str(e))
    except ConeMismatch as e:
        return ExpandDecision(False, reason="ConeMismatch", detail=str(e))
    return ExpandDecision(True, genus=s.genus)
