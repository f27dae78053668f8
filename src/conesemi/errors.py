"""Exception hierarchy shared by all conesemi modules.

Every domain failure raises a subclass of ConesemiError carrying an
optional JSON-ready payload (witness data for diagnostics). The CLI maps
these to exit code 1 and prints ``type(e).__name__`` and the payload.
"""

from __future__ import annotations


class ConesemiError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message: str = "", **payload):
        super().__init__(message)
        self.payload = payload


class DimensionMismatch(ConesemiError):
    """Operands live in different ambient dimensions."""


class CapacityExceeded(ConesemiError):
    """An enumeration outgrew the configured point budget."""


class GapOutsideCone(ConesemiError):
    """A prescribed gap is not a lattice point of the cone."""


class ZeroGap(ConesemiError):
    """The origin was listed as a gap; 0 always belongs to the semigroup."""


class NotClosed(ConesemiError):
    """The complement of the gap set is not closed under addition.

    Carries a witness decomposition gap = a + b with both summands members.
    """

    def __init__(self, gap, a, b):
        super().__init__(
            f"gap {gap} = {a} + {b} with both summands in the semigroup",
            gap=list(gap), witness=[list(a), list(b)],
        )
        self.gap = gap
        self.a = a
        self.b = b


class EmptyGapSet(ConesemiError):
    """Invariant undefined for the gap-free semigroup (the full cone)."""


class NotAMember(ConesemiError):
    """Shift point for an Apery set must belong to the semigroup."""


class ZeroShift(ConesemiError):
    """Apery shift must be nonzero."""


class InvalidRay(ConesemiError):
    """Ray index out of range for the cone."""


class NotCofinite(ConesemiError):
    """The generated semigroup has infinitely many gaps.

    Witness: either an extremal ray whose restricted generators have
    gcd > 1, or a lattice line containing no member at all.
    """


class ConeMismatch(ConesemiError):
    """The generators do not span the prescribed cone (a ray is uncovered)."""


class PointOutsideCone(ConesemiError):
    """A prescribed point is not a lattice point of the cone."""


class ZeroPoint(ConesemiError):
    """The origin is not allowed here."""


class DegeneratePattern(ConesemiError):
    """The pattern semigroup is all of the naturals; invariant undefined."""


class UnsupportedDimension(ConesemiError):
    """Operation restricted to a dimension this input does not have."""


class InvalidInput(ConesemiError):
    """Malformed value outside any more specific category."""
