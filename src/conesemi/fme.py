"""Fourier-Motzkin elimination for strict homogeneous linear systems.

Decides feasibility of ``{a in Q^n : r . a > 0 for every row r}``. All rows
are integer vectors and all inequalities are strict, so elimination is exact:
combining a row positive in a variable with one negative in it (with positive
multipliers) projects the open polyhedron faithfully, and an all-zero row
reads ``0 > 0``, i.e. infeasible.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .geom import charge


def _normalized(row: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for c in row:
        g = gcd(g, abs(c))
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def feasible_strict(rows: Iterable[Sequence[int]]) -> bool:
    """True iff some rational vector satisfies every strict inequality r.a > 0."""
    system: set[tuple[int, ...]] = set()
    n = None
    for row in rows:
        row = tuple(row)
        if n is None:
            n = len(row)
        elif len(row) != n:
            raise ValueError("rows must share one length")
        if all(c == 0 for c in row):
            return False
        system.add(_normalized(row))
    if not system:
        return True

    for var in range(n):
        pos = [r for r in system if r[var] > 0]
        neg = [r for r in system if r[var] < 0]
        kept = {r for r in system if r[var] == 0}
        charge(len(kept) + len(pos) * len(neg), "the Fourier-Motzkin rows")
        for p in pos:
            for q in neg:
                combined = tuple(
                    p[i] * (-q[var]) + q[i] * p[var] for i in range(n)
                )
                if all(c == 0 for c in combined):
                    return False
                kept.add(_normalized(combined))
        system = kept
    # Everything eliminated without deriving 0 > 0.
    return True
