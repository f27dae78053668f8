"""Wilf-type counts and exhaustive genus-indexed enumeration.

The counts c (cone points under some gap), n (members under some gap) and
e (minimal generators) feed the inequality e * n >= p * c, checked here over
every semigroup of bounded genus on a fixed cone.

Enumeration walks the semigroup tree: the root is the gap-free semigroup,
and the children of S remove one minimal generator beyond the canonically
largest gap. Adding the canonically largest gap back is the unique inverse
step, so every gap set of each genus appears exactly once. One walker,
`_walk`, serves both `enumerate_genus` and `wilf_sweep`.

Only the root scans its certified region for minimal generators. Each
child inherits its generators from its parent through
`CSemigroup.remove_generator`; the region scan stays the reference for
standalone semigroups and in the tests.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing import get_context

from .errors import InvalidInput
from .geom import Cone, canon_key, charge, lower_set, sub
from .semigroup import CSemigroup, make_csemigroup


@dataclass(frozen=True)
class WilfReport:
    """One evaluation of e * n >= p * c."""

    e: int
    n: int
    c: int
    p: int
    margin: int
    holds: bool

    def to_obj(self) -> dict:
        return {
            "e": self.e,
            "n": self.n,
            "c": self.c,
            "p": self.p,
            "margin": self.margin,
            "holds": self.holds,
        }


def wilf_report(s: CSemigroup, order: str = "cone") -> WilfReport:
    """Count the region under the gaps and test the inequality.

    With the default cone order, c counts cone points below some gap
    (reflexively, so 0 and the gaps themselves count) and n the members
    among them. The induced-order variant is exposed for comparison; under
    it no member is ever below a gap, so n = 0 and the inequality fails on
    any semigroup with gaps.
    """
    cone = s.cone
    region: set = set()
    for b in s.gaps:
        region.update(lower_set(cone, b))
    if order == "cone":
        inside = region
    elif order == "induced":
        inside = {
            a for a in region if any(s.member(sub(b, a)) for b in s.gaps)
        }
    else:
        raise InvalidInput(f"order must be 'cone' or 'induced', got {order!r}")
    c = len(inside)
    n = sum(1 for a in inside if a not in s.gap_set)
    e = len(s.minimal_generators)
    margin = e * n - cone.p * c
    return WilfReport(e=e, n=n, c=c, p=cone.p, margin=margin, holds=margin >= 0)


@dataclass(frozen=True)
class GenusLevel:
    """All semigroups of one genus over a cone, canonically sorted."""

    genus: int
    semigroups: tuple[CSemigroup, ...]

    @property
    def count(self) -> int:
        return len(self.semigroups)


def _children(s: CSemigroup) -> list[CSemigroup]:
    """Remove each minimal generator beyond the canonically largest gap.

    Removing a minimal generator keeps the complement closed (it has no
    two-member decomposition), and the restriction to generators past the
    largest gap makes the parent map (put the largest gap back) unique.
    """
    biggest = canon_key(s.gaps[-1]) if s.gaps else None
    return [
        s.remove_generator(m)
        for m in s.minimal_generators
        if biggest is None or canon_key(m) > biggest
    ]


def _walk(cone: Cone, g_max: int, expand):
    """Yield each genus level of the tree up to g_max, canonically sorted,
    with what expand(level, grow) gave for it: one (result, children) pair
    per node, children only while grow is true. Every node is charged to
    the point budget before its level is expanded."""
    level = [make_csemigroup(cone, [])]
    total = 0
    for g in range(g_max + 1):
        total += len(level)
        charge(total, "the genus-tree walk")
        results = expand(level, g < g_max)
        yield level, results
        level = sorted((k for _, kids in results for k in kids), key=CSemigroup.sort_key)


def enumerate_genus(cone: Cone, g_max: int) -> list[GenusLevel]:
    """GenusLevel for each genus up to g_max, exhaustive and duplicate-free."""
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    walk = _walk(
        cone, g_max, lambda level, grow: [(None, _children(s) if grow else []) for s in level]
    )
    return [GenusLevel(g, tuple(level)) for g, (level, _) in enumerate(walk)]


@dataclass(frozen=True)
class WilfSummary:
    """Outcome of a sweep: per-genus counts, worst margin, violations."""

    cone: Cone
    max_genus: int
    order: str
    counts: tuple[int, ...]
    min_margin: int
    counterexamples: tuple[tuple[CSemigroup, WilfReport], ...]

    def to_obj(self) -> dict:
        return {
            "cone": self.cone.to_obj(),
            "max_genus": self.max_genus,
            "order": self.order,
            "counts": list(self.counts),
            "min_margin": self.min_margin,
            "counterexamples": [
                {"gaps": [list(g) for g in s.gaps], "report": rep.to_obj()}
                for s, rep in self.counterexamples
            ],
        }


def _sweep_node(args):
    s, order, expand_children = args
    report = wilf_report(s, order)
    kids = _children(s) if expand_children else []
    return report, kids


def wilf_sweep(
    cone: Cone,
    g_max: int,
    order: str = "cone",
    jobs: int = 1,
) -> WilfSummary:
    """Run wilf_report over every semigroup of genus <= g_max.

    Levels are barriers; nodes within a level may be evaluated in parallel
    (jobs > 1) and the result is identical to the sequential run because
    per-level output order is canonical and the aggregates are order-free.
    One pool serves the whole sweep, opened at the first level with more
    than one node.
    """
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")
    counts = []
    min_margin: int | None = None
    counterexamples = []
    with ExitStack() as stack:
        pool = None

        def expand(level, grow):
            nonlocal pool
            work = [(s, order, grow) for s in level]
            if jobs == 1 or len(work) < 2:
                return [_sweep_node(w) for w in work]
            if pool is None:
                pool = stack.enter_context(get_context().Pool(jobs))
            return pool.map(_sweep_node, work, chunksize=max(1, len(work) // (4 * jobs)))

        for level, results in _walk(cone, g_max, expand):
            counts.append(len(level))
            for s, (report, _) in zip(level, results):
                if min_margin is None or report.margin < min_margin:
                    min_margin = report.margin
                if not report.holds:
                    counterexamples.append((s, report))
    return WilfSummary(
        cone=cone,
        max_genus=g_max,
        order=order,
        counts=tuple(counts),
        min_margin=min_margin if min_margin is not None else 0,
        counterexamples=tuple(counterexamples),
    )
