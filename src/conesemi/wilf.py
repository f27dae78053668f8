"""Wilf-type counts and exhaustive genus-indexed enumeration.

The counts c (cone points under some gap), n (members under some gap) and
e (minimal generators) feed the inequality e * n >= p * c, checked here over
every semigroup of bounded genus on a fixed cone.

Enumeration walks the semigroup tree: the root is the gap-free semigroup,
and the children of S remove one minimal generator beyond the canonically
largest gap. Adding the canonically largest gap back is the unique inverse
step, so every gap set of each genus appears exactly once. One walker,
`_walk`, serves both `enumerate_genus` and `wilf_sweep`. It walks the
subtree under any root breadth-first, which is how `wilf_sweep` splits
`jobs > 1` between pool workers: one subtree per task.

Only the root scans its certified region for minimal generators. Each
child inherits its generators from its parent through
`CSemigroup.remove_generator`; the region scan stays the reference for
standalone semigroups and in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidInput
# lower_set is unused here but stays importable: the benchmark tracer
# replaces wilf.lower_set along with the other modules' copies
from .geom import Cone, canon_key, charge, lattice_box, lower_set
from .semigroup import CSemigroup, make_csemigroup


def get_context(method=None):
    """multiprocessing.get_context, imported only when a sweep opens a pool."""
    from multiprocessing import get_context

    return get_context(method)


class WilfReport(NamedTuple):
    """One evaluation of e * n >= p * c."""

    e: int
    n: int
    c: int
    p: int
    margin: int
    holds: bool

    def to_obj(self) -> dict:
        return self._asdict()


def wilf_report(s: CSemigroup) -> WilfReport:
    """Count the region under the gaps and test the inequality.

    c counts cone points below some gap in the cone order (reflexively, so
    0 and the gaps themselves count) and n the members among them. The
    induced order would give n = 0 on every semigroup: a member a with
    b - a in S for a gap b would make b = a + (b - a) a member.
    """
    cone = s.cone
    region: set = set()
    for b in s.gaps:
        region.update(lattice_box(cone, b))
    c = len(region)
    # every gap lies in the region, and every other region point is a member
    n = c - s.genus
    e = len(s.minimal_generators)
    margin = e * n - cone.p * c
    return WilfReport(e=e, n=n, c=c, p=cone.p, margin=margin, holds=margin >= 0)


class GenusLevel(NamedTuple):
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


def _walk(root: CSemigroup, g_max: int, walked: int, expand):
    """Yield each genus level of the subtree under root, from the root's
    genus up to g_max, canonically sorted, with what expand(level, grow)
    gave for it: one (result, children) pair per node, children only while
    grow is true. Each level is charged to the point budget before it is
    expanded, on top of `walked` nodes visited elsewhere."""
    level = [root]
    total = walked
    for g in range(root.genus, g_max + 1):
        total += len(level)
        charge(total, "the genus-tree walk")
        results = expand(level, g < g_max)
        yield level, results
        level = _next_level(results)


def _next_level(results) -> list[CSemigroup]:
    return sorted((k for _, kids in results for k in kids), key=CSemigroup.sort_key)


def enumerate_genus(cone: Cone, g_max: int) -> list[GenusLevel]:
    """GenusLevel for each genus up to g_max, exhaustive and duplicate-free."""
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    walk = _walk(
        make_csemigroup(cone, []), g_max, 0,
        lambda level, grow: [(None, _children(s) if grow else []) for s in level],
    )
    return [GenusLevel(g, tuple(level)) for g, (level, _) in enumerate(walk)]


class WilfSummary(NamedTuple):
    """Outcome of a sweep: per-genus counts, worst margin, violations."""

    cone: Cone
    max_genus: int
    counts: tuple[int, ...]
    min_margin: int
    counterexamples: tuple[tuple[CSemigroup, WilfReport], ...]

    def to_obj(self) -> dict:
        return {
            "cone": self.cone.to_obj(),
            "max_genus": self.max_genus,
            # Wilf counts always use the cone order
            "order": "cone",
            "counts": list(self.counts),
            "min_margin": self.min_margin,
            "counterexamples": [
                {"gaps": [list(g) for g in s.gaps], "report": rep.to_obj()}
                for s, rep in self.counterexamples
            ],
        }


def _report_level(level, grow):
    """The sweep's expand step for _walk: each node's report and children."""
    return [(wilf_report(s), _children(s) if grow else []) for s in level]


def _tally(level, results) -> tuple:
    """(count, least margin or None, counterexamples) of one walked level."""
    reports = [r for r, _ in results]
    low = min((r.margin for r in reports), default=None)
    return len(level), low, tuple((s, r) for s, r in zip(level, reports) if not r.holds)


# Nodes this process has walked as a pool worker. A pool serves one sweep,
# so the count covers the worker's earlier subtrees of the same sweep.
_pool_walked = 0


def _sweep_node(task) -> tuple:
    """Sweep the subtree under one root: a _tally row for each genus from
    the root's up to g_max.

    The budget counts the `walked` nodes the parent visited and, in a pool
    worker, every node the worker walked before this task.
    """
    global _pool_walked
    root, g_max, walked, pooled = task
    if pooled:
        walked += _pool_walked
    rows = tuple(
        _tally(level, results)
        for level, results in _walk(root, g_max, walked, _report_level)
    )
    if pooled:
        _pool_walked += sum(count for count, _, _ in rows)
    return rows


def wilf_sweep(cone: Cone, g_max: int, jobs: int = 1) -> WilfSummary:
    """Run wilf_report over every semigroup of genus <= g_max.

    With jobs == 1 one task sweeps the whole tree from the gap-free root.
    With jobs > 1 the tree is split by subtree (Fromentin and Hivert): this
    process walks the first levels until one holds at least 8 * jobs
    nodes, and a pool of jobs workers sweeps the subtrees under them, one
    root per task. The rows are summed in root order and the
    counterexamples sorted by (genus, sort_key), so the summary does not
    depend on jobs. The walk is charged to the point budget as it goes,
    and a split walk's merged total before this returns.
    """
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")
    roots = [make_csemigroup(cone, [])]
    head = []
    if jobs > 1:
        for level, results in _walk(roots[0], g_max, 0, _report_level):
            head.append(_tally(level, results))
            if sum(len(kids) for _, kids in results) >= 8 * jobs:
                roots = _next_level(results)
                break
        else:
            roots = []
    walked = sum(count for count, _, _ in head)
    tasks = [(s, g_max, walked, jobs > 1) for s in roots]
    if jobs == 1 or not tasks:
        subtrees = [_sweep_node(t) for t in tasks]
    else:
        with get_context().Pool(jobs) as pool:
            subtrees = pool.map(_sweep_node, tasks, chunksize=1)
    counts = [0] * (g_max + 1)
    margins = []
    counterexamples = []
    for start, rows in [(0, head)] + [(s.genus, r) for s, r in zip(roots, subtrees)]:
        for g, (count, low, bad) in enumerate(rows, start):
            counts[g] += count
            if low is not None:
                margins.append(low)
            counterexamples.extend(bad)
    if jobs > 1:
        # the workers charged their own shares; with one job, _walk has
        # already charged the exact total
        charge(sum(counts), "the genus-tree walk")
    counterexamples.sort(key=lambda sr: (sr[0].genus, sr[0].sort_key()))
    return WilfSummary(
        cone=cone,
        max_genus=g_max,
        counts=tuple(counts),
        min_margin=min(margins),
        counterexamples=tuple(counterexamples),
    )
