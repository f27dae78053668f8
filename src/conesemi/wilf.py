"""Wilf-type counts and exhaustive genus-indexed enumeration.

The counts c (cone points under some gap), n (members under some gap) and
e (minimal generators) feed the inequality e * n >= p * c, checked here over
every semigroup of bounded genus on a fixed cone.

Enumeration walks the semigroup tree: the root is the gap-free semigroup,
and the children of S remove one minimal generator beyond the canonically
largest gap. Adding the canonically largest gap back is the unique inverse
step, so every gap set of each genus appears exactly once. One walker,
`_walk`, serves both `enumerate_genus` and `wilf_sweep`. It walks the
subtree under any root depth-first on an explicit stack (Fromentin and
Hivert), so memory holds one path and its pending siblings rather than a
whole genus, and a deep tree cannot exhaust the interpreter's recursion
limit. Subtrees are also how `wilf_sweep` splits `jobs > 1` between pool
workers: one subtree per task.

The walk yields bare nodes in canonical order: a node's canonical gap tuple
is its path from the root, since each child's largest gap is the generator
it removed, so depth first with children in canonical order lists each
genus by `CSemigroup.sort_key`, and a level's subtrees, in level order,
continue it. Only the sweep (`_sweep_node`) carries the region under the
gaps, the cone points below some gap, in one set: a node adds its new gap's
lattice box and hands the points back when the walk leaves its subtree, so
each node costs one box and c is the size of the set.

Only the root scans its certified region for minimal generators. A node's
children inherit their generators from it through
`CSemigroup.remove_generators`, derived together in one pass with the same
packed decomposition test as the region scan; the pairwise scan of
`oracle.oracle_minimals` stays the reference in the tests.

Most nodes are leaves, so the last genus costs the least (Fromentin and
Hivert again). A node at genus g_max - 1 gets its children as bare leaves,
its gaps plus the removed generator, with nothing derived. `enumerate_genus`
keeps them so. The sweep gives each leaf only its embedding dimension e,
which `CSemigroup.embedding_dimensions_without` counts with the candidate
loop of `remove_generators`, building no generator, and counts a leaf's new
box points into c without carrying them. A parent's leaves are charged to
the walk as one batch, and a walk (an `enumerate_genus` call or one
`_sweep_node` task) reads CONESEMI_CAPACITY once and checks every charge of
the walk and of its boxes against that value.
"""

from __future__ import annotations

import os
from bisect import bisect
from typing import NamedTuple

from .errors import InvalidInput
# lower_set is unused here but stays importable: the benchmark tracer
# replaces wilf.lower_set along with the other modules' copies
from .geom import Cone, canon_key, capacity, charge, lattice_box, lower_set
from .semigroup import CSemigroup, make_csemigroup

WALK = "the genus-tree walk"


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


def _region(s: CSemigroup, cap: int | None = None) -> set:
    """The cone points below some gap of s in the cone order, in one set;
    see `geom.charge` for cap."""
    region: set = set()
    # every gap's box lies in the box of a cone-maximal gap above it
    for b in s.frobenius_set():
        region.update(lattice_box(s.cone, b, cap))
    return region


def wilf_report(s: CSemigroup, c: int | None = None) -> WilfReport:
    """Count the region under the gaps and test the inequality.

    c counts cone points below some gap in the cone order (reflexively, so
    0 and the gaps themselves count) and n the members among them. The
    induced order would give n = 0 on every semigroup: a member a with
    b - a in S for a gap b would make b = a + (b - a) a member. A caller
    that already knows c, as the sweep does, passes it; otherwise the
    region is counted here.
    """
    cone = s.cone
    if c is None:
        c = len(_region(s))
    # every gap lies in the region, and every other region point is a member
    n = c - s.genus
    e = s.embedding_dimension
    margin = e * n - cone.p * c
    return WilfReport(e=e, n=n, c=c, p=cone.p, margin=margin, holds=margin >= 0)


class GenusLevel(NamedTuple):
    """All semigroups of one genus over a cone, canonically sorted."""

    genus: int
    semigroups: tuple[CSemigroup, ...]

    @property
    def count(self) -> int:
        return len(self.semigroups)


def _removable(s: CSemigroup) -> tuple:
    """The minimal generators of s past its canonically largest gap.

    Removing a minimal generator keeps the complement closed (it has no
    two-member decomposition), and the restriction to generators past the
    largest gap makes the parent map (put the largest gap back) unique.
    Each child's largest gap is therefore the generator it removed.
    """
    msg = s.minimal_generators
    if not s.gaps:
        return msg
    # msg is canonically sorted
    return msg[bisect(msg, canon_key(s.gaps[-1]), key=canon_key):]


def _children(s: CSemigroup) -> list[CSemigroup]:
    """The children of s, each with its minimal generators."""
    return s.remove_generators(_removable(s))


def _leaves(s: CSemigroup, counted: bool) -> list[CSemigroup]:
    """The children of s as bare leaves: each removed generator lies past
    the largest gap, so it goes last in the canonical gap tuple. Nothing is
    derived for them, except, with counted, their embedding dimensions,
    which `CSemigroup.embedding_dimensions_without` counts without building
    a generator."""
    ms = _removable(s)
    leaves = [CSemigroup(s.cone, s.gaps + (m,)) for m in ms]
    if counted:
        for leaf, e in zip(leaves, s.embedding_dimensions_without(ms)):
            leaf.__dict__["embedding_dimension"] = e
    return leaves


def _walk(root: CSemigroup, g_max: int, walked: int, cap: int, counted: bool = False):
    """Yield each node of the subtree under root up to genus g_max, depth
    first on an explicit stack, children in canonical order: each genus in
    `CSemigroup.sort_key` order (see the module docstring).

    Nodes below genus g_max - 1 get their children with their generators
    (`_children`); those at g_max - 1 get bare leaves (`_leaves`, counted
    or not), yielded right after their parent. Each node is charged to the
    point budget cap before it is yielded, on top of `walked` nodes visited
    elsewhere, and a parent's leaves as one batch.
    """
    stack = [root]
    while stack:
        s = stack.pop()
        walked += 1
        charge(walked, WALK, cap)
        yield s
        if s.genus + 1 < g_max:
            stack.extend(reversed(_children(s)))
        elif s.genus < g_max:
            leaves = _leaves(s, counted)
            walked += len(leaves)
            charge(walked, WALK, cap)
            yield from leaves


def enumerate_genus(cone: Cone, g_max: int) -> list[GenusLevel]:
    """GenusLevel for each genus up to g_max, exhaustive and duplicate-free."""
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    cap = capacity()
    levels = [[] for _ in range(g_max + 1)]
    for s in _walk(make_csemigroup(cone, []), g_max, 0, cap):
        levels[s.genus].append(s)
    return [GenusLevel(g, tuple(level)) for g, level in enumerate(levels)]


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


# Nodes this process has walked as a pool worker. A pool serves one sweep,
# so the count covers the worker's earlier subtrees of the same sweep.
_pool_walked = 0


def _sweep_node(task) -> tuple:
    """Sweep the subtree under one root: a (count, least margin or None,
    counterexamples) row for each genus from the root's up to g_max.

    added[i] holds the region points the node at depth i below the root
    added. Entering a node at depth i hands back those of depth >= i first:
    the walk is done with their subtrees. A leaf's points are counted and
    never added. The budget counts the `walked` nodes the parent visited
    and, in a pool worker, every node the worker walked before this task;
    CONESEMI_CAPACITY is read once, and the walk's charges and its boxes'
    are all checked against that value.
    """
    global _pool_walked
    root, g_max, walked, pooled = task
    if pooled:
        walked += _pool_walked
    cap = capacity()
    region = _region(root, cap)
    added = []
    counts = [0] * (g_max + 1 - root.genus)
    lows = [None] * len(counts)
    bad = [[] for _ in counts]
    for s in _walk(root, g_max, walked, cap, counted=True):
        i = s.genus - root.genus
        while len(added) > i:
            region.difference_update(added.pop())
        new = [a for a in lattice_box(root.cone, s.gaps[-1], cap) if a not in region] if i else []
        c = len(region) + len(new)
        if s.genus < g_max:
            # a leaf has no subtree to carry its points to
            region.update(new)
            added.append(new)
        rep = wilf_report(s, c)
        counts[i] += 1
        if lows[i] is None or rep.margin < lows[i]:
            lows[i] = rep.margin
        if not rep.holds:
            bad[i].append((s, rep))
    if pooled:
        _pool_walked += sum(counts)
    return tuple(zip(counts, lows, map(tuple, bad)))


def wilf_sweep(cone: Cone, g_max: int, jobs: int = 1) -> WilfSummary:
    """Run wilf_report over every semigroup of genus <= g_max.

    jobs is capped at the CPU count. The tree is split by subtree (Fromentin
    and Hivert) at the first level of at least 8 * jobs nodes: this process
    sweeps the levels above it, and a pool of jobs workers the subtrees
    under it, one root per task. With jobs == 1, or no such level, this
    process sweeps the whole tree and opens no pool. The rows merge in part
    order, which keeps each genus canonical, so the summary does not depend
    on jobs. The walk is charged to the point budget as it goes, and a split
    walk's merged total before this returns.
    """
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")
    jobs = min(jobs, os.cpu_count() or 1)
    root = make_csemigroup(cone, [])
    level, cut, walked = [root], 0, 0
    while jobs > 1 and cut < g_max and len(level) < 8 * jobs:
        walked += len(level)
        charge(walked, WALK)
        level = [k for s in level for k in _children(s)]
        cut += 1
    if len(level) < 8 * jobs:
        level, cut = [], g_max + 1
    parts = [(0, _sweep_node((root, cut - 1, 0, False)))]
    if level:
        with get_context().Pool(jobs) as pool:
            rows = pool.map(_sweep_node, [(s, g_max, walked, True) for s in level], chunksize=1)
        parts += [(cut, r) for r in rows]
    counts = [0] * (g_max + 1)
    margins = []
    bad = [[] for _ in counts]
    for start, rows in parts:
        for g, (count, low, b) in enumerate(rows, start):
            counts[g] += count
            if low is not None:
                margins.append(low)
            bad[g] += b
    if level:
        # the workers charged their own shares; unsplit, _walk has already
        # charged the exact total
        charge(sum(counts), WALK)
    return WilfSummary(
        cone=cone,
        max_genus=g_max,
        counts=tuple(counts),
        min_margin=min(margins),
        counterexamples=tuple(x for b in bad for x in b),
    )
