"""Wilf-type counts and exhaustive genus-indexed enumeration.

The counts c (cone points under some gap), n (members under some gap) and
e (minimal generators) feed the inequality e * n >= p * c, checked here over
every semigroup of bounded genus on a fixed cone.

Enumeration walks the semigroup tree: the root is the gap-free semigroup,
and the children of S remove one minimal generator beyond the canonically
largest gap. Adding the canonically largest gap back is the unique inverse
step, so every gap set of each genus appears exactly once. One walker,
`_walk`, serves both `enumerate_genus` and `wilf_sweep`. It walks the
subtrees under one level depth-first on an explicit stack (Fromentin and
Hivert) of lazy child iterators, so memory holds one path rather than a
whole genus, and a deep tree cannot exhaust the interpreter's recursion
limit. With `jobs > 1`, `wilf_sweep` hands those subtrees to forked
workers (`_sweep_node`) where the work estimated under them beats the
cost of forking; otherwise it walks the whole level, as it walks the root
at `jobs == 1`. The workers are forked by the sweep itself (`_ForkPool`,
stdlib `os` and `pickle` only): they inherit the tasks, take task indices
from one pipe as each is free, and send their rows back as one pickle
each, so a split sweep imports no `multiprocessing` and starts no pool
threads.

The walk is bit-parallel (Fromentin and Hivert, "Exploring the tree of
numerical semigroups", Math. Comp. 2016), with Python's `int` as the
vector register. A node is one state: its gap tuple and five masks over
one packed `geom.Layout` of the cone points the walk can read, built once
per walk with all its tables (the workers of a split sweep inherit the
parent's). F masks the nonzero members, dec counts the unordered pairs
of nonzero members that sum to each point in its field, R masks the
region under the gaps, gens the minimal generators (the members whose dec
field is 0) and pending the generators past the largest gap, whose
removals give the node's children. So e is gens.bit_count() and c is
R.bit_count(). The child S \\ {m} costs a few big-int operations
(`_child`): F loses m, dec loses the pairs that held m by m's masked
shifts, R gains m's lattice box, and pending is gens under
`Layout.after[m]`, since m is the child's largest gap. No node
scans a region, builds a generator tuple or compares points: the layout
alone knows the canonical order, and `_kids`, the one place that builds
a node's children, yields them by `Layout.rank`. The pairwise scan of
`oracle.oracle_minimals` stays the reference in the tests.

The walk yields nodes in canonical order: a node's canonical gap tuple is
its path from the root, since each child's largest gap is the generator it
removed, so depth first with children in canonical order lists each genus
by `CSemigroup.sort_key`, and a level's subtrees, in level order, continue
it. Only the sweep carries R; `enumerate_genus` leaves it 0.

Most nodes are leaves, so the last genus costs the least (Fromentin and
Hivert again). A node at genus g_max - 1 yields its children right away:
the sweep reads each leaf's e and c from one update, and `enumerate_genus`
builds nothing for a leaf but its gap tuple. A parent's leaves are charged
to the walk as one batch. A walk (an `enumerate_genus` call or a sweep)
reads CONESEMI_CAPACITY once, as its layout is built (`Layout.cap`), and
checks every charge against that value: its layout and the layout's
tables, and then its nodes. A sweep's tasks are its layout and states
alone, so a forked worker inherits both and builds no state twice.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import InvalidInput
# lower_set and make_csemigroup are unused here but stay importable: the
# benchmark tracer replaces wilf's copies along with the other modules'
from .geom import Cone, Layout, charge, lower_set
from .semigroup import CSemigroup, gap_grid, make_csemigroup

WALK = "the genus-tree walk"


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


def wilf_report(s: CSemigroup, c: int | None = None) -> WilfReport:
    """Count the region under the gaps and test the inequality.

    c counts cone points below some gap in the cone order (reflexively, so
    0 and the gaps themselves count) and n the members among them. The
    induced order would give n = 0 on every semigroup: a member a with
    b - a in S for a gap b would make b = a + (b - a) a member. A caller
    that already knows c, as the sweep does, passes it; otherwise the
    region is counted on the grid of the gaps' box (`Grid.below`).
    """
    cone = s.cone
    if c is None:
        c = gap_grid(cone, s.gaps)[2].bit_count()
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


def _node(layout: Layout) -> tuple:
    """The gap-free root as the walk's state (gaps, F, dec, R, gens,
    pending) over `layout` (see the module docstring): every generator is
    pending."""
    gens = layout.members & layout.zeros(layout.counts)
    return (), layout.members, layout.counts, 0, gens, gens


def _child(layout: Layout, node: tuple, j: int, counted: bool) -> tuple:
    """The state of S \\ {m}, for the minimal generator m at slot j of the
    node S. The pairs that lose m are {m, y}, one for each nonzero member
    y, y = m included: dec loses 1 in the field of y + m, one masked shift
    per class of m's `Layout.moves` entry. With counted, R gains m's box;
    otherwise R stays 0. m is the child's largest gap, so its pending
    generators are those ranked above m (`Layout.after`)."""
    gaps, members, dec, region, _, _ = node
    bit, classes = layout.moves[j]
    for mask, shift in classes:
        dec -= (members & mask) << shift
    members ^= bit
    if counted:
        region |= layout.boxes[j]
    gens = members & layout.zeros(dec)
    return gaps + (layout.names[j],), members, dec, region, gens, gens & layout.after[j]


def _ranked(layout: Layout, mask: int) -> list[int]:
    """The slots of the fields set in mask, in canonical order."""
    slots = []
    while mask:
        top = mask.bit_length() - 1
        mask ^= 1 << top
        slots.append(top // layout.width)
    return sorted(slots, key=layout.rank.__getitem__)


def _kids(layout: Layout, node: tuple, counted: bool):
    """An iterator over the states of the children of the state node, one
    for each of its pending generators, in canonical order: each child is
    built only when the iterator reaches it."""
    return (_child(layout, node, j, counted) for j in _ranked(layout, node[5]))


def _walk(layout: Layout, states: list, g_max: int, walked: int, counted: bool = False):
    """Yield (gaps, e, c) for each node of the subtrees under the states
    of one level, subtree by subtree, up to genus g_max: depth first on an
    explicit stack, children in canonical order (`_kids`), so each genus
    comes in `CSemigroup.sort_key` order (see the module docstring). c is
    0 unless counted.

    The stack holds one iterator per depth, the states and then each path
    node's `_kids`, so no node is built before the walk reaches it. Nodes
    below genus g_max - 1 push their children. Those at g_max - 1
    yield their children, the leaves, right away: with counted, each with
    its e and c, and otherwise as bare gap tuples with e and c None. Each
    node is charged to the layout's point budget before it is yielded, on
    top of `walked` nodes visited elsewhere, and a parent's leaves as one
    batch.
    """
    cap, names = layout.cap, layout.names
    stack = [iter(states)]
    while stack:
        if (node := next(stack[-1], None)) is None:
            stack.pop()
            continue
        walked += 1
        charge(walked, WALK, cap)
        gaps = node[0]
        yield gaps, node[4].bit_count(), node[3].bit_count()
        if len(gaps) + 1 < g_max:
            stack.append(_kids(layout, node, counted))
        elif len(gaps) < g_max:
            slots = _ranked(layout, node[5])
            walked += len(slots)
            charge(walked, WALK, cap)
            for j in slots:
                if counted:
                    leaf = _child(layout, node, j, True)
                    yield leaf[0], leaf[4].bit_count(), leaf[3].bit_count()
                else:
                    yield gaps + (names[j],), None, None


def enumerate_genus(cone: Cone, g_max: int) -> list[GenusLevel]:
    """GenusLevel for each genus up to g_max, exhaustive and duplicate-free."""
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    layout = Layout(cone, g_max)
    levels = [[] for _ in range(g_max + 1)]
    for gaps, _, _ in _walk(layout, [_node(layout)], g_max, 0):
        levels[len(gaps)].append(CSemigroup(cone, gaps))
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


class _ForkPool:
    """jobs forked workers that run one `map`: tasks go out as indices over
    one pipe, rows come back as one pickle per worker over its own pipe.

    The workers are forked after the tasks exist, so they inherit the tasks
    and the function and unpickle nothing. The sweep's process runs no
    threads, which is what makes fork safe here.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.pids: list[int] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # only an error leaves workers unreaped
        if self.pids:
            import signal

            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self.pids = []
        return False

    def map(self, fn, tasks, chunksize=None) -> list:
        """[fn(t) for t in tasks], run by the workers; chunksize is ignored.
        Each task index is its own 4-byte write, and a pipe write of at most
        PIPE_BUF bytes is atomic, so each 4-byte read takes exactly one
        index: a worker takes its next task when it is done with the last.
        Once every worker is reaped, raises the exception of the lowest
        failed task index, or ChildProcessError if a worker exited without
        sending its rows."""
        import pickle

        r_task, w_task = os.pipe()
        fds = [r_task, w_task]  # the ends this process holds open
        reads = []
        try:
            for _ in range(self.jobs):
                r, w = os.pipe()
                fds += (r, w)
                pid = os.fork()
                if pid == 0:  # the worker
                    code = 1
                    try:
                        for fd in fds:
                            if fd not in (r_task, w):
                                os.close(fd)
                        _work(fn, tasks, r_task, w)
                        code = 0
                    finally:
                        # never the parent's atexit handlers, stdio or caller
                        os._exit(code)
                self.pids.append(pid)
                reads.append(r)
                _close(fds, w)
            # with no reader left, a write fails instead of blocking
            _close(fds, r_task)
            try:
                for i in range(len(tasks)):
                    os.write(w_task, i.to_bytes(4, "little"))
            except BrokenPipeError:
                pass  # every worker has exited; their result pipes say why
            _close(fds, w_task)
            rows, failed, dead = {}, [], False
            for pid, r in zip(list(self.pids), reads):
                with open(r, "rb", closefd=False) as f:
                    data = f.read()
                _, status = os.waitpid(pid, 0)
                self.pids.remove(pid)
                if status or not data:
                    dead = True
                elif isinstance(out := pickle.loads(data), dict):
                    rows.update(out)
                else:
                    failed.append(out)
        finally:
            for fd in fds:
                os.close(fd)
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        if dead or len(rows) < len(tasks):
            raise ChildProcessError("a sweep worker exited without sending its rows")
        return [rows[i] for i in range(len(tasks))]


def _close(fds: list, fd: int) -> None:
    fds.remove(fd)
    os.close(fd)


def _work(fn, tasks, r_task: int, w: int) -> None:
    """A worker's loop: read task indices until EOF, then write one pickle
    to w, of {index: fn(task)} or of (index, exception) for the first task
    that raised."""
    import pickle

    out: object = {}
    while index := os.read(r_task, 4):
        i = int.from_bytes(index, "little")
        try:
            out[i] = fn(tasks[i])
        except Exception as exc:
            out = (i, exc)
            break
    with open(w, "wb") as f:
        f.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))


class _ForkContext:
    """What `get_context` returns: the pool class under the name the
    sweep, its stand-ins in the tests and the benchmark tracer share."""

    Pool = _ForkPool


def get_context():
    """The pool factory of split sweeps: `.Pool(jobs)` is a context manager
    whose `.map(fn, tasks, chunksize=None)` returns the rows in task order.
    Tests and the benchmark tracer replace it."""
    return _ForkContext


# Nodes this process has walked for the current sweep: set to the head's
# before its tasks, so the workers it forks inherit that count.
_pool_walked = 0


def _sweep_node(task) -> tuple:
    """Sweep the subtrees under the states of one level: a (count, least
    margin or None, counterexamples) row for each genus up to g_max, empty
    above the level's.

    The task is (layout, states, g_max): a layout for g_max or beyond,
    whose cap is the sweep's point budget, and the states (`_node`,
    `_kids`). The budget counts the subtrees' nodes on top of
    `_pool_walked`: the head's nodes and every node this process walked
    for the sweep's earlier tasks."""
    global _pool_walked
    layout, states, g_max = task
    nodes = _walk(layout, states, g_max, _pool_walked, True)
    rows = _rows(layout.cone, nodes, g_max)
    _pool_walked += sum(count for count, _, _ in rows)
    return rows


def _rows(cone: Cone, nodes, g_max: int) -> tuple:
    """The rows of `_sweep_node` for genus 0 to g_max over the (gaps, e, c)
    nodes, each genus in canonical order. Each node goes to `wilf_report`
    as a bare `CSemigroup` with its e preset, with its c."""
    rows = [[0, None, []] for _ in range(g_max + 1)]
    for gaps, e, c in nodes:
        s = CSemigroup(cone, gaps)
        s.__dict__["embedding_dimension"] = e
        rep = wilf_report(s, c)
        row = rows[len(gaps)]
        row[0] += 1
        if row[1] is None or rep.margin < row[1]:
            row[1] = rep.margin
        if not rep.holds:
            row[2].append((s, rep))
    return tuple((count, low, tuple(bad)) for count, low, bad in rows)


# The least estimated work, in nodes, under the split level that a split
# sweep forks for (see `wilf_sweep`)
SPLIT_MIN = 8192


def _split_pays(n_cut: int, n_above: int, depth: int) -> bool:
    """Whether the work estimated under a split level reaches SPLIT_MIN: its
    n_cut nodes, times its growth n_cut / n_above over the level above it
    for each of the depth levels below it. Exact in `int`s, which a deep
    bound cannot overflow. Only a growing estimate is multiplied, and only
    until it reaches SPLIT_MIN, so a deep bound costs few steps: each step
    grows the estimate against SPLIT_MIN by n_cut / n_above, at least
    1 + 1 / n_above, from n_cut / SPLIT_MIN of the way, so it takes at most
    about n_above * ln(SPLIT_MIN / n_cut) steps, fewer than SPLIT_MIN / e.
    The level above holds fewer than 8 * jobs nodes unless it is genus 1,
    one node per minimal generator of the gap-free root."""
    est, goal = n_cut, SPLIT_MIN
    if n_cut > n_above:
        for _ in range(depth):
            if est >= goal:
                break
            est, goal = est * n_cut, goal * n_above
    return est >= goal


def wilf_sweep(cone: Cone, g_max: int, jobs: int = 1) -> WilfSummary:
    """Run wilf_report over every semigroup of genus <= g_max.

    jobs is capped at the CPU count, and at 1 where the platform has no
    `os.fork`. With jobs > 1 this process expands the head of the tree
    breadth first (`_kids`), each state with its region, down to the split
    level: the first level of at least 8 * jobs nodes below genus 1, or
    genus g_max. The head's nodes are reported as the walk's are. If the
    split level holds 8 * jobs nodes and the work estimated under it
    reaches SPLIT_MIN (`_split_pays`), each of its nodes is one task
    (`_sweep_node`), and jobs forked workers (`get_context`) run the tasks,
    each handed out as a worker is free (Fromentin and Hivert). Otherwise
    this process sweeps the whole split level as one task, the walk that
    jobs == 1 runs from the root, and forks nothing. The rows merge in
    level order, which keeps each genus canonical, so the summary does not
    depend on jobs. The walk is charged to the point budget as it goes,
    each task on top of the head (`_pool_walked`), and the merged total
    before this returns. This process reads
    CONESEMI_CAPACITY once, into its layout, which the tasks carry.

    Like Fromentin and Hivert's walk, which spawns no work below a fixed
    depth, a split has a grain: forking the workers, importing `pickle`
    and sending the rows back cost about 15 ms from the command line on a
    2-vCPU host.
    The work under the split level is estimated as its n_cut nodes grown
    by n_cut / n_above per level down to g_max, the geometric growth of
    the levels above. A node costs about 5 us of walk, so SPLIT_MIN = 8192
    nodes is about 40 ms of walk. Two workers save at most half of that,
    and less where one subtree holds more than half of the nodes (52% on
    N^2 to genus 9, 63% to genus 11): about the fork's cost. In fresh
    processes, trees near that size (N^2 to genus 8, det-5 (2,1), (1,3) to
    genus 6, N^3 to genus 6) ran about as fast split as not, smaller ones
    no faster, and larger ones faster (the crossover table of
    BENCH_21.json).
    """
    global _pool_walked
    if g_max < 0:
        raise InvalidInput("g_max must be nonnegative")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")
    jobs = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    layout = Layout(cone, g_max)
    head, level, cut, above = [], [_node(layout)], 0, 1
    while jobs > 1 and cut < g_max and (cut < 2 or len(level) < 8 * jobs):
        head += level
        charge(len(head), WALK, layout.cap)
        above = len(level)
        level = [kid for s in level for kid in _kids(layout, s, True)]
        cut += 1
    nodes = ((s[0], s[4].bit_count(), s[3].bit_count()) for s in head)
    rows = [_rows(cone, nodes, g_max)]
    _pool_walked = len(head)
    if len(level) >= 8 * jobs and _split_pays(len(level), above, g_max - cut):
        tasks = [(layout, [s], g_max) for s in level]
        with get_context().Pool(jobs) as pool:
            rows += pool.map(_sweep_node, tasks, chunksize=1)
    else:
        rows.append(_sweep_node((layout, level, g_max)))
    genera = list(zip(*rows))  # the rows of each genus, one per part
    counts = tuple(sum(count for count, _, _ in g) for g in genera)
    # forked workers charged only their own shares
    charge(sum(counts), WALK, layout.cap)
    return WilfSummary(
        cone=cone,
        max_genus=g_max,
        counts=counts,
        min_margin=min(low for g in genera for _, low, _ in g if low is not None),
        counterexamples=tuple(x for g in genera for _, _, b in g for x in b),
    )
