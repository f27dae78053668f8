"""Wilf-type counts, tree enumeration, and the sweep harness."""

import os
import signal
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi import (
    Cone,
    CSemigroup,
    enumerate_cone_points,
    lower_set_semigroup,
    make_csemigroup,
    oracle_all_gapsets,
    oracle_minimals,
    wilf,
)
from conesemi.cli import main
from conesemi.errors import CapacityExceeded, InvalidInput
from conesemi.geom import Layout, canon_key, capacity, lattice_box, lower_set
from conesemi.semigroup import msg_weight_bound
from conesemi.wilf import enumerate_genus, wilf_report, wilf_sweep

TEST_CONES = ("full1", "full2", "full3", "cone_a", "cone_skew")
DET20 = Cone.from_rays((1, 0), (1, 20))

FULL2_GENUS2_GAPSETS = {
    frozenset(g)
    for g in (
        [(1, 0), (2, 0)],
        [(1, 0), (3, 0)],
        [(1, 0), (0, 1)],
        [(1, 0), (1, 1)],
        [(0, 1), (0, 2)],
        [(0, 1), (0, 3)],
        [(0, 1), (1, 1)],
    )
}


def test_report_s_a(s_a):
    rep = wilf_report(s_a)
    assert (rep.e, rep.n, rep.c, rep.p) == (6, 1, 3, 2)
    assert rep.margin == 0 and rep.holds


def test_report_genus0(cone_a):
    rep = wilf_report(make_csemigroup(cone_a, []))
    assert (rep.n, rep.c) == (0, 0)
    assert rep.holds


def test_report_classical_reduction(full1):
    two_three = make_csemigroup(full1, [(1,)])
    rep = wilf_report(two_three)
    assert (rep.e, rep.n, rep.c, rep.p) == (2, 1, 2, 1)
    assert rep.margin == 0
    three_five = make_csemigroup(full1, [(1,), (2,), (4,), (7,)])
    rep = wilf_report(three_five)
    assert (rep.e, rep.n, rep.c) == (2, 4, 8)
    four_six_nine = make_csemigroup(full1, [(1,), (2,), (3,), (5,), (7,), (11,)])
    rep = wilf_report(four_six_nine)
    assert (rep.e, rep.n, rep.c) == (3, 6, 12)
    assert rep.margin == 18 - 12


def test_report_classical_against_direct_count(full1):
    # n and c recomputed from the definitions on the number line
    for gaps in ([(1,)], [(1,), (2,), (4,), (7,)], [(1,), (2,), (3,), (5,), (7,), (11,)]):
        s = make_csemigroup(full1, gaps)
        frob = max(g[0] for g in gaps)
        expected_c = frob + 1
        expected_n = sum(1 for t in range(frob + 1) if s.member((t,)))
        rep = wilf_report(s)
        assert (rep.c, rep.n) == (expected_c, expected_n)


@pytest.mark.parametrize("name", TEST_CONES)
def test_report_counts_match_the_definition(name, request):
    """(e, n, c) on every node to genus 4 against the definitions: the cone
    points below some gap in the cone order, the members among them, and
    the generators a fresh region scan finds."""
    cone = request.getfixturevalue(name)
    for level in enumerate_genus(cone, 4):
        for s in level.semigroups:
            below = [a for a in enumerate_cone_points(cone, s.max_gap_weight)
                     if any(cone.leq(a, b) for b in s.gaps)]
            rep = wilf_report(s)
            assert rep.c == len(below)
            assert rep.n == sum(1 for a in below if s.member(a))
            assert rep.e == len(CSemigroup(cone, s.gaps).minimal_generators)


def test_enumerate_counts_small(full1, full2):
    assert [lv.count for lv in enumerate_genus(full1, 5)] == [1, 1, 2, 4, 7, 12]
    levels = enumerate_genus(full2, 2)
    assert [lv.count for lv in levels] == [1, 2, 7]
    assert {frozenset(s.gaps) for s in levels[2].semigroups} == FULL2_GENUS2_GAPSETS


def test_enumerate_counts_match_oracle(full2, cone_a):
    for cone in (full2, cone_a):
        counts = [lv.count for lv in enumerate_genus(cone, 3)]
        for g in range(4):
            assert counts[g] == len(oracle_all_gapsets(cone, g))


def test_enumerate_counts_match_oracle_skew(cone_skew):
    counts = [lv.count for lv in enumerate_genus(cone_skew, 2)]
    assert counts == [1, 4, 17]
    for g in range(3):
        assert counts[g] == len(oracle_all_gapsets(cone_skew, g))


def test_enumerate_counts_match_oracle_1d(full1):
    counts = [lv.count for lv in enumerate_genus(full1, 3)]
    assert counts == [1, 1, 2, 4]
    for g in range(4):
        assert counts[g] == len(oracle_all_gapsets(full1, g))


def test_enumerate_no_duplicates_and_sorted(full1, full2, full3, cone_a, cone_skew):
    for cone, g_max in [(c, 5) for c in (full1, full2, full3, cone_a, cone_skew)] + [(DET20, 3)]:
        for level in enumerate_genus(cone, g_max):
            keys = [s.sort_key() for s in level.semigroups]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_enumerate_builds_no_boxes(full2, monkeypatch):
    """Only the sweep carries the region under the gaps."""

    def no_box(*args):
        raise AssertionError("enumerate_genus built a lattice box")

    monkeypatch.setattr(wilf, "gap_grid", no_box)
    monkeypatch.setattr(Layout, "box", no_box)
    assert [lv.count for lv in enumerate_genus(full2, 4)] == [1, 2, 7, 23, 71]


def test_enumerate_children_validate(cone_skew):
    for level in enumerate_genus(cone_skew, 3):
        for s in level.semigroups:
            assert make_csemigroup(s.cone, s.gaps) == s
            assert s.genus == level.genus


def test_enumerate_capacity(full2, monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", "10")
    with pytest.raises(CapacityExceeded):
        enumerate_genus(full2, 4)


def test_enumerate_genus0(cone_skew):
    levels = enumerate_genus(cone_skew, 0)
    assert len(levels) == 1 and levels[0].count == 1


def test_monotone_sanity(full2, cone_a):
    for cone in (full2, cone_a):
        for level in enumerate_genus(cone, 3):
            for s in level.semigroups:
                rep = wilf_report(s)
                assert rep.n <= rep.c
                assert rep.c >= s.genus


def test_sweep_no_counterexamples(full2, cone_a, full1):
    for cone, g in ((full2, 4), (cone_a, 4), (full1, 8)):
        summary = wilf_sweep(cone, g)
        assert summary.counterexamples == ()
        assert summary.min_margin >= 0


def test_sweep_finds_s_a_margin(cone_a, s_a):
    levels = enumerate_genus(cone_a, 2)
    assert s_a in levels[2].semigroups
    assert wilf_report(s_a).margin == 0


@pytest.fixture
def deadline():
    """Fails a test whose forked sweep runs past 60 s instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("the sweep did not end within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.usefixtures("forced_split")
def test_sweep_lists_counterexamples_by_genus_then_canonically(full2, monkeypatch, deadline):
    """The walk visits nodes depth first, out of canonical order, and a split
    sweep merges the head's levels with its subtrees'. With every node of
    odd c counted as a counterexample, both list them by genus, then
    canonically, with the subtrees swept here or by forked workers. These
    inherit the patched wilf_report, so their CSemigroup and WilfReport
    rows come back through the result pipes."""

    def odd_c_fails(s, c=None):
        rep = wilf_report(s, c)
        return rep._replace(holds=rep.c % 2 == 0)

    forked, in_process = wilf.get_context, _RecordingPool()
    monkeypatch.setattr(wilf, "wilf_report", odd_c_fails)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    expected = [
        s for level in enumerate_genus(full2, 5) for s in level.semigroups
        if wilf_report(s).c % 2
    ]
    assert len(expected) > 100
    for jobs, context in ((1, forked), (2, lambda: in_process), (2, forked)):
        monkeypatch.setattr(wilf, "get_context", context)
        summary = wilf_sweep(full2, 5, jobs=jobs)
        assert [s for s, _ in summary.counterexamples] == expected
    assert in_process.sizes == [2]


@pytest.mark.usefixtures("forced_split")
@pytest.mark.parametrize("how", ["raises", "dies"])
def test_a_failed_worker_ends_the_sweep_and_leaves_no_child(how, full2, monkeypatch, deadline):
    """FULL2 to genus 4 under --jobs 2 hands out the 23 roots of genus 3.
    A worker's exception reaches this process, that of the lowest failed
    task; a worker that exits mid-task sends no rows, and the sweep raises
    ChildProcessError instead of waiting for them. Either way every worker
    is reaped. The workers inherit the patched _sweep_node through fork."""
    roots = [s.gaps for s in enumerate_genus(full2, 3)[3].semigroups]
    sweep_node = wilf._sweep_node

    def fails(task):
        (state, _), = task[1]
        gaps = state[0]
        if gaps in (roots[4], roots[9]):
            if how == "dies":
                os._exit(3)
            raise InvalidInput(f"root {roots.index(gaps)}")
        return sweep_node(task)

    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wilf, "_sweep_node", fails)
    expected = ChildProcessError if how == "dies" else InvalidInput
    with pytest.raises(expected) as info:
        wilf_sweep(full2, 4, jobs=2)
    if how == "raises":
        assert str(info.value) == "root 4"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _RecordingPool:
    """Stands in for the sweep's pool context: records the pool sizes asked
    for and runs the tasks here, in order."""

    def __init__(self):
        self.sizes = []
        self.tasks = []

    def Pool(self, jobs):
        self.sizes.append(jobs)
        return nullcontext(self)

    def map(self, fn, tasks, chunksize=None):
        self.tasks += tasks
        return [fn(t) for t in tasks]


@pytest.mark.usefixtures("forced_split")
def test_sweep_jobs_are_capped_at_the_cpu_count(full2, monkeypatch):
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    assert wilf_sweep(full2, 7, jobs=100) == wilf_sweep(full2, 7, jobs=1)
    assert all(size <= os.cpu_count() for size in pool.sizes)


@pytest.mark.usefixtures("forced_split")
def test_sweep_without_os_fork_runs_in_one_process(full2, monkeypatch):
    """Where the platform has no os.fork, jobs is capped at 1."""
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.delattr(wilf.os, "fork")
    assert wilf_sweep(full2, 4, jobs=2) == wilf_sweep(full2, 4, jobs=1)
    assert pool.sizes == []


@pytest.mark.usefixtures("forced_split")
def test_sweep_without_a_level_of_8_jobs_nodes_opens_no_pool(full2, monkeypatch):
    """FULL2 to genus 2 holds 1 + 2 + 7 nodes, fewer than 16 per level."""
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    assert wilf_sweep(full2, 2, jobs=2) == wilf_sweep(full2, 2, jobs=1)
    assert pool.sizes == []


@pytest.mark.usefixtures("forced_split")
def test_sweep_split_at_the_last_genus_prints_the_bytes_of_one_job(monkeypatch, capsys):
    """FULL2 to genus 3 has levels of 1, 2, 7 and 23 nodes, so with 2 jobs
    the split level, the first of at least 16 nodes, is the last genus: the
    head walks to those leaves, one pool task each."""
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    argv = ["wilf", "sweep", "--cone", '{"type":"full","p":2}', "--max-genus", "3", "--jobs"]
    outs = []
    for jobs in ("1", "2"):
        assert main(argv + [jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    wilf_sweep(Cone.full_cone(2), 3, jobs=2)
    assert [[len(state[0]) for state, _ in task[1]] for task in pool.tasks] == [[3]] * 23


DET5 = Cone.from_rays((2, 1), (1, 3))
LEAN999 = Cone.from_rays((1, 0), (999, 1000))


@pytest.mark.parametrize("cone,g_max,pools", [
    pytest.param(Cone.full_cone(2), 7, 0, id="n2-g7"),
    pytest.param(DET5, 5, 0, id="det5-g5"),
    pytest.param(Cone.full_cone(3), 4, 0, id="n3-g4"),
    pytest.param(DET20, 3, 0, id="det20-g3"),
    pytest.param(Cone.full_cone(2), 9, 1, id="n2-g9"),
    pytest.param(LEAN999, 5, 0, id="lean999-g5"),
    pytest.param(DET20, 4, 1, id="det20-g4"),
])
def test_a_sweep_splits_only_where_the_estimated_work_beats_the_fork(cone, g_max, pools,
                                                                     monkeypatch):
    """Under --jobs 2 each of these trees has a level of 16 nodes, but only
    the larger two are estimated to hold SPLIT_MIN nodes below it.
    Det-20's genus 1 already holds 16 nodes; the head still expands to
    genus 2, so that its growth is not taken from the root's child count."""
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    assert wilf_sweep(cone, g_max, jobs=2) == wilf_sweep(cone, g_max, jobs=1)
    assert pool.sizes == [2] * pools


def test_the_split_estimate_takes_few_steps_under_a_deep_bound(deadline):
    """A float estimate overflows 10^4 levels deep; the int one stops once
    it reaches SPLIT_MIN, and multiplies nothing where the levels do not
    grow, however deep the bound."""
    with pytest.raises(OverflowError):
        33 * (33 / 16) ** 10**4
    assert wilf._split_pays(33, 16, 10**4)
    assert wilf._split_pays(17, 16, 10**4)
    assert not wilf._split_pays(16, 16, 10**9)
    assert not wilf._split_pays(16, 17, 10**9)
    # a genus-2 split level may sit under a genus 1 of 8 * jobs nodes or more
    assert wilf._split_pays(22, 21, 10**9)


@pytest.mark.parametrize("name", TEST_CONES)
def test_sweeps_derive_no_generators_for_the_last_genus(name, request, monkeypatch):
    """No node of a sweep, the last genus included, builds a generator
    tuple: each node's e is the bit count of its generator mask."""
    cone = request.getfixturevalue(name)
    expected = [lv.count for lv in enumerate_genus(cone, 5)]

    def refuse(s):
        raise AssertionError(f"the sweep scanned the generators of {s.gaps}")

    monkeypatch.setattr(CSemigroup, "minimal_generators", property(refuse))
    assert list(wilf_sweep(cone, 5).counts) == expected


@pytest.mark.usefixtures("forced_split")
def test_sweep_parallel_matches_sequential(full2):
    seq = wilf_sweep(full2, 3, jobs=1)
    par = wilf_sweep(full2, 3, jobs=4)
    assert seq.to_obj() == par.to_obj()


# antichains whose lower sets leave several cone-maximal gaps
REGION_LOWER_SETS = {
    "full1": [[(40,)]],
    "full2": [[(12, 1), (7, 4), (2, 9)], [(20, 0), (0, 20), (5, 5)]],
    "full3": [[(4, 1, 0), (0, 3, 2), (1, 1, 3)]],
    "cone_a": [[(20, 3), (12, 11)], [(9, 0), (6, 5), (8, 8)]],
    "cone_skew": [[(12, 9), (6, 14)], [(5, 3), (3, 7), (4, 4)]],
}


def _region_size(s):
    """The number of cone points below some gap of s: the union of the lower
    sets of every gap, 0 and the gaps included."""
    union = set()
    for h in s.gaps:
        union.update(lower_set(s.cone, h))
    return len(union)


@pytest.mark.parametrize("name", TEST_CONES)
def test_region_is_the_union_of_every_gap_box(name, request):
    """The report's c counts the union of the boxes of all the gaps, on
    every tree node to genus 5 and on lower-set semigroups."""
    cone = request.getfixturevalue(name)
    semigroups = [s for level in enumerate_genus(cone, 5) for s in level.semigroups]
    semigroups += [lower_set_semigroup(cone, pts) for pts in REGION_LOWER_SETS[name]]
    for s in semigroups:
        assert wilf_report(s).c == _region_size(s)


def _levels(layout, genus, cap):
    """The (state, pending) pairs of each level to genus, built as the
    sweep's head builds them: counted children, level by level."""
    levels = [[wilf._node(layout)]]
    for _ in range(genus):
        levels.append([kid for pair in levels[-1] for kid in wilf._kids(layout, *pair, cap, True)])
    return levels


def _genus2_tasks(cone, g_max):
    """The split sweep's tasks for the nodes of genus 2, one each."""
    cap = capacity()
    layout = Layout(cone, g_max, cap)
    return [(layout, [pair], g_max, 0, cap) for pair in _levels(layout, 2, cap)[2]]


@pytest.mark.parametrize("name", TEST_CONES)
def test_a_task_of_mixed_depths_reports_each_genus_in_its_row(name, request):
    """A task holding the children of the first genus-1 node and the other
    genus-1 nodes returns one row for each genus 0 to g_max, whatever genus
    its first pair has: with the root and that first node, the rows give
    the sweep's counts, least margin and counterexamples."""
    cone = request.getfixturevalue(name)
    cap = capacity()
    layout = Layout(cone, 5, cap)
    first, *rest = _levels(layout, 1, cap)[1]
    rows = wilf._sweep_node((layout, wilf._kids(layout, *first, cap, True) + rest, 5, 0, cap))
    assert len(rows) == 6 and rows[0] == (0, None, ())
    sweep = wilf_sweep(cone, 5)
    assert tuple(count for count, _, _ in rows) == (0, sweep.counts[1] - 1) + sweep.counts[2:]
    assert min(low for _, low, _ in rows if low is not None) >= sweep.min_margin
    assert tuple(x for _, _, bad in rows for x in bad) == sweep.counterexamples


@pytest.mark.parametrize("name", TEST_CONES)
def test_sweeps_report_the_counts_of_the_carried_region(name, request, monkeypatch):
    """Every node to genus 5, from the gap-free root, from a --jobs 2 head
    and from each genus-2 task: the report built from the region the walk
    carries, and from the generators it derives or (on the last genus)
    counts, equals the one counted from the node's gaps alone with a
    rescan of its generators. A subtree whose points stayed in the carried
    set would inflate c for every later sibling."""
    cone = request.getfixturevalue(name)
    seen = []

    def recording(s, c=None):
        rep = wilf_report(s, c)
        seen.append((s, c, rep))
        return rep

    monkeypatch.setattr(wilf, "wilf_report", recording)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    sweep = wilf_sweep(cone, 5)
    assert len(seen) == sum(sweep.counts)
    assert wilf_sweep(cone, 5, jobs=2) == sweep
    assert len(seen) == 2 * sum(sweep.counts)
    for task in _genus2_tasks(cone, 5):
        wilf._sweep_node(task)
    assert len(seen) == 2 * sum(sweep.counts) + sum(sweep.counts[2:])
    assert all(c is not None for _, c, _ in seen)
    # a pool root's subtree repeats its nodes: check each distinct report once
    for gaps, rep in {(s.gaps, rep) for s, _, rep in seen}:
        assert rep == wilf_report(CSemigroup(cone, gaps))


@pytest.mark.parametrize("g_max,jobs,split", [(7, 1, False), (7, 2, False), (5, 2, True)],
                         ids=["jobs1", "jobs2", "jobs2-split"])
def test_a_sweep_builds_each_node_state_once(g_max, jobs, split, request, monkeypatch):
    """Every node but the root is one _child call, whether this process
    walks the whole tree, the head and then every task, or the head and
    then hands the tasks to a pool (here run in this process)."""
    calls = 0
    child = wilf._child

    def counting(*args):
        nonlocal calls
        calls += 1
        return child(*args)

    if split:
        request.getfixturevalue("forced_split")
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "_child", counting)
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    summary = wilf_sweep(Cone.full_cone(2), g_max, jobs=jobs)
    assert calls == sum(summary.counts) - 1
    assert pool.sizes == [2] * split


# trees with a level of 16 nodes whose estimated work does not pay a fork
UNSPLIT = [
    pytest.param(Cone.full_cone(2), 7, id="n2-g7"),
    pytest.param(DET5, 5, id="det5-g5"),
    pytest.param(Cone.full_cone(3), 4, id="n3-g4"),
]


@pytest.mark.parametrize("cone,g_max", UNSPLIT)
def test_an_unsplit_sweep_walks_its_split_level_as_one_task(cone, g_max, monkeypatch):
    """Under --jobs 2 an unsplit sweep hands its whole split level, every
    (state, pending) pair of it, to one _sweep_node call, as --jobs 1 hands
    it the root, and opens no pool."""
    tasks = []
    sweep_node = wilf._sweep_node

    def recording(task):
        tasks.append(task)
        return sweep_node(task)

    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "_sweep_node", recording)
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    summary = wilf_sweep(cone, g_max, jobs=2)
    assert len(tasks) == 1
    (_, pairs, _, walked, _), = tasks
    assert len(pairs) >= 16
    assert walked + sum(summary.counts[len(pairs[0][0][0]):]) == sum(summary.counts)
    assert pool.sizes == []


@pytest.mark.parametrize("cone,g_max", UNSPLIT)
def test_an_unsplit_sweep_reads_the_generator_bits_of_one_walk(cone, g_max, monkeypatch):
    """The head and the walk both expand a node through _kids, with the
    pending generators it carries, so an unsplit --jobs 2 sweep reads as
    many bits of generator masks (`_named`) as --jobs 1 and no rescan."""
    bits = []
    named = wilf._named

    def counting(layout, mask, last=()):
        bits[-1] += mask.bit_count()
        return named(layout, mask, last)

    monkeypatch.setattr(wilf, "_named", counting)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        bits.append(0)
        wilf_sweep(cone, g_max, jobs=jobs)
    assert bits[0] == bits[1]


def _walk(cone, g_max):
    """The layout for g_max and the (gaps, e, c) of each node of the
    counted walk from the root, in walk order."""
    cap = capacity()
    layout = Layout(cone, g_max, cap)
    return layout, list(wilf._walk(layout, [wilf._node(layout)], g_max, 0, cap, True))


def _children(nodes):
    """Each walked node's children, as the points they remove, in walk
    order; depth first, a node comes before its children."""
    kids = {}
    for gaps, _, _ in nodes:
        if gaps[:-1] in kids:
            kids[gaps[:-1]].append(gaps[-1])
        kids[gaps] = []
    return kids


def _past(gaps, generators):
    """The generators past the canonically largest gap, canonically sorted."""
    last = canon_key(gaps[-1]) if gaps else ()
    return sorted((m for m in generators if canon_key(m) > last), key=canon_key)


def _points(layout, mask):
    """The points of a mask of layout fields, canonically sorted."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(layout.name(low.bit_length() // layout.width))
    return tuple(x for _, x in sorted(out))


# sectors far from N^2: det 20, det 1 between two nearly parallel rays, and
# lean 999, whose grid rows each start about one step further along k
GRID_WALKS = {
    "det20": (DET20, 3),
    "skinny": (Cone.from_rays((1000, 999), (999, 998)), 4),
    "lean999": (Cone.from_rays((1, 0), (999, 1000)), 2),
}


@pytest.mark.parametrize("name", list(GRID_WALKS))
def test_grid_queries_match_the_walk_on_every_node(name):
    """Every node of the walk: `minimal_generators`, found on the grid of
    the certified region, equals the generators the walk reads from its
    layout, and the report's c, counted on the grid of the gaps' box, equals
    the c the walk carries."""
    cone, g_max = GRID_WALKS[name]
    layout, nodes = _walk(cone, g_max)
    states = {state[0]: state for level in _levels(layout, g_max, capacity()) for state, _ in level}
    assert len(states) == len(nodes)
    for gaps, _, c in nodes:
        walked = tuple(layout.names[j][1] for _, j in wilf._named(layout, states[gaps][4]))
        s = CSemigroup(cone, gaps)
        assert s.minimal_generators == walked
        assert wilf_report(s).c == c


@pytest.mark.parametrize("name", TEST_CONES)
def test_children_inherit_the_rescanned_generators(name, request):
    """Every node of the walk to genus 4: its e is the number of generators
    a region scan finds, and its children remove those past its largest
    gap, in canonical order. The nodes `enumerate_genus` returns carry
    nothing derived; the pairwise reference agrees on genus 3."""
    cone = request.getfixturevalue(name)
    _, nodes = _walk(cone, 4)
    kids = _children(nodes)
    for gaps, e, c in nodes:
        msg = CSemigroup(cone, gaps).minimal_generators
        assert e == len(msg)
        if len(gaps) < 4:
            assert kids[gaps] == _past(gaps, msg)
    for level in enumerate_genus(cone, 5):
        for s in level.semigroups:
            assert set(vars(s)) == {"cone", "gaps"}
    for s in enumerate_genus(cone, 3)[3].semigroups:
        assert s.minimal_generators == oracle_minimals(s, msg_weight_bound(s))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_paths_inherit_the_rescanned_generators(full1, full2, full3, cone_a, cone_skew, data):
    """Down a random tree path to genus 9, each state's generator mask and
    region are those a rescan finds, and its pending list holds the
    generators past its largest gap. At each node, also remove a random
    minimal generator, which need not lie past the largest gap."""
    cone = data.draw(st.sampled_from([full1, full2, full3, cone_a, cone_skew, DET20]))
    cap = capacity()
    layout = Layout(cone, 9, cap)
    node, pending = wilf._node(layout)
    while True:
        s = CSemigroup(cone, node[0])
        assert _points(layout, node[4]) == s.minimal_generators
        assert node[3].bit_count() == _region_size(s)
        assert [layout.names[j][1] for _, j in pending] == _past(s.gaps, s.minimal_generators)
        if s.genus == 9:
            break
        m = data.draw(st.sampled_from(s.minimal_generators))
        child = wilf._child(layout, node, layout.slot(m), cap, True)
        t = make_csemigroup(cone, s.gaps + (m,))
        assert _points(layout, child[4]) == t.minimal_generators
        assert child[3].bit_count() == _region_size(t)
        kids = wilf._kids(layout, node, pending, cap, True)
        if not kids:
            break
        node, pending = kids[data.draw(st.sampled_from(range(len(kids))))]


# the genus each cone's oracle test walks to at most: at genus 2 the pairwise
# scan of a det-20 node can pass the default budget (the gaps (1, 20), (2, 39)
# need 11.8 million pairs); the random-path test takes DET20 on to genus 9
ORACLE_GENUS = {"full1": 12, "full2": 6, "full3": 4, "cone_a": 6, "cone_skew": 5, "det20": 1}


def _oracle_check(layout, cone, gaps, e, c):
    """The oracle's generators of the node with these gaps, once its e and
    c are checked and its generators found in the layout."""
    s = CSemigroup(cone, gaps)
    generators = oracle_minimals(s, msg_weight_bound(s))
    assert e == len(generators)
    assert c == _region_size(s)
    assert None not in map(layout.slot, generators)
    return generators


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_walk_node_matches_the_oracle(request, data):
    """Down a random tree path to g_max, each node against the pairwise
    oracle: its e is the number of generators the oracle finds, its c the
    size of the region under its gaps, its children remove the oracle's
    generators past its largest gap, in canonical order, and every oracle
    generator lies in the layout, as its bound says. At g_max, up to three
    of the last node's leaves are checked the same way."""
    name = data.draw(st.sampled_from(sorted(ORACLE_GENUS)))
    cone = DET20 if name == "det20" else request.getfixturevalue(name)
    g_max = data.draw(st.integers(1, ORACLE_GENUS[name]))
    cap = capacity()
    layout = Layout(cone, g_max, cap)
    pair = wilf._node(layout)
    while True:
        genus = len(pair[0][0])
        (gaps, e, c), *leaves = wilf._walk(layout, [pair], genus + 1, 0, cap, True)
        generators = _oracle_check(layout, cone, gaps, e, c)
        assert [leaf[0][-1] for leaf in leaves] == _past(gaps, generators)
        if not leaves:
            break
        if genus + 1 == g_max:
            for leaf in data.draw(st.lists(st.sampled_from(leaves), max_size=3, unique=True)):
                _oracle_check(layout, cone, *leaf)
            break
        m = data.draw(st.sampled_from(leaves))[0][-1]
        pair = next(kid for kid in wilf._kids(layout, *pair, cap, True) if kid[0][0][-1] == m)


def _p_points(cone, genus):
    """The cone points whose lattice box holds at most 2 * genus + 2 points,
    found without a layout. They are closed under going down in the cone
    order, and each nonzero one is y + h for y and h among them and h a
    step: on N^p a unit vector; on a sector a ray, or the point whose
    scaled coordinates are u and the v below det with v = u * v1 mod det,
    for v1 that of the point whose first one is 1."""
    size = 2 * genus + 2
    steps = list(cone.rays)
    if not cone.full:
        (r1, r2), d = cone.rays, cone.det
        v1 = cone.scaled_coords(cone.unit_point(0))[1]
        steps += [tuple((u * a + u * v1 % d * b) // d for a, b in zip(r1, r2)) for u in range(1, d)]
    steps = [h for h in steps if len(lattice_box(cone, h)) <= size]
    points, todo = {(0,) * cone.p}, [(0,) * cone.p]
    while todo:
        x = todo.pop()
        for h in steps:
            y = tuple(a + b for a, b in zip(x, h))
            if y not in points and len(lattice_box(cone, y)) <= size:
                points.add(y)
                todo.append(y)
    return points


@pytest.mark.parametrize("name", TEST_CONES + ("det20", "lean999"))
def test_a_layout_numbers_its_points_densely(name, request):
    """To each genus up to 7, the layout's slots are 0 to |P| - 1, one for
    each point of P, in as few words as those fields take; and a point off
    the cone whose key is that of a point of P has no slot."""
    cone = {"det20": DET20, "lean999": LEAN999}.get(name) or request.getfixturevalue(name)
    top = _p_points(cone, 7)
    for genus in range(1, 8):
        points = {x for x in top if len(lattice_box(cone, x)) <= 2 * genus + 2}
        layout = Layout(cone, genus)
        assert layout.words == layout.width * len(points) // 64 + 1
        assert sorted(map(layout.slot, points)) == list(range(len(points)))
        if cone.p > 1:
            alias = layout.basis.point((0,) * (cone.p - 2) + (-1, layout.radix))
            assert not cone.contains(alias) and layout.slot(alias) is None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_walked_decomposition_count_is_exact(full1, full2, full3, cone_a, cone_skew, data):
    """Down a random tree path to genus 7, each field of a state's dec is
    the number of ordered pairs of nonzero members of P that sum to its
    point, and each bit of R says whether its point lies below some gap."""
    cone = data.draw(st.sampled_from([full1, full2, full3, cone_a, cone_skew, DET20, LEAN999]))
    cap = capacity()
    layout = Layout(cone, 7, cap)
    points = [layout.basis.point(i) for i in layout.index]
    slots = {x: j for j, x in enumerate(points)}
    field = (1 << layout.width) - 1
    node, pending = wilf._node(layout)
    while True:
        gaps, members, dec, region, _ = node
        nonzero = [x for j, x in enumerate(points) if members >> layout.width * j & 1]
        pairs = [0] * len(points)
        for a in nonzero:
            for b in nonzero:
                if (j := slots.get(tuple(s + t for s, t in zip(a, b)))) is not None:
                    pairs[j] += 1
        assert [dec >> layout.width * j & field for j in range(len(points))] == pairs
        assert dec >> layout.width * len(points) == 0
        below = [any(cone.leq(x, h) for h in gaps) for x in points]
        assert [bool(region >> layout.width * j & 1) for j in range(len(points))] == below
        assert region >> layout.width * len(points) == 0
        kids = wilf._kids(layout, node, pending, cap, True)
        if not kids:
            break
        node, pending = kids[data.draw(st.sampled_from(range(len(kids))))]
