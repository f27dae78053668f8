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
from conesemi.geom import lattice_box
from conesemi.semigroup import msg_weight_bound
from conesemi.wilf import _children, enumerate_genus, wilf_report, wilf_sweep

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

    def no_box(cone, x):
        raise AssertionError("enumerate_genus built a lattice box")

    monkeypatch.setattr(wilf, "lattice_box", no_box)
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


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_a_failed_worker_ends_the_sweep_and_leaves_no_child(how, full2, monkeypatch, deadline):
    """FULL2 to genus 4 under --jobs 2 hands out the 23 roots of genus 3.
    A worker's exception reaches this process, that of the lowest failed
    task; a worker that exits mid-task sends no rows, and the sweep raises
    ChildProcessError instead of waiting for them. Either way every worker
    is reaped. The workers inherit the patched _sweep_node through fork."""
    roots = enumerate_genus(full2, 3)[3].semigroups
    sweep_node = wilf._sweep_node

    def fails(task):
        if task[0] in (roots[4], roots[9]):
            if how == "dies":
                os._exit(3)
            raise InvalidInput(f"root {roots.index(task[0])}")
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


def test_sweep_jobs_are_capped_at_the_cpu_count(full2, monkeypatch):
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    assert wilf_sweep(full2, 7, jobs=100) == wilf_sweep(full2, 7, jobs=1)
    assert all(size <= os.cpu_count() for size in pool.sizes)


def test_sweep_without_os_fork_runs_in_one_process(full2, monkeypatch):
    """Where the platform has no os.fork, jobs is capped at 1."""
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    monkeypatch.delattr(wilf.os, "fork")
    assert wilf_sweep(full2, 4, jobs=2) == wilf_sweep(full2, 4, jobs=1)
    assert pool.sizes == []


def test_sweep_without_a_level_of_8_jobs_nodes_opens_no_pool(full2, monkeypatch):
    """FULL2 to genus 2 holds 1 + 2 + 7 nodes, fewer than 16 per level."""
    pool = _RecordingPool()
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    assert wilf_sweep(full2, 2, jobs=2) == wilf_sweep(full2, 2, jobs=1)
    assert pool.sizes == []


def test_sweep_split_at_the_last_genus_prints_the_bytes_of_one_job(monkeypatch, capsys):
    """FULL2 to genus 3 has levels of 1, 2, 7 and 23 nodes, so with 2 jobs
    the split level, the first of at least 16 nodes, is the last genus: the
    head builds those leaves with their generators, one pool task each."""
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
    assert [task[0].genus for task in pool.tasks] == [3] * 23


@pytest.mark.parametrize("name", TEST_CONES)
def test_sweeps_derive_no_generators_for_the_last_genus(name, request, monkeypatch):
    """A node of genus 4 in a sweep to genus 5 counts its leaves' generators
    instead of calling remove_generators."""
    cone = request.getfixturevalue(name)
    parents = []
    remove = CSemigroup.remove_generators

    def recording(s, ms):
        parents.append(s.genus)
        return remove(s, ms)

    monkeypatch.setattr(CSemigroup, "remove_generators", recording)
    wilf_sweep(cone, 5)
    assert sorted(set(parents)) == [0, 1, 2, 3]


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


@pytest.mark.parametrize("name", TEST_CONES)
def test_region_is_the_union_of_every_gap_box(name, request):
    """The boxes of the cone-maximal gaps cover those of all the gaps, on
    every tree node to genus 5 and on lower-set semigroups."""
    cone = request.getfixturevalue(name)
    semigroups = [s for level in enumerate_genus(cone, 5) for s in level.semigroups]
    semigroups += [lower_set_semigroup(cone, pts) for pts in REGION_LOWER_SETS[name]]
    for s in semigroups:
        union = set()
        for h in s.gaps:
            union.update(lattice_box(cone, h))
        assert wilf._region(s) == union


@pytest.mark.parametrize("name", TEST_CONES)
def test_sweeps_report_the_counts_of_the_carried_region(name, request, monkeypatch):
    """Every node to genus 5, from the gap-free root and from each genus-2
    root a pool worker would receive: the report built from the region the
    walk carries, and from the generators it derives or (on the last genus)
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
    sweep = wilf_sweep(cone, 5)
    assert len(seen) == sum(sweep.counts)
    for root in enumerate_genus(cone, 2)[2].semigroups:
        wilf._sweep_node((root, 5, 0, False))
    assert len(seen) == sum(sweep.counts) + sum(sweep.counts[2:])
    assert all(c is not None for _, c, _ in seen)
    # a pool root's subtree repeats its nodes: check each distinct report once
    for gaps, rep in {(s.gaps, rep) for s, _, rep in seen}:
        assert rep == wilf_report(CSemigroup(cone, gaps))


@pytest.mark.parametrize("name", TEST_CONES)
def test_children_inherit_the_rescanned_generators(name, request):
    """Below the last genus, children inherit their generators. The last
    genus is bare; the generators it scans on demand are the pairwise
    reference's (on a last genus small enough for that reference)."""
    cone = request.getfixturevalue(name)
    *inner, last = enumerate_genus(cone, 5)[1:]
    for level in inner:
        for s in level.semigroups:
            assert "minimal_generators" in vars(s)  # inherited, not scanned
            assert s.minimal_generators == CSemigroup(cone, s.gaps).minimal_generators
    small = enumerate_genus(cone, 3)[3].semigroups
    for s in last.semigroups + small:
        assert set(vars(s)) == {"cone", "gaps"}  # nothing derived
    for s in small:
        assert s.minimal_generators == oracle_minimals(s, msg_weight_bound(s))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_paths_inherit_the_rescanned_generators(full1, full2, full3, cone_a, cone_skew, data):
    """Down a random tree path to genus 9; at each node also remove a random
    minimal generator, which need not lie past the largest gap."""
    cone = data.draw(st.sampled_from([full1, full2, full3, cone_a, cone_skew, DET20]))
    s = make_csemigroup(cone, [])
    while s.genus < 9:
        m = data.draw(st.sampled_from(s.minimal_generators))
        child = s.remove_generator(m)
        assert child == make_csemigroup(cone, s.gaps + (m,))
        assert child.minimal_generators == CSemigroup(cone, child.gaps).minimal_generators
        kids = _children(s)
        if not kids:
            break
        s = data.draw(st.sampled_from(kids))
        assert s.minimal_generators == CSemigroup(cone, s.gaps).minimal_generators


def test_remove_generator_refuses_a_non_generator(s_a, full2):
    # a gap, a decomposable member, zero, and a point outside the cone
    for x in ((1, 1), (2, 0), (0, 0), (0, 1)):
        with pytest.raises(InvalidInput):
            s_a.remove_generator(x)
    # members too wide for the 4-bit fields (plus guard bits) that the
    # generators (2,0), (3,0), (0,1), (1,1) pack into: without the check on
    # the tuple, (32,0) and (33,0) pack as (0,1) and (1,1) do, and the
    # others alias generators when the fields are laid out the other way
    s = make_csemigroup(full2, [(1, 0)])
    for x in ((32, 0), (33, 0), (0, 128), (0, 192), (0, 65)):
        with pytest.raises(InvalidInput):
            s.remove_generator(x)
