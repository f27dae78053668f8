"""The one point budget: every charge site stops at CONESEMI_CAPACITY.

Each case is (what the site charges, cap, the call). Under the cap each call
must raise CapacityExceeded with the one message shape, naming its own site,
so a case cannot pass by tripping an earlier charge. The inputs are those of
the older per-site guard tests where one exists.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from conesemi import (
    Cone,
    CSemigroup,
    GeneratorInput,
    NumericalSemigroup,
    RenderSpec,
    enumerate_cone_points,
    enumerate_genus,
    expand,
    lower_set,
    lower_set_semigroup,
    make_csemigroup,
    oracle_all_gapsets,
    oracle_minimals,
    plot,
    wilf,
    wilf_report,
    wilf_sweep,
)
from conesemi.cli import main
from conesemi.errors import CapacityExceeded, InvalidInput
from conesemi.fme import feasible_strict
from conesemi.geom import Layout, capacity
from conesemi.semigroup import msg_weight_bound

FULL2 = Cone.full_cone(2)
CONE_A = Cone.from_rays((1, 0), (1, 1))
WIDE = Cone.from_rays((1, 0), (1, 1000))
SKINNY = Cone.from_rays((1000, 999), (999, 998))
SKINNY_6 = Cone.from_rays((10**6, 10**6 - 1), (10**6 - 1, 10**6 - 2))
SKINNY_6_FREE = make_csemigroup(SKINNY_6, [])
# the gaps on both axes up to 9
AXES_9 = make_csemigroup(FULL2, [(i, 0) for i in range(1, 10)] + [(0, i) for i in range(1, 10)])

SITES = {
    "lower_set-full": ("the lower set", 100, lambda: lower_set(FULL2, (50, 50))),
    "lower_set-sector": ("the lower-set scan", 100, lambda: lower_set(CONE_A, (2000, 0))),
    # det 1000: 101 points, but the scan steps through 100,001 ray-1 coordinates
    "lower_set-sector-scan": (
        "the lower-set scan", 1000, lambda: lower_set(WIDE, (100, 0))),
    # the grid of the box (50, 50) is 41 words and 51 rows; its 2,600 gaps are
    # listed one tuple each
    "lower_set_semigroup": ("the lower set", 100, lambda: lower_set_semigroup(FULL2, [(50, 50)])),
    "enumerate_cone_points": (
        "the enumeration to the weight cap", 10, lambda: enumerate_cone_points(CONE_A, 100)),
    # 21 levels fit under the cap, their 231 points do not
    "enumerate_cone_points-points": (
        "the enumeration to the weight cap", 100, lambda: enumerate_cone_points(FULL2, 20)),
    # the certified region's weight cap is about 4 * 10^6 mostly empty levels
    "enumerate_cone_points-levels": (
        "the enumeration to the weight cap", 1000,
        lambda: oracle_minimals(SKINNY_6_FREE, msg_weight_bound(SKINNY_6_FREE))),
    "from_generators": (
        "the reachability table", 1000, lambda: NumericalSemigroup.from_generators([150, 151])),
    # the closure check charges the grid of the gaps' box: 2,001 bits, 32 words
    "from_gaps": (
        "the lattice grid", 10, lambda: NumericalSemigroup.from_gaps(range(1, 2001))),
    "enumerate_genus": ("the genus-tree walk", 10, lambda: enumerate_genus(FULL2, 4)),
    "wilf_sweep": ("the genus-tree walk", 10, lambda: wilf_sweep(FULL2, 4)),
    # the region's grid has the 10 rows of the box (9, 9); the generator
    # region's, built after it, has 20
    "wilf_report-region": ("the lattice grid", 9, lambda: wilf_report(AXES_9)),
    "frobenius_set": ("the lattice grid", 9, lambda: AXES_9.frobenius_set("induced")),
    # the ray restrictions are read off the gaps, with no grid; the
    # generator region's grid, of the box (7, 1), has 8 rows
    "minimal_generators": (
        "the lattice grid", 7,
        lambda: CSemigroup(FULL2, ((1, 0), (2, 0), (3, 0))).minimal_generators),
    # the parent walks 10 nodes to genus 2; a worker's first subtree is the 11th
    "wilf_sweep-jobs2": ("the genus-tree walk", 10, lambda: wilf_sweep(FULL2, 4, jobs=2)),
    # the box's (48 + 7) * (1 + 1) = 110 points > 100 >= the <7, 9> table 65
    "expand-strips": ("the strip sweeps", 100,
                      lambda: expand(GeneratorInput(CONE_A, ((7, 0), (9, 0), (1, 1))))),
    # the grid of the gaps' box has 10^6 + 1 rows, charged before it is built
    "make_csemigroup-full": ("the lattice grid", 1000,
                             lambda: make_csemigroup(FULL2, [(1, 0), (10**6, 0)])),
    "make_csemigroup-sector": ("the lattice grid", 1000,
                               lambda: make_csemigroup(CONE_A, [(1, 0), (10**6, 0)])),
    "plot": ("the plot viewport", 1000,
             lambda: plot(make_csemigroup(FULL2, [(1, 0)]), RenderSpec(margin=150))),
    # 27 candidate gaps to weight 6, C(27, 3) = 2925 subsets
    "oracle_all_gapsets": ("the gap-set filter", 100, lambda: oracle_all_gapsets(FULL2, 3)),
    # 40 rows positive and 40 negative in the first variable: 1,600 combined rows
    "feasible_strict": ("the Fourier-Motzkin rows", 1000,
                        lambda: feasible_strict([(1, k) for k in range(40)]
                                                + [(-1, k) for k in range(1, 41)])),
    # 5,151 points to weight 100 pass the enumeration; 5,148 members squared do not
    "oracle_minimals": ("the pairwise scan", 10_000,
                        lambda: oracle_minimals(make_csemigroup(FULL2, [(1, 0), (0, 1)]), 100)),
    # the empty-level bound of this sector is about 4 * 10^6
    "weight_set": ("the weight-set level scan", 1000,
                   lambda: make_csemigroup(SKINNY, []).weight_set()),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_charge_site_stops_at_the_cap(site, monkeypatch):
    what, cap, call = SITES[site]
    monkeypatch.setenv("CONESEMI_CAPACITY", str(cap))
    with pytest.raises(CapacityExceeded) as info:
        call()
    assert str(info.value) == (
        f"{what} needs more than {cap} points; raise CONESEMI_CAPACITY to override"
    )


@pytest.mark.parametrize("raw", ["junk", "0", "-1"])
def test_every_charge_site_refuses_a_bad_capacity(raw, monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", raw)
    for _, _, call in SITES.values():
        with pytest.raises(InvalidInput, match="CONESEMI_CAPACITY must be"):
            call()


class _InProcessPool:
    """Stands in for the sweep's pool context: runs the tasks here, in
    order, each in a fresh worker or all in one."""

    def __init__(self, fresh_workers: bool):
        self.fresh_workers = fresh_workers
        self.started = 0

    def Pool(self, jobs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=None):
        out = []
        for task in tasks:
            if self.fresh_workers:
                wilf._pool_walked = 0
            self.started += 1
            out.append(fn(task))
        return out


@pytest.mark.usefixtures("forced_split")
@pytest.mark.parametrize("fresh_workers", [True, False])
def test_split_sweeps_charge_every_subtree_and_the_total(fresh_workers, monkeypatch):
    """FULL2 to genus 4 under --jobs 2: the parent walks the 10 nodes to
    genus 2 and hands out the 23 roots of genus 3, whose subtrees hold at
    most 10 nodes each. With the parent's 10, every subtree fits a cap of 30,
    but the 104 nodes together do not: the parent refuses the merged total.
    One worker that walks every subtree refuses its own running total."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "30")
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    pool = _InProcessPool(fresh_workers)
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    with pytest.raises(CapacityExceeded, match="the genus-tree walk needs more than 30"):
        wilf_sweep(FULL2, 4, jobs=2)
    if fresh_workers:
        assert pool.started == 23
    else:
        assert pool.started < 23


@pytest.mark.parametrize("call", [wilf_sweep, enumerate_genus])
def test_tree_walks_are_refused_exactly_past_their_node_total(call, monkeypatch):
    """FULL2 to genus 4 holds 1 + 2 + 7 + 23 + 71 = 104 nodes."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "104")
    call(FULL2, 4)
    monkeypatch.setenv("CONESEMI_CAPACITY", "103")
    with pytest.raises(CapacityExceeded, match="the genus-tree walk needs more than 103"):
        call(FULL2, 4)


class _CountingEnviron(dict):
    """Stands in for os.environ: counts the reads of CONESEMI_CAPACITY."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "CONESEMI_CAPACITY"
        return super().get(key, default)


@pytest.mark.parametrize("call", [wilf_sweep, enumerate_genus])
def test_a_tree_walk_reads_the_capacity_once(call, monkeypatch):
    """FULL2 to genus 5 is 314 nodes and, in a sweep, a box for each but the
    root; the walk reads no generator region, not even the root's."""
    env = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", env)
    call(FULL2, 5)
    assert env.reads == 1


@pytest.mark.usefixtures("forced_split")
def test_a_split_sweep_reads_the_capacity_once_in_the_parent(monkeypatch):
    """Under --jobs 2 the parent reads it once for its head levels, its
    tasks and the merged total; the tasks, here run in this process, carry
    the value and read it no more."""
    env = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    monkeypatch.setattr(wilf.os, "cpu_count", lambda: 2)
    pool = _InProcessPool(fresh_workers=True)
    monkeypatch.setattr(wilf, "get_context", lambda: pool)
    wilf_sweep(FULL2, 5, jobs=2)
    assert pool.started == 23
    assert env.reads == 1


def test_a_sweep_task_carries_the_capacity(monkeypatch):
    """A task carries the sweep's cap: it reads CONESEMI_CAPACITY 0 times,
    runs under an environment whose cap would refuse it, and is refused by
    a cap it carries one short of its subtree's nodes. The task states
    have gaps, so their regions are boxed too. Each task holds one
    (state, pending) pair of genus 2, built as the sweep's head builds it."""
    cap = capacity()
    layout = Layout(FULL2, 5, cap)
    pairs = [wilf._node(layout)]
    for _ in range(2):
        pairs = [kid for pair in pairs for kid in wilf._kids(layout, *pair, cap, True)]
    assert [state[0] for state, _ in pairs] == [s.gaps for s in enumerate_genus(FULL2, 2)[2].semigroups]
    env = _CountingEnviron(os.environ, CONESEMI_CAPACITY="1")
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(wilf, "_pool_walked", 0)
    for pair in pairs:
        wilf._pool_walked = 0
        nodes = sum(count for count, _, _ in wilf._sweep_node((layout, [pair], 5, 0, cap)))
        wilf._pool_walked = 0
        with pytest.raises(CapacityExceeded, match=f"the genus-tree walk needs more than {nodes - 1} points"):
            wilf._sweep_node((layout, [pair], 5, 0, nodes - 1))
    assert env.reads == 0


@pytest.mark.parametrize("raw", ["abc", "0"])
@pytest.mark.parametrize("argv", [
    ["wilf", "sweep", "--cone", '{"type":"full","p":2}', "--max-genus", "4"],
    ["enumerate", "--cone", '{"type":"full","p":2}', "--max-genus", "4"],
])
def test_tree_walks_refuse_a_bad_capacity(argv, raw, monkeypatch, capsys):
    monkeypatch.setenv("CONESEMI_CAPACITY", raw)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    diag = json.loads(err)
    assert (out, diag["error"]) == ("", "InvalidInput")
    assert diag["detail"].startswith("CONESEMI_CAPACITY must be")


def test_deep_sweeps_run_out_of_budget_not_of_stack(monkeypatch):
    """The walk keeps its path on an explicit stack: a sweep far deeper than
    the interpreter's recursion limit ends in CapacityExceeded."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "400")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        with pytest.raises(CapacityExceeded, match="the genus-tree walk"):
            wilf_sweep(Cone.full_cone(1), 150)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("site", ["make_csemigroup-full", "make_csemigroup-sector"])
def test_closure_check_charges_a_box_before_storing_its_row(site, monkeypatch):
    """The gap (10^6, 0) spans a grid of about 2 * 10^6 bits, 250 KB; under a
    cap of 1,000 the grid is refused before any of it exists."""
    what, cap, call = SITES[site]
    monkeypatch.setenv("CONESEMI_CAPACITY", str(cap))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded, match=f"^{what} needs more than {cap} points"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000


# the call of a huge-genus case, run in a child interpreter whose address
# space is capped at 1 GiB: a layout listed before it is charged then fails
# in seconds rather than exhausting the machine's memory
GUARDED = """
import json, resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conesemi import Cone, enumerate_genus, wilf_sweep
from conesemi.errors import CapacityExceeded
call = {"wilf_sweep": wilf_sweep, "enumerate_genus": enumerate_genus}[sys.argv[1]]
tracemalloc.start()
try:
    call(Cone.full_cone(3), 100_000)
except CapacityExceeded as exc:
    print(json.dumps([str(exc), tracemalloc.get_traced_memory()[1]]))
"""


@pytest.mark.parametrize("call", ["wilf_sweep", "enumerate_genus"])
def test_a_huge_genus_is_refused_by_its_layout_first(call):
    """N^3 to genus 10^5 lays its points out on about 4 * 10^10 lines: the
    default budget refuses the layout before any of it, or any node, is
    built."""
    out = subprocess.run([sys.executable, "-c", GUARDED, call],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout, out.stderr
    message, peak = json.loads(out.stdout)
    assert re.match("^the lattice layout needs more than", message)
    assert peak < 40_000


def test_a_leaning_sector_lays_out_in_few_words(monkeypatch):
    """On (1, 0), (999, 1000) the lean is 999: the points a * (1, 0) run
    along a diagonal of their (u, k) rows. The layout to genus 4 scans
    10 * 1000 rows and packs its 44 points of 5 bits into 4 words, so the
    whole sweep fits a cap of 10,000, the charge of its row scan."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "10000")
    lean = Cone.from_rays((1, 0), (999, 1000))
    assert Layout(lean, 4).words == 4
    assert wilf_sweep(lean, 4).counts == (1, 3, 13, 52, 197)
