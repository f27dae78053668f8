"""The one point budget: every charge site stops at CONESEMI_CAPACITY.

Each case is (what the site charges, cap, the call). Under the cap each call
must raise CapacityExceeded with the one message shape, naming its own site,
so a case cannot pass by tripping an earlier charge. The inputs are those of
the older per-site guard tests where one exists.
"""

import sys
import tracemalloc

import pytest

from conesemi import (
    Cone,
    GeneratorInput,
    NumericalSemigroup,
    RenderSpec,
    enumerate_cone_points,
    enumerate_genus,
    expand,
    lower_set,
    make_csemigroup,
    oracle_all_gapsets,
    plot,
    wilf,
    wilf_sweep,
)
from conesemi.errors import CapacityExceeded, InvalidInput

FULL2 = Cone.full_cone(2)
CONE_A = Cone.from_rays((1, 0), (1, 1))
DET20 = Cone.from_rays((1, 0), (1, 20))
WIDE = Cone.from_rays((1, 0), (1, 1000))
SKINNY = Cone.from_rays((1000, 999), (999, 998))
SKINNY_6 = Cone.from_rays((10**6, 10**6 - 1), (10**6 - 1, 10**6 - 2))

SITES = {
    "lower_set-full": ("the lower set", 100, lambda: lower_set(FULL2, (50, 50))),
    "lower_set-sector": ("the lower-set scan", 100, lambda: lower_set(CONE_A, (2000, 0))),
    # det 1000: 101 points, but the scan steps through 100,001 ray-1 coordinates
    "lower_set-sector-scan": (
        "the lower-set scan", 1000, lambda: lower_set(WIDE, (100, 0))),
    "enumerate_cone_points": (
        "the enumeration to the weight cap", 10, lambda: enumerate_cone_points(CONE_A, 100)),
    # 21 levels fit under the cap, their 231 points do not
    "enumerate_cone_points-points": (
        "the enumeration to the weight cap", 100, lambda: enumerate_cone_points(FULL2, 20)),
    # the certified region's weight cap is about 4 * 10^6 mostly empty levels
    "enumerate_cone_points-levels": (
        "the enumeration to the weight cap", 1000,
        lambda: make_csemigroup(SKINNY_6, []).minimal_generators),
    "from_generators": (
        "the reachability table", 1000, lambda: NumericalSemigroup.from_generators([150, 151])),
    "enumerate_genus": ("the genus-tree walk", 10, lambda: enumerate_genus(FULL2, 4)),
    "wilf_sweep": ("the genus-tree walk", 10, lambda: wilf_sweep(FULL2, 4)),
    # the parent walks 10 nodes to genus 2; a worker's first subtree is the 11th
    "wilf_sweep-jobs2": ("the genus-tree walk", 10, lambda: wilf_sweep(FULL2, 4, jobs=2)),
    # strips 4 * 48 * 1 = 192 > 100 >= the box 48 and the <7, 9> table 65
    "expand-strips": ("the strip sweeps", 100,
                      lambda: expand(GeneratorInput(CONE_A, ((7, 0), (9, 0), (1, 1))))),
    # det 20: the box spans 400 > 200 >= the strips' 80
    "expand-box": ("the certificate box", 200,
                   lambda: expand(GeneratorInput(DET20, tuple((1, k) for k in range(21))))),
    # the second gap's box is charged before the closure check stores its bit
    "make_csemigroup-full": ("the lower set", 1000,
                             lambda: make_csemigroup(FULL2, [(1, 0), (10**6, 0)])),
    "make_csemigroup-sector": ("the lower-set scan", 1000,
                               lambda: make_csemigroup(CONE_A, [(1, 0), (10**6, 0)])),
    "plot": ("the plot viewport", 1000,
             lambda: plot(make_csemigroup(FULL2, [(1, 0)]), RenderSpec(margin=150))),
    # 27 candidate gaps to weight 6, C(27, 3) = 2925 subsets
    "oracle_all_gapsets": ("the gap-set filter", 100, lambda: oracle_all_gapsets(FULL2, 3)),
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
    """The gap (10^6, 0) sits at bit 10^6 of its row, about 125 KB; under a
    cap of 1,000 its box is refused before that row exists."""
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
