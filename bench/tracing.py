"""Traced in-process replay: spans around every call into a layer.

The recorders are installed from outside the program, by replacing module
and class attributes: the functions themselves, the names other modules
bound to them at import (`wilf.make_csemigroup`, `cli.expand`, ...), the
`minimal_generators` cached_property and the multiprocessing context the
sweep opens its pools from. Pool workers are forked, inherit the
recorders, and send their spans back with each result.

A span is `[name, start, end, parent, command, count]`. Spans stay in
memory and are written out once, when the run ends. A layer's self time is
its spans' time minus the time of their child spans in the same process.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
from contextlib import contextmanager
from functools import cached_property, lru_cache
from multiprocessing import get_context
from multiprocessing.reduction import ForkingPickler

from conesemi import cli, construct, genexp, geom, render, semigroup, wilf

import refs

# span name -> per-layer self-time metric
SELF_METRICS = {
    "cli": "cli.self_s",
    "wilf.sweep": "wilf.sweep_self_s",
    "wilf.report": "wilf.report_self_s",
    "wilf.enumerate": "wilf.enumerate_self_s",
    "wilf.pool": "wilf.pool_s",
    "semigroup.msg": "semigroup.msg_s",
    "semigroup.validate": "semigroup.validate_s",
    "semigroup.ns": "semigroup.ns_s",
    "semigroup.query": "semigroup.query_s",
    "geom.lower_set": "geom.lower_set_s",
    "geom.enumerate": "geom.enumerate_s",
    "genexp.expand": "genexp.expand_self_s",
    "construct": "construct.self_s",
    "render.plot": "render.plot_s",
}

UNITS = {"semigroup.msg_yield": "ratio", "trace.overhead": "ratio", "wilf.pickle_bytes": "bytes"}

QUERIES = ("frobenius_set", "pseudo_frobenius", "apery_set", "weight_set", "quasi_elasticity", "ray_restriction")
CONSTRUCTIONS = ("idemaxial", "lower_set_semigroup", "high_elasticity", "pf_lines_check")

# The recorder pool workers find after fork; set while recorders are installed.
_RECORDER = None
_SWEEP_NODE = wilf._sweep_node


class Recorder:
    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.cmd = -1
        self.spans: list = []
        self.stack: list = []
        self.worker_spans: list = []  # one span list per task run in a pool worker
        self.pools = 0
        self.pickle_bytes = 0

    def reset(self):
        self.spans, self.stack, self.worker_spans = [], [], []
        self.pools = self.pickle_bytes = 0

    def open(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.cmd, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, name, fn, count=None):
        """`fn` with a span around each call while the recorder is active;
        `count(args, result)` fills the span's count field."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if count is not None:
                span[5] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


class _WithSpans(tuple):
    """A pool result that carries the worker's spans back to the parent."""


def _traced_sweep_node(args):
    rec = _RECORDER
    if os.getpid() == rec.pid:
        return _SWEEP_NODE(args)
    rec.spans, rec.stack = [], []
    sent = len(ForkingPickler.dumps(args))
    out = _WithSpans(_SWEEP_NODE(args))
    out.nbytes = sent + len(ForkingPickler.dumps(tuple(out)))
    out.spans = rec.spans
    return out


class _TracedPool:
    def __init__(self, ctx, rec: Recorder, args, kwargs):
        self.rec = rec
        with rec.span("wilf.pool"):
            self.pool = ctx.Pool(*args, **kwargs)
        rec.pools += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self.rec.span("wilf.pool"):
            return self.pool.__exit__(*exc)

    def map(self, fn, items, chunksize=None):
        with self.rec.span("wilf.pool"):
            results = self.pool.map(fn, items, chunksize)
            for r in results:
                self.rec.worker_spans.append(r.spans)
                self.rec.pickle_bytes += r.nbytes
            return [tuple(r) for r in results]


class _TracedContext:
    def __init__(self, ctx, rec):
        self.ctx, self.rec = ctx, rec

    def Pool(self, *args, **kwargs):
        return _TracedPool(self.ctx, self.rec, args, kwargs)


def _msg_count(args, out):
    s = args[0]
    return (len(out), s.cone, s.__dict__["_generator_region"][0], s.genus)


def install(rec: Recorder):
    """Replace the layer entry points with recording wrappers; returns a
    function that puts the originals back."""
    global _RECORDER
    CS, NS = semigroup.CSemigroup, semigroup.NumericalSemigroup
    patches = []

    def patch(owners, attr, new):
        for owner in owners:
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    patch([cli], "main", rec.wrap("cli", cli.main))
    patch([semigroup, wilf, genexp, construct], "make_csemigroup",
          rec.wrap("semigroup.validate", semigroup.make_csemigroup))
    patch([geom, semigroup, wilf, construct], "lower_set",
          rec.wrap("geom.lower_set", geom.lower_set, lambda a, out: len(out)))
    patch([geom, semigroup, construct], "enumerate_cone_points",
          rec.wrap("geom.enumerate", geom.enumerate_cone_points, lambda a, out: len(out)))
    patch([genexp, cli], "expand", rec.wrap("genexp.expand", genexp.expand, lambda a, out: out.genus))
    patch([wilf, cli], "wilf_report", rec.wrap("wilf.report", wilf.wilf_report))
    patch([wilf, cli], "wilf_sweep", rec.wrap("wilf.sweep", wilf.wilf_sweep))
    patch([wilf, cli], "enumerate_genus", rec.wrap("wilf.enumerate", wilf.enumerate_genus))
    patch([wilf], "_sweep_node", _traced_sweep_node)
    patch([wilf], "get_context", lambda *a: _TracedContext(get_context(*a), rec))
    for name in CONSTRUCTIONS:
        patch([construct], name, rec.wrap("construct", getattr(construct, name)))
    patch([render, cli], "plot", rec.wrap("render.plot", render.plot))
    for name in QUERIES:
        patch([CS], name, rec.wrap("semigroup.query", vars(CS)[name]))
    for name in ("from_gaps", "from_generators"):
        patch([NS], name, classmethod(rec.wrap("semigroup.ns", vars(NS)[name].__func__)))
    msg = cached_property(rec.wrap("semigroup.msg", vars(CS)["minimal_generators"].func, _msg_count))
    msg.__set_name__(CS, "minimal_generators")
    patch([CS], "minimal_generators", msg)
    _RECORDER = rec

    def restore():
        global _RECORDER
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        _RECORDER = None

    return restore


def unit(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


# -- aggregation ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _box_points(cone, bounds) -> int:
    """Lattice points with scaled ray coordinates in [0, b_i]: the region
    `minimal_generators` scans (its weight cap never cuts the box)."""
    if cone.full:
        n = 1
        for b in bounds:
            n *= b + 1
        return n
    (r1, r2), d, (b1, b2) = cone.rays, cone.det, bounds
    n = 0
    for u in range(b1 + 1):
        for r in range(min(d, b2 + 1)):
            if (u * r1[0] + r * r2[0]) % d == 0 and (u * r1[1] + r * r2[1]) % d == 0:
                n += (b2 - r) // d + 1
    return n


def _self_times(spans, totals, counts):
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    for s, t in zip(spans, self_t):
        name = s[0]
        totals[SELF_METRICS[name]] += t
        if name == "semigroup.msg":
            found, cone, bounds, genus = s[5]
            counts["semigroup.msg_calls"] += 1
            counts["generators_found"] += found
            counts["semigroup.msg_scanned"] += _box_points(cone, bounds) - 1 - genus
        elif name == "wilf.report":
            counts["wilf.nodes"] += 1
        elif name == "geom.lower_set":
            counts["geom.lower_set_points"] += s[5]
            if s[3] >= 0 and spans[s[3]][0] == "semigroup.validate":
                counts["semigroup.validate_checks"] += s[5]
        elif name == "geom.enumerate":
            counts["geom.enumerate_points"] += s[5]
        elif name == "genexp.expand":
            counts["genexp.expand_calls"] += 1
            counts["genexp.gaps_out"] += s[5] or 0
    return sum(self_t)


def pass_metrics(rec: Recorder, walls: list) -> tuple[dict, float]:
    totals = dict.fromkeys(SELF_METRICS.values(), 0.0)
    counts = dict.fromkeys(("wilf.nodes", "semigroup.msg_calls", "semigroup.msg_scanned", "generators_found",
                            "semigroup.validate_checks", "geom.lower_set_points", "geom.enumerate_points",
                            "genexp.expand_calls", "genexp.gaps_out"), 0)
    covered = _self_times(rec.spans, totals, counts)
    worker = sum(_self_times(spans, totals, counts) for spans in rec.worker_spans)
    found = counts.pop("generators_found")
    out = {**totals, **counts}
    out["semigroup.msg_yield"] = found / counts["semigroup.msg_scanned"] if counts["semigroup.msg_scanned"] else 0.0
    out["wilf.pools_opened"] = rec.pools
    out["wilf.pickle_bytes"] = rec.pickle_bytes
    out["trace.uncovered_s"] = sum(walls) - covered
    out["trace.worker_s"] = worker
    return out, covered


def write_spans(path, passes):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for k, (spans, workers) in enumerate(passes):
            for task, group in [(0, spans)] + [(i + 1, w) for i, w in enumerate(workers)]:
                for s in group:
                    fh.write(json.dumps([k, task, *s[:5]]) + "\n")


def replay(commands, seconds: float, spans_path) -> tuple[dict, tuple, list]:
    """Alternate plain and traced in-process passes over the commands until
    the time is spent. Returns the per-layer metrics (medians over traced
    passes); the traced pass wall time split into layer self times,
    uncovered time and pool workers' spans; and every (command, rc, stdout,
    stderr) outcome."""
    rec = Recorder()
    plain, traced, per_pass, layers, kept, outcomes = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        for tracing in (False, True):
            restore = install(rec) if tracing else None
            rec.reset()
            rec.active = tracing
            walls = []
            try:
                for i, c in enumerate(commands):
                    rec.cmd = i
                    t0 = time.perf_counter()
                    rc, out, err = refs.call_cli(c.argv, c.stdin)
                    walls.append(time.perf_counter() - t0)
                    outcomes.append((c, rc, out, err))
            finally:
                rec.active = False
                if restore:
                    restore()
            (traced if tracing else plain).append(sum(walls))
            if tracing:
                layer, covered = pass_metrics(rec, walls)
                per_pass.append(layer)
                layers.append(covered)
                kept.append((rec.spans, rec.worker_spans))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    write_spans(spans_path, kept)
    # counts repeat exactly in every pass; times are medians
    metrics = {k: per_pass[-1][k] if unit(k) in ("count", "bytes") else statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    split = (statistics.median(traced), statistics.median(layers),
             metrics["trace.uncovered_s"], metrics["trace.worker_s"])
    return metrics, split, outcomes
