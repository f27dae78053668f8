"""The conesemi benchmark: one client runs the CLI in a closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository (the program is imported from its
`src/`). With `--trace 0` the workload's commands run as child processes,
one at a time, pass after pass until `--seconds` are spent, and the
end-to-end metrics are printed. With `--trace 1` the same commands are
replayed in this process through `conesemi.cli.main`, alternating plain
and traced passes, and the per-layer metrics are printed. Every output is
checked in both modes. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

Inputs, caches and the spans of traced runs go to `.bench_work/` in the
checkout. Workloads, metrics and the layer map are described in
`BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170
SETUP_SAMPLES = 9
SETUP_PER_PASS = 3
MIN_PASSES = 2
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

SETUP_CODE = "import conesemi.cli as c; c.build_parser()"
LAYER_SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import conesemi.cli as c; t1 = time.perf_counter(); "
    "c.build_parser(); print(t1 - t0, time.perf_counter() - t1)"
)

# Single runs from ROADMAP item 1, reported next to the matching commands;
# they are not medians and gate nothing.
BASELINE = {
    ("sweep", "sweep N2 g7"): (2.63, "wilf_sweep, jobs=1"),
    ("sweep-jobs2", "sweep N2 g7"): (3.5, "CLI wilf sweep, --jobs 2"),
}


def digest(paths) -> tuple[str, int]:
    """Content digest and line count of the given files."""
    h = hashlib.sha256()
    lines = 0
    for path in paths:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest()[:16], lines


def git_sha() -> str | None:
    """HEAD of the checkout, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_passes(runner, commands, stdin_paths, seconds, setup):
    """Passes over the commands until `seconds` are spent (at least
    MIN_PASSES). Set-up samples are taken before each pass, so that they
    see the same machine as the passes do."""
    runner.run([], code=SETUP_CODE)  # compiles bytecode; not timed
    passes = []
    start = time.perf_counter()
    while True:
        setup.extend(runner.run([], code=SETUP_CODE).wall for _ in range(SETUP_PER_PASS))
        t0 = time.perf_counter()
        results = [runner.run(c.argv, p) for c, p in zip(commands, stdin_paths)]
        passes.append((time.perf_counter() - t0, results))
        elapsed = time.perf_counter() - start
        median = statistics.median(w for w, _ in passes)
        if len(passes) >= MIN_PASSES and elapsed + median > seconds:
            return passes


def end_to_end(workload, runner, commands, seconds, lines):
    from refs import tally

    stdin_paths = [runner.stdin_file(f"in{i:02d}.json", c.stdin) for i, c in enumerate(commands)]
    setup = []
    passes = timed_passes(runner, commands, stdin_paths, seconds, setup)
    outcomes = [(c, r.rc, r.out, r.err) for _, results in passes for c, r in zip(commands, results)]
    failed, wrong, notes = tally(outcomes)

    # A typical pass: each command's median over the passes, summed. A burst
    # of load on the machine that slows one command in one pass moves this
    # less than it moves the median of the pass totals.
    per_command = list(zip(*(results for _, results in passes)))
    cmd_median = [statistics.median(r.wall for r in rs) for rs in per_command]
    wall = sum(cmd_median)
    cmd_walls = [r.wall for rs in per_command for r in rs]
    n, k = len(cmd_walls), len(passes)
    metrics = {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(sum(statistics.median(r.cpu for r in rs) for rs in per_command), "s"),
        "peak_rss_mb": metric(statistics.median(max(r.rss_kb for r in results) / 1024 for _, results in passes), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    rows = [
        ("wall_s", metrics["wall_s"], f"sum of per-command medians over {k} passes"),
        ("cpu_s", metrics["cpu_s"], f"sum of per-command medians over {k} passes"),
        ("peak_rss_mb", metrics["peak_rss_mb"], f"median of {k} passes"),
        ("setup_s", metrics["setup_s"], f"median of {len(setup)} interpreters"),
        ("cmd_p50_s", metric(statistics.median(cmd_walls), "s"), f"{n} commands"),
        ("cmd_p90_s", metric(statistics.quantiles(cmd_walls, n=10)[-1], "s"), f"{n} commands")
        if n >= P90_MIN_SAMPLES else ("cmd_p90_s", None, f"not reported: {n} commands, needs {P90_MIN_SAMPLES}"),
        ("fail_frac", metric(failed / n, "ratio"), f"{failed} of {n} commands"),
    ]
    if workload.startswith("sweep"):
        nodes = sum(c.nodes for c in commands)
        rows.append(("nodes_per_s", metric(nodes / wall, "1/s"), f"{nodes} semigroups per pass / wall_s"))

    lines.append(f"{'metric':<14}{'value':>14}  {'unit':<6}samples")
    for name, m, samples in rows:
        value, unit = ("-", "s") if m is None else (f"{m['value']:.6g}", m["unit"])
        lines.append(f"{name:<14}{value:>14}  {unit:<6}{samples}")
    lines.append("pass wall times: " + " ".join(f"{w:.4f}" for w, _ in passes))
    lines.append("per command, median wall over passes:")
    for c, median in zip(commands, cmd_median):
        base = BASELINE.get((workload, c.label))
        note = f"   ROADMAP item 1 baseline {base[0]} s ({base[1]}, single run)" if base else ""
        lines.append(f"  {c.label:<40}{median:9.4f} s{note}")
    return metrics, n, failed, wrong, notes


def per_layer(workload, seed, runner, commands, seconds, lines):
    import tracing
    from refs import tally

    runner.run([], code=SETUP_CODE)  # compiles bytecode; not timed
    fresh = [tuple(map(float, runner.run([], code=LAYER_SETUP_CODE).out.split())) for _ in range(SETUP_SAMPLES)]
    layer, split, outcomes = tracing.replay(commands, seconds, WORK / f"spans-{workload}-{seed}.jsonl.gz")
    failed, wrong, notes = tally(outcomes)
    nodes = sum(c.nodes for c in commands)
    if layer["wilf.nodes"] != nodes:
        wrong += 1
        failed += 1
        notes.append(f"trace: wilf.nodes {layer['wilf.nodes']} per pass, but the outputs count {nodes}")
    layer["cli.import_s"] = statistics.median(f[0] for f in fresh)
    layer["cli.parser_s"] = statistics.median(f[1] for f in fresh)
    metrics = {name: metric(layer[name], tracing.unit(name)) for name in sorted(layer)}
    lines.append("traced pass {:.4f} s = layer self times {:.4f} s + uncovered {:.4f} s; "
                 "pool workers' spans {:.4f} s on top".format(*split))
    for name, m in metrics.items():
        lines.append(f"  {name:<28}{m['value']:>16.6g}  {m['unit']}")
    return metrics, len(outcomes), failed, wrong, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conesemi" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'conesemi'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import inputs
    from loop import Runner, Timeout

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    program = sorted((SRC / "conesemi").glob("*.py"))
    src_digest, src_lines = digest(program)
    cache = inputs.Cache(WORK / "cache" / digest(program + sorted(Path(__file__).parent.glob("*.py")))[0])
    run_dir = WORK / f"{args.workload}-{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    commands = inputs.WORKLOADS[args.workload](args.seed, cache)
    prepared = time.perf_counter() - t0

    lines = [
        f"conesemi benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; closed loop, 1 client",
        "meta: " + json.dumps({
            "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha(),
            "src_digest": src_digest, "src_lines": src_lines, "loadavg_start": [round(x, 2) for x in load],
            "commands_per_pass": len(commands), "inputs_digest": inputs.digest(commands),
            "inputs_and_references_s": round(prepared, 3),
        }, sort_keys=True),
    ]
    try:
        with Runner(sys.executable, SRC, run_dir, deadline) as runner:
            if args.trace:
                metrics, attempted, failed, wrong, notes = per_layer(
                    args.workload, args.seed, runner, commands, args.seconds, lines)
            else:
                metrics, attempted, failed, wrong, notes = end_to_end(
                    args.workload, runner, commands, args.seconds, lines)
    except Timeout as e:
        print(f"run stopped: {e}", file=sys.stderr)
        return 3
    lines.extend(f"FAILED {n}x {note}" for note, n in Counter(notes).most_common(20))
    print("\n".join(lines))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
