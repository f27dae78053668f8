"""The benchmark tracer still finds every entry point it patches.

`bench/tracing.py` installs its recorders by replacing module and class
attributes by name; a renamed attribute would only show as a failure of
`bench/run.py --trace 1`. This runs a small sweep under the tracer.
"""

import sys
from pathlib import Path

import pytest

from conesemi import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import tracing

    return tracing


@pytest.mark.parametrize("jobs,split", [
    pytest.param(1, True, id="1"),
    pytest.param(2, True, id="2"),
    pytest.param(2, False, id="2-unsplit"),
])
def test_tracer_records_the_sweep_layers(tracing, jobs, split, request, capsys):
    """Split, the tasks run in forked workers and send their spans back;
    unsplit, this process runs them through the tracer's sweep node."""
    if split:
        request.getfixturevalue("forced_split")
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    rec.active = True
    try:
        code = cli.main(["wilf", "sweep", "--cone", '{"type":"full","p":2}',
                         "--max-genus", "3", "--jobs", str(jobs)])
    finally:
        rec.active = False
        restore()
    assert code == 0 and capsys.readouterr().out
    spans = rec.spans + [s for worker in rec.worker_spans for s in worker]
    names = [s[0] for s in spans]
    assert {"wilf.sweep", "wilf.report"} <= set(names)
    assert names.count("wilf.report") == 1 + 2 + 7 + 23
    assert names.count("semigroup.msg") == 0  # e comes from the walk's masks
    assert rec.pools == (split and jobs > 1)  # one pool for the whole sweep


S_A = '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},"gaps":[[1,1],[2,2]]}'
GENS = '{"cone":{"type":"full","p":2},"generators":[[2,0],[3,0],[0,1],[1,1]]}'


@pytest.mark.parametrize("argv,span", [
    (["gaps", "--in", GENS], "genexp.expand"),
    (["plot", "--in", S_A], "render.plot"),
    (["wilf", "report", "--in", S_A], "wilf.report"),
    (["enumerate", "--cone", '{"type":"full","p":2}', "--max-genus", "2"], "wilf.enumerate"),
])
def test_tracer_records_the_lazily_bound_cli_names(tracing, argv, span, capsys):
    """cli imports these commands' modules when they run; the tracer's
    patched `cli` names must still be the ones the rows call, also after an
    untraced run has imported them."""
    assert cli.main(argv) == 0
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    rec.active = True
    try:
        code = cli.main(argv)
    finally:
        rec.active = False
        restore()
    assert code == 0 and capsys.readouterr().out
    assert [s[0] for s in rec.spans].count(span) == 1
