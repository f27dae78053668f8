"""Command-line surface: JSON round trips, exit codes, byte stability."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi import errors
from conesemi.cli import COMMANDS, INPUTS, _strict, build_parser, main

S_A_JSON = '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},"gaps":[[1,1],[2,2]]}'
S_B_JSON = (
    '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},'
    '"gaps":[[1,0],[1,1],[2,0],[2,2],[3,0],[3,1],[4,0]]}'
)
FULL2 = '{"type":"full","p":2}'


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(argv, stdin_text=""):
        return run_cli(argv, stdin_text, monkeypatch, capsys)

    return run


def test_frobenius_exact_bytes(cli):
    code, out, _ = cli(["frobenius"], S_A_JSON)
    assert code == 0
    assert out == '{"frobenius_set":[[2,2]]}\n'


def test_weights_exact_bytes(cli):
    code, out, _ = cli(["weights"], S_A_JSON)
    assert code == 0
    assert out == '{"excluded":[4]}\n'


def test_validate_ok(cli):
    code, out, _ = cli(["validate"], S_A_JSON)
    assert code == 0
    assert json.loads(out) == {"ok": True, "genus": 2}


def test_validate_not_closed(cli):
    code, out, err = cli(["validate"], '{"cone":{"type":"full","p":2},"gaps":[[1,1]]}')
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "NotClosed"
    assert diag["gap"] == [1, 1]
    assert sorted(map(tuple, diag["witness"])) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("argv", [
    pytest.param(["no-such-command"], id="no-such-command"),
    # Wilf counts always use the cone order, so the Wilf commands take no --order
    pytest.param(["wilf", "report", "--order", "induced"], id="wilf-report-order"),
    pytest.param(["wilf", "sweep", "--cone", '{"type":"full","p":2}', "--max-genus", "1",
                  "--order", "cone"], id="wilf-sweep-order"),
])
def test_usage_error_exits_2(cli, argv):
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 2


# Help and usage errors, which argparse writes before exiting: the exit code
# and the pins of stdout and stderr, at a fixed terminal width
PARSER_EXITS = {
    "help": (["--help"], (0, 'sha256:b9c58ed9751e0a226ab4cb87fea2e159', '')),
    "wilf-help": (["wilf", "--help"], (0, 'sha256:701cacd69eb2ecf4f3c807220268f9b6', '')),
    "wilf-sweep-help": (["wilf", "sweep", "--help"],
                        (0, 'sha256:9029ea41d442129f339b2799bc97b5e5', '')),
    "msg-help": (["msg", "--help"], (0, 'sha256:916d4d580cd424c8394acea04d8a583c', '')),
    "no-such-command": (["no-such-command"],
                        (2, '', 'sha256:71092eeac316fc1717c47a8b7ae9b8d7')),
    "empty": ([], (2, '', 'sha256:360af32723e6543a0ce78c98e9d0afda')),
    "wilf-nope": (["wilf", "nope"], (2, '', 'sha256:5b4695e20ebd5ac2493c97902bb84f14')),
    "wilf-alone": (["wilf"], (2, '', 'sha256:d70d50d7060d07ff0f089e2031dc6b89')),
    "msg-bogus": (["msg", "--bogus"], (2, '', 'sha256:dfa5993b47da051fd68ee692d6645a47')),
}


@pytest.mark.parametrize("case", list(PARSER_EXITS))
def test_help_and_usage_error_bytes(case, monkeypatch, capsys):
    argv, pinned = PARSER_EXITS[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, _pin(out), _pin(err)) == pinned


def test_malformed_json_is_domain_error(cli):
    code, _, err = cli(["validate"], "{not json")
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"


def test_gaps_expands_generators(cli):
    payload = (
        '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},'
        '"generators":[[1,0],[2,1],[3,2],[3,3],[4,4],[5,5]]}'
    )
    code, out, _ = cli(["gaps"], payload)
    assert code == 0
    assert json.loads(out)["gaps"] == [[1, 1], [2, 2]]


def test_gaps_not_cofinite_diagnostic(cli):
    payload = '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},"generators":[[2,0],[1,1]]}'
    code, _, err = cli(["gaps"], payload)
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "NotCofinite" and diag["ray"] == [1, 0]


def test_check_generators(cli):
    payload = '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},"generators":[[1,0]]}'
    code, out, _ = cli(["check-generators"], payload)
    assert code == 0
    assert json.loads(out)["is_csemigroup"] is False


def test_msg_pf_apery_elasticity_restrict(cli):
    assert json.loads(cli(["msg"], S_A_JSON)[1]) == {
        "minimal_generators": [[1, 0], [2, 1], [3, 2], [3, 3], [4, 4], [5, 5]]
    }
    assert json.loads(cli(["pf"], S_A_JSON)[1]) == {
        "pseudo_frobenius": [[1, 1], [2, 2]]
    }
    assert json.loads(cli(["apery", "--shift", "1,0"], S_A_JSON)[1]) == {
        "apery_set": [[2, 1], [3, 2]]
    }
    assert json.loads(cli(["elasticity"], S_A_JSON)[1]) == {"quasi_elasticity": "1"}
    assert json.loads(cli(["restrict", "--ray", "1"], S_A_JSON)[1])["gaps"] == [1, 2]


def test_frobenius_order_flag(cli):
    _, cone_out, _ = cli(["frobenius"], S_B_JSON)
    _, induced_out, _ = cli(["frobenius", "--order", "induced"], S_B_JSON)
    assert [3, 0] not in json.loads(cone_out)["frobenius_set"]
    assert [3, 0] in json.loads(induced_out)["frobenius_set"]


def test_apery_error_exit(cli):
    code, _, err = cli(["apery", "--shift", "2,2"], S_A_JSON)
    assert code == 1
    assert json.loads(err)["error"] == "NotAMember"


def test_construct_and_roundtrip(cli, tmp_path):
    code, out, _ = cli(
        ["construct", "idemaxial", "--cone", FULL2, "--pattern-gaps", "1,2,4,7"]
    )
    assert code == 0
    semi = json.loads(out)
    assert len(semi["gaps"]) == 18
    # emitted semigroups parse and validate
    code, out2, _ = cli(["validate"], out)
    assert code == 0 and json.loads(out2)["genus"] == 18

    cone_file = tmp_path / "cone.json"
    cone_file.write_text(FULL2)
    code, out3, _ = cli(
        ["construct", "elasticity", "--cone", str(cone_file), "--target", "7/2"]
    )
    assert code == 0
    code, out4, _ = cli(["elasticity"], out3)
    from fractions import Fraction

    assert Fraction(json.loads(out4)["quasi_elasticity"]) > Fraction(7, 2)

    code, out5, _ = cli(
        ["construct", "lower-set", "--cone", FULL2, "--points", "2,3;4,0"]
    )
    assert code == 0
    code, out6, _ = cli(["frobenius"], out5)
    assert json.loads(out6)["frobenius_set"] == [[4, 0], [2, 3]]


def test_construct_pf_lines(cli):
    code, out, _ = cli(
        ["construct", "pf-lines", "--cone", FULL2, "--pattern-gaps", "1,2,4,7"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["pattern_pf"] == [7]
    level4 = next(lv for lv in report["levels"] if lv["level"] == 4)
    assert not level4["contained"]
    assert sum(level4["counterexample"]["sum_is_gap"]) == 7


def test_enumerate(cli):
    code, out, _ = cli(["enumerate", "--cone", FULL2, "--max-genus", "3"])
    assert code == 0
    assert json.loads(out)["counts"] == [1, 2, 7, 23]
    code, out, _ = cli(["enumerate", "--cone", FULL2, "--max-genus", "1", "--full"])
    levels = json.loads(out)["levels"]
    assert levels[1]["semigroups"] == [[[0, 1]], [[1, 0]]]


def test_wilf_report_and_sweep(cli, tmp_path):
    code, out, _ = cli(["wilf", "report"], S_A_JSON)
    assert code == 0
    assert json.loads(out) == {"c": 3, "e": 6, "holds": True, "margin": 0, "n": 1, "p": 2}

    outfile = tmp_path / "report.json"
    code, out, _ = cli(
        ["wilf", "sweep", "--cone", FULL2, "--max-genus", "3", "--out", str(outfile)]
    )
    assert code == 0 and out == ""
    report = json.loads(outfile.read_text())
    assert report["counts"] == [1, 2, 7, 23]
    assert report["counterexamples"] == []
    assert report["min_margin"] == 0


@pytest.mark.usefixtures("forced_split")
def test_wilf_sweep_jobs_byte_identical(cli):
    _, seq, _ = cli(["wilf", "sweep", "--cone", FULL2, "--max-genus", "3", "--jobs", "1"])
    _, par, _ = cli(["wilf", "sweep", "--cone", FULL2, "--max-genus", "3", "--jobs", "4"])
    assert seq == par


def test_oracle_commands(cli):
    payload = '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},"generators":[[3,0],[5,0]]}'
    code, out, _ = cli(["oracle", "member", "--x", "7,0", "--cap", "10"], payload)
    assert code == 0 and json.loads(out) == {"member": False}
    code, out, _ = cli(["oracle", "minimals", "--cap", "20"], S_A_JSON)
    assert code == 0
    assert json.loads(out)["minimals"] == [[1, 0], [2, 1], [3, 2], [3, 3], [4, 4], [5, 5]]
    code, out, _ = cli(["oracle", "gapsets", "--cone", FULL2, "--genus", "2"])
    assert code == 0 and json.loads(out)["count"] == 7


def test_plot_glyph_counts(cli):
    code, svg, _ = cli(["plot"], S_A_JSON)
    assert code == 0
    assert svg.count('class="gap-cross"') == 2
    assert svg.count('class="frobenius-ring"') == 1
    code, svg_b, _ = cli(["plot"], S_B_JSON)
    assert svg_b.count('class="gap-cross"') == 7
    assert svg_b.count('class="frobenius-ring"') == 3


def test_plot_genus0_no_crosses(cli):
    code, svg, _ = cli(["plot"], '{"cone":{"type":"full","p":2},"gaps":[]}')
    assert code == 0
    assert svg.count('class="gap-cross"') == 0


def test_plot_rejects_1d(cli):
    code, _, err = cli(["plot"], '{"cone":{"type":"full","p":1},"gaps":[[1]]}')
    assert code == 1
    assert json.loads(err)["error"] == "UnsupportedDimension"


def test_plot_charges_the_viewport_to_the_budget(cli, monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", "1000")
    code, out, err = cli(["plot", "--margin", "150"], '{"cone":{"type":"full","p":2},"gaps":[[1,0]]}')
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "CapacityExceeded"
    code, _, _ = cli(["plot", "--viewport", "30,31"], S_A_JSON)
    assert code == 0  # 31 * 32 = 992 points fit


# Sizes far past the cap, some too large to print, each end in one
# CapacityExceeded line: (argv, stdin, CONESEMI_CAPACITY or None for the default).
NINES = "9" * 3000
OVER_CAPACITY = {
    "plot-viewport": (["plot", "--viewport", f"{NINES},{NINES}"],
                      '{"cone":{"type":"full","p":2},"gaps":[[1,0]]}', None),
    "elasticity-target": (["construct", "elasticity", "--cone", FULL2, "--target", "1e5000"],
                          "", None),
    "oracle-gapsets-genus": (["oracle", "gapsets", "--cone", '{"type":"full","p":1}',
                              "--genus", "8000"], "", None),
    "weights-skinny-sector": (["weights"], '{"cone":{"type":"rays2d","rays":'
                              '[[1000,999],[999,998]]},"gaps":[]}', "1000"),
}


@pytest.mark.parametrize("case", list(OVER_CAPACITY))
def test_over_capacity_is_one_error_line(case):
    argv, stdin_text, cap = OVER_CAPACITY[case]
    env = {k: v for k, v in os.environ.items() if k != "CONESEMI_CAPACITY"}
    if cap is not None:
        env["CONESEMI_CAPACITY"] = cap
    proc = subprocess.run(
        [sys.executable, "-m", "conesemi.cli", *argv],
        input=stdin_text, capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1)
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "CapacityExceeded"


def test_msg_on_a_skinny_unimodular_sector(cli, monkeypatch):
    """The rays (10^6, 10^6 - 1) and (10^6 - 1, 10^6 - 2) span a cone of det 1,
    so its gap-free semigroup is generated by the two rays. The certified
    region's grid holds 4 points, however far apart the rays' weights put
    the levels between them."""
    monkeypatch.setenv("CONESEMI_CAPACITY", "1000")
    code, out, err = cli(["msg"], '{"cone":{"type":"rays2d","rays":'
                         '[[1000000,999999],[999999,999998]]},"gaps":[]}')
    assert (code, err) == (0, "")
    assert json.loads(out) == {"minimal_generators": [[999999, 999998], [1000000, 999999]]}


def test_plot_layers_and_file(cli, tmp_path):
    svg_file = tmp_path / "out.svg"
    code, out, _ = cli(
        ["plot", "--svg", str(svg_file), "--levels", "--pf", "--generators"], S_A_JSON
    )
    assert code == 0 and out == ""
    content = svg_file.read_text()
    assert 'class="level-line"' in content
    assert 'class="pf-diamond"' in content
    assert 'class="generator-mark"' in content


def test_outputs_byte_stable(cli):
    for argv, payload in [
        (["frobenius"], S_B_JSON),
        (["msg"], S_B_JSON),
        (["plot"], S_A_JSON),
        (["wilf", "sweep", "--cone", FULL2, "--max-genus", "2"], ""),
    ]:
        _, first, _ = cli(argv, payload)
        _, second, _ = cli(argv, payload)
        assert first == second


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conesemi.cli", "frobenius"],
        input=S_A_JSON,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"frobenius_set":[[2,2]]}\n'


# Runs one command through cli.main in a fresh interpreter and prints its
# exit code and the loaded module names as one JSON line.
IMPORT_PROBE = """
import io, json, sys
from conesemi import cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(json.dumps([code, sorted(sys.modules)]))
"""

# Resolves every exported name after a bare package import.
PACKAGE_PROBE = """
import json, sys
import conesemi
bare = sorted(m for m in sys.modules if m.startswith("conesemi."))
missing = [n for n in conesemi.__all__ if getattr(conesemi, n, None) is None]
print(json.dumps([bare, missing, sorted(set(conesemi.__all__) - set(dir(conesemi)))]))
"""

# Runs the same through the process entry point, main() without argv, which
# ends the process itself: the probe line is printed from os._exit.
ENTRY_PROBE = """
import io, json, os, sys
from conesemi import cli
sys.stdout, end = io.StringIO(), os._exit
def report(code):
    sys.__stdout__.write(json.dumps([code, sorted(sys.modules)]) + "\\n")
    sys.__stdout__.flush()
    end(code)
os._exit = report
cli.main()
"""

NEVER_AT_START = {"dataclasses", "multiprocessing", "argparse", "gettext", "locale"}
QUERY_ONLY = NEVER_AT_START | {
    "inspect", "fractions", "conesemi.genexp", "conesemi.wilf",
    "conesemi.construct", "conesemi.render", "conesemi.oracle",
}


def _probe(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_import_only_what_they_run():
    gens = '{"cone":{"type":"full","p":2},"generators":[[1,0],[0,1]]}'
    cases = [
        (["msg", "--in", S_A_JSON], QUERY_ONLY),
        (["validate", "--in", S_A_JSON], QUERY_ONLY),
        (["gaps", "--in", gens], NEVER_AT_START),
        (["construct", "idemaxial", "--cone", FULL2, "--pattern-gaps", "1"], NEVER_AT_START),
        (["plot", "--in", S_A_JSON], NEVER_AT_START),
        (["wilf", "sweep", "--cone", FULL2, "--max-genus", "2", "--jobs", "1"], NEVER_AT_START),
        # the estimated work under the 23 roots of genus 3 beats the fork, so
        # they go to 2 forked workers; on a 1-CPU host jobs is capped at 1
        # and this sweep does not split
        (["wilf", "sweep", "--cone", FULL2, "--max-genus", "9", "--jobs", "2"], NEVER_AT_START),
    ]
    for argv, absent in cases:
        code, modules = _probe(IMPORT_PROBE, *argv)
        assert code == 0, argv
        assert absent.isdisjoint(modules), (argv, sorted(absent.intersection(modules)))
    code, modules = _probe(ENTRY_PROBE, "msg", "--in", S_A_JSON)
    assert code == 0 and QUERY_ONLY.isdisjoint(modules), sorted(QUERY_ONLY.intersection(modules))
    bare, missing, undir = _probe(PACKAGE_PROBE)
    assert bare == [] and missing == [] and undir == []


def test_semigroup_json_roundtrip_via_cli(cli, s_b):
    payload = json.dumps(s_b.to_obj())
    code, out, _ = cli(["validate"], payload)
    assert code == 0
    from conesemi import CSemigroup

    assert CSemigroup.from_obj(json.loads(payload)) == s_b


# -- golden bytes ----------------------------------------------------------------------
#
# Every subcommand and recipe, with the exact bytes it writes. Outputs longer
# than 80 characters are pinned by their sha256. "FILE" in argv stands for a file
# holding the case's input text, which then does not go to stdin.

S_SKEW_JSON = '{"cone":{"type":"rays2d","rays":[[2,1],[1,3]]},"gaps":[[1,1],[2,1],[1,2]]}'
GENS_A = (
    '{"cone":{"type":"rays2d","rays":[[1,0],[1,1]]},'
    '"generators":[[1,0],[2,1],[3,2],[3,3],[4,4],[5,5]]}'
)
GENS_SKEW = (
    '{"cone":{"type":"rays2d","rays":[[2,1],[1,3]]},'
    '"generators":[[1,3],[2,2],[2,3],[3,2],[2,4],[3,3],[4,2],[2,5],[3,4],[4,3],[5,3],[6,3]]}'
)
CONE_A = '{"type":"rays2d","rays":[[1,0],[1,1]]}'
GENS_NOT_COFINITE = '{"cone":%s,"generators":[[2,0],[1,1]]}' % CONE_A
GENS_ORACLE = '{"cone":%s,"generators":[[3,0],[5,0]]}' % CONE_A
SWEEP = ["wilf", "sweep", "--cone", FULL2, "--max-genus", "3"]
PATTERN = ["--cone", FULL2, "--pattern-gaps", "1,2,4,7"]

GOLDEN_CASES = [
    ("validate", ["validate"], S_A_JSON),
    ("validate-in-file", ["validate", "--in", "FILE"], S_B_JSON),
    ("validate-skew", ["validate"], S_SKEW_JSON),
    ("gaps", ["gaps"], GENS_A),
    ("gaps-skew", ["gaps"], GENS_SKEW),
    ("check-generators-ok", ["check-generators"], GENS_A),
    ("check-generators-not-cofinite", ["check-generators"], GENS_NOT_COFINITE),
    ("msg", ["msg"], S_B_JSON),
    ("msg-skew", ["msg"], S_SKEW_JSON),
    ("frobenius", ["frobenius"], S_B_JSON),
    ("frobenius-induced", ["frobenius", "--order", "induced"], S_B_JSON),
    ("pf", ["pf"], S_B_JSON),
    ("apery", ["apery", "--shift", "1,0"], S_A_JSON),
    ("weights", ["weights"], S_SKEW_JSON),
    ("elasticity", ["elasticity"], S_B_JSON),
    ("restrict", ["restrict", "--ray", "0"], S_B_JSON),
    ("construct-idemaxial", ["construct", "idemaxial", *PATTERN], ""),
    ("construct-elasticity", ["construct", "elasticity", "--cone", "FILE", "--target", "7/2"],
     FULL2),
    ("construct-lower-set", ["construct", "lower-set", "--cone", FULL2, "--points", "2,3;4,0"], ""),
    ("construct-pf-lines", ["construct", "pf-lines", *PATTERN], ""),
    ("wilf-report", ["wilf", "report"], S_A_JSON),
    ("wilf-sweep", SWEEP, ""),
    ("wilf-sweep-jobs2", SWEEP + ["--jobs", "2"], ""),
    ("enumerate", ["enumerate", "--cone", FULL2, "--max-genus", "3"], ""),
    ("enumerate-full", ["enumerate", "--cone", FULL2, "--max-genus", "2", "--full"], ""),
    ("plot", ["plot"], S_A_JSON),
    ("plot-layers", ["plot", "--levels", "--pf", "--generators", "--margin", "2"], S_B_JSON),
    ("plot-viewport", ["plot", "--viewport", "6,4"], S_SKEW_JSON),
    ("oracle-member", ["oracle", "member", "--x", "8,0", "--cap", "10"], GENS_ORACLE),
    ("oracle-minimals", ["oracle", "minimals", "--cap", "20"], S_A_JSON),
    ("oracle-gapsets", ["oracle", "gapsets", "--cone", FULL2, "--genus", "2"], ""),
    ("error-not-closed", ["validate"], '{"cone":{"type":"full","p":2},"gaps":[[1,1]]}'),
    ("error-malformed-json", ["validate"], "{not json"),
    ("error-not-a-member", ["apery", "--shift", "2,2"], S_A_JSON),
    ("error-negative-genus", ["enumerate", "--cone", FULL2, "--max-genus", "-1"], ""),
]

GOLDEN = {
    'validate': (0, '{"genus":2,"ok":true}\n', ''),
    'validate-in-file': (0, '{"genus":7,"ok":true}\n', ''),
    'validate-skew': (0, '{"genus":3,"ok":true}\n', ''),
    'gaps': (0, '{"cone":{"rays":[[1,0],[1,1]],"type":"rays2d"},"gaps":[[1,1],[2,2]]}\n', ''),
    'gaps-skew': (
        0,
        '{"cone":{"rays":[[2,1],[1,3]],"type":"rays2d"},"gaps":[[1,1],[1,2],[2,1]]}\n',
        '',
    ),
    'check-generators-ok': (0, '{"genus":2,"is_csemigroup":true}\n', ''),
    'check-generators-not-cofinite': (0, 'sha256:fce8862d73f6bf1cca79c6b55371fad0', ''),
    'msg': (0, 'sha256:f9edf7b199ccb684807d1b66fcfc3cbc', ''),
    'msg-skew': (0, 'sha256:46885aab21a5fdee8d2e8eb56f40fa4b', ''),
    'frobenius': (0, '{"frobenius_set":[[2,2],[3,1],[4,0]]}\n', ''),
    'frobenius-induced': (0, '{"frobenius_set":[[1,1],[2,0],[3,0],[2,2],[3,1],[4,0]]}\n', ''),
    'pf': (0, '{"pseudo_frobenius":[[1,1],[2,0],[3,0],[2,2],[3,1],[4,0]]}\n', ''),
    'apery': (0, '{"apery_set":[[2,1],[3,2]]}\n', ''),
    'weights': (0, '{"excluded":[1,2,3]}\n', ''),
    'elasticity': (0, '{"quasi_elasticity":"1"}\n', ''),
    'restrict': (0, '{"conductor":5,"frobenius":4,"gaps":[1,2,3,4],"multiplicity":5}\n', ''),
    'construct-idemaxial': (0, 'sha256:93398df5d59bc3ed8cde529348b72ac7', ''),
    'construct-elasticity': (0, 'sha256:9702912a8a7f9df02db1c83a8fcc4d49', ''),
    'construct-lower-set': (0, 'sha256:da146daff1bc346686b887050b04338d', ''),
    'construct-pf-lines': (0, 'sha256:5dc4ade638589c11a7c6f53e1fbec740', ''),
    'wilf-report': (0, '{"c":3,"e":6,"holds":true,"margin":0,"n":1,"p":2}\n', ''),
    'wilf-sweep': (0, 'sha256:4fa975e36d0ab16d73c82732b6b804ed', ''),
    'wilf-sweep-jobs2': (0, 'sha256:4fa975e36d0ab16d73c82732b6b804ed', ''),
    'enumerate': (0, '{"counts":[1,2,7,23]}\n', ''),
    'enumerate-full': (0, 'sha256:d70c24a09fd4e5f6b77192eb1b991f59', ''),
    'plot': (0, 'sha256:6fddaa4e2126650f0d0077f2a0cddec9', ''),
    'plot-layers': (0, 'sha256:f3e12d233964be84cfa6e8b8fee42c9d', ''),
    'plot-viewport': (0, 'sha256:b9232ccccab3c1b4a81f522785fa79a7', ''),
    'oracle-member': (0, '{"member":true}\n', ''),
    'oracle-minimals': (0, '{"minimals":[[1,0],[2,1],[3,2],[3,3],[4,4],[5,5]]}\n', ''),
    'oracle-gapsets': (0, 'sha256:d85e99b9444c3bac32706d667774925f', ''),
    'error-not-closed': (1, '', 'sha256:e6def0edee96f49fb903127a94d7711b'),
    'error-malformed-json': (1, '', 'sha256:7a763867a68e4a384081db86544e9283'),
    'error-not-a-member': (
        1,
        '',
        '{"detail":"(2, 2) is not in the semigroup","error":"NotAMember","point":[2,2]}\n',
    ),
    'error-negative-genus': (
        1,
        '',
        '{"detail":"g_max must be nonnegative","error":"InvalidInput"}\n',
    ),
}


def _pin(text: str) -> str:
    if len(text) <= 80:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


@pytest.mark.usefixtures("forced_split")
@pytest.mark.parametrize("case,argv,stdin_text", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_bytes(cli, tmp_path, case, argv, stdin_text):
    if "FILE" in argv:
        path = tmp_path / "input.json"
        path.write_text(stdin_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
        stdin_text = ""
    code, out, err = cli(argv, stdin_text)
    assert (code, _pin(out), _pin(err)) == GOLDEN[case]


# Genus-tree walks on every cone kind: each cone with the genus it is walked
# to, and the pins of `wilf sweep` (under every --jobs) and `enumerate --full`
TREE_WALKS = {
    "n1": ('{"type":"full","p":1}', 12, 'sha256:2f191ec842f074b8fc561ef422330c9e',
           'sha256:7c3c6b771769f1477620f29ea94357f5'),
    "n2": (FULL2, 6, 'sha256:fed92aca99f67db516727d0f2fdd0c25',
           'sha256:e7fe2702cb8f664c52eee459536a9061'),
    "n3": ('{"type":"full","p":3}', 4, 'sha256:c08af87b8c344b9bdfc429f04192fef1',
           'sha256:caa908fcf5b129a61a8b0e5c4856f905'),
    "cone-a": (CONE_A, 6, 'sha256:786bbb38bbb5031efe178a21ee423d5f',
               'sha256:ef20cb5dabf5ed8a8480aef2a2f71f66'),
    "skew": ('{"type":"rays2d","rays":[[2,1],[1,3]]}', 5,
             'sha256:0d9d5e62dc529f7646dc884622534877', 'sha256:c0dfd3348a4dab55996d721cadcde7aa'),
    "det20": ('{"type":"rays2d","rays":[[1,0],[1,20]]}', 4,
              'sha256:0ae67e5ee40abfd744c25af9ec1e9b2c', 'sha256:744ac4621fe69772f07c4c5cf80409cd'),
    # lean 99: the multiples of (1, 0) run along a diagonal of the layout's rows
    "lean99": ('{"type":"rays2d","rays":[[1,0],[99,100]]}', 4,
               'sha256:b570f003bdcd75130cc7b578c1edca60', 'sha256:a37c5d2807cb9cba9101a7588a66e415'),
}


@pytest.mark.usefixtures("forced_split")
@pytest.mark.parametrize("jobs", ["1", "2", "4"])
@pytest.mark.parametrize("name", list(TREE_WALKS))
def test_tree_walk_sweep_bytes(cli, name, jobs):
    cone, g_max, pinned, _ = TREE_WALKS[name]
    code, out, err = cli(["wilf", "sweep", "--cone", cone, "--max-genus", str(g_max),
                          "--jobs", jobs])
    assert (code, _pin(out), err) == (0, pinned, "")


@pytest.mark.parametrize("name", list(TREE_WALKS))
def test_tree_walk_enumerate_bytes(cli, name):
    cone, g_max, _, pinned = TREE_WALKS[name]
    code, out, err = cli(["enumerate", "--cone", cone, "--max-genus", str(g_max), "--full"])
    assert (code, _pin(out), err) == (0, pinned, "")


# N2 minus the lower set of (20, 20), genus 440: the generator region scan
# meets 882 generators, and the Wilf count unions the boxes of the maximal gaps
LOWER_SET_20 = json.dumps(
    {"cone": {"type": "full", "p": 2},
     "gaps": [[x, y] for x in range(21) for y in range(21) if x or y]}
)
LARGE_GENUS = {
    "msg": (["msg"], 'sha256:d168bdcfdf935c3303854776c173b992'),
    "wilf-report": (
        ["wilf", "report"], '{"c":441,"e":882,"holds":true,"margin":0,"n":1,"p":2}\n'),
    "plot-pf-generators": (
        ["plot", "--pf", "--generators"], 'sha256:74f584274b16d70a1c870e5ce17f7634'),
}


@pytest.mark.parametrize("case", list(LARGE_GENUS))
def test_large_genus_query_bytes(cli, case):
    argv, pinned = LARGE_GENUS[case]
    code, out, err = cli(argv, LOWER_SET_20)
    assert (code, _pin(out), err) == (0, pinned, "")


def _in_det5(x, y):
    """Whether (x, y) lies in the cone of (2, 1) and (1, 3)."""
    return 3 * x - y >= 0 and 2 * y - x >= 0


# Single-semigroup queries on large inputs: N2 minus the lower set of (100, 100)
# (genus 10,200), the det-5 sector minus the lower set of (100, 100) (genus
# 4,060), and a genus-2 node of the lean-999 sector (1, 0), (999, 1000)
N2_10200 = [[x, y] for x in range(101) for y in range(101) if x or y]
SCALE_INPUTS = {
    "n2-10200": json.dumps({"cone": json.loads(FULL2), "gaps": N2_10200}),
    "det5-4060": json.dumps(
        {"cone": {"type": "rays2d", "rays": [[2, 1], [1, 3]]},
         "gaps": [[x, y] for x in range(101) for y in range(101)
                  if (x or y) and _in_det5(x, y) and _in_det5(100 - x, 100 - y)]}),
    "lean999-2": '{"cone":{"type":"rays2d","rays":[[1,0],[999,1000]]},"gaps":[[1,0],[999,1000]]}',
}
SCALE_COMMANDS = {
    "validate": ["validate"],
    "msg": ["msg"],
    "frobenius": ["frobenius"],
    "frobenius-induced": ["frobenius", "--order", "induced"],
    "pf": ["pf"],
    "wilf-report": ["wilf", "report"],
    "plot-pf-generators": ["plot", "--pf", "--generators"],
}
# (exit code, stdout, stderr), recorded before the queries moved onto `geom.Grid`.
# The lean-999 node is not plotted: its plot is a 106 MB SVG of 2 million members.
SCALE_PINS = {
    'n2-10200:validate': (0, '{"genus":10200,"ok":true}\n', ''),
    'n2-10200:msg': (0, 'sha256:7c986fdc8ddf16edfe77cbbc3df4134a', ''),
    'n2-10200:frobenius': (0, '{"frobenius_set":[[100,100]]}\n', ''),
    'n2-10200:frobenius-induced': (0, 'sha256:7bdbb42dcc294bd2e011c1d1a61178a2', ''),
    'n2-10200:pf': (0, 'sha256:7fb35970c484e64e473fe11960906a35', ''),
    'n2-10200:wilf-report': (0, '{"c":10201,"e":20402,"holds":true,"margin":0,"n":1,"p":2}\n', ''),
    'n2-10200:plot-pf-generators': (0, 'sha256:62b1c3bee71b1d75f4c468e4e4a13a83', ''),
    'det5-4060:validate': (0, '{"genus":4060,"ok":true}\n', ''),
    'det5-4060:msg': (0, 'sha256:52b701ee720709a1e6b13abb550ce6af', ''),
    'det5-4060:frobenius': (0, '{"frobenius_set":[[100,100]]}\n', ''),
    'det5-4060:frobenius-induced': (0, 'sha256:e21bb4cb169021ad6b414383e538c29a', ''),
    'det5-4060:pf': (0, 'sha256:8ea9d5c4fd2e7e393795b56ccca4ff11', ''),
    'det5-4060:wilf-report': (0, '{"c":4061,"e":8126,"holds":true,"margin":4,"n":1,"p":2}\n', ''),
    'det5-4060:plot-pf-generators': (0, 'sha256:df9c95826b65436d3d932ec52a831d05', ''),
    'lean999-2:validate': (0, '{"genus":2,"ok":true}\n', ''),
    'lean999-2:msg': (0, 'sha256:3c5b29a2de6518dfce4cd541012a82be', ''),
    'lean999-2:frobenius': (0, '{"frobenius_set":[[1,0],[999,1000]]}\n', ''),
    'lean999-2:frobenius-induced': (0, '{"frobenius_set":[[1,0],[999,1000]]}\n', ''),
    'lean999-2:pf': (0, '{"pseudo_frobenius":[[1,0],[999,1000]]}\n', ''),
    'lean999-2:wilf-report': (0, '{"c":3,"e":7,"holds":true,"margin":1,"n":1,"p":2}\n', ''),
    'n2-10200:not-closed': (1, '', 'sha256:19fb3b63aae3c294f15d8b2bf57c3d30'),
}


@pytest.mark.parametrize("case", list(SCALE_PINS))
def test_query_bytes_at_scale(cli, case):
    name, _, command = case.partition(":")
    if command == "not-closed":
        argv, text = ["validate"], json.dumps(
            {"cone": json.loads(FULL2), "gaps": N2_10200 + [[101, 101]]})
    else:
        argv, text = SCALE_COMMANDS[command], SCALE_INPUTS[name]
    code, out, err = cli(argv, text)
    assert (code, _pin(out), _pin(err)) == SCALE_PINS[case]


# -- malformed input ---------------------------------------------------------------------
#
# Each input ends in exit 1 and one InvalidInput line on stderr naming the
# JSON path of the bad value; none may end in a traceback or be accepted.

N2 = '{"type":"full","p":2}'
MALFORMED = [
    ("no-p", ["validate"], '{"cone":{"type":"full"},"gaps":[]}', "cone.p"),
    ("p-string", ["validate"], '{"cone":{"type":"full","p":"x"},"gaps":[]}', "cone.p"),
    ("p-bool", ["validate"], '{"cone":{"type":"full","p":true},"gaps":[]}', "cone.p"),
    ("gaps-int", ["msg"], '{"cone":%s,"gaps":5}' % N2, "gaps"),
    ("rays-int", ["frobenius"], '{"cone":{"type":"rays2d","rays":5},"gaps":[]}', "cone.rays"),
    ("point-string", ["validate"], '{"cone":%s,"gaps":[[0,1],[1,"a"]]}' % N2, "gaps[1][1]"),
    ("gap-float", ["validate"], '{"cone":%s,"gaps":[[1.5,0]]}' % N2, "gaps[0][0]"),
    ("no-generators", ["check-generators"], '{"cone":%s}' % N2, "generators"),
    ("oracle-no-generators", ["oracle", "member", "--x", "1,0", "--cap", "3"],
     '{"cone":%s}' % N2, "generators"),
    # the generators are read before --x
    ("oracle-both-malformed", ["oracle", "member", "--x", "1,a", "--cap", "3"],
     '{"cone":%s,"generators":[[1,0],[0,"a"]]}' % N2, "generators[1][1]"),
    ("pattern-not-int", ["construct", "idemaxial", "--cone", N2, "--pattern-gaps", "1,x"], "",
     None),
    ("in-directory", ["validate", "--in", "DIR"], "", None),
]


@pytest.mark.parametrize("argv,stdin_text,path", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_names_the_path(cli, tmp_path, argv, stdin_text, path):
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    code, out, err = cli(argv, stdin_text)
    assert (code, out, err.count("\n")) == (1, "", 1)
    diag = json.loads(err)
    assert diag["error"] == "InvalidInput"
    if path is not None:
        assert diag["path"] == path and path in diag["detail"]


# -- fuzz: arbitrary JSON at every position of a valid input ------------------------------

ERROR_NAMES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ConesemiError)
}
FUZZ_COMMANDS = {
    "semigroup": [
        ["validate"], ["msg"], ["frobenius", "--order", "induced"], ["pf"],
        ["apery", "--shift", "1,0"], ["weights"], ["elasticity"], ["restrict", "--ray", "1"],
        ["wilf", "report"], ["plot", "--pf"], ["oracle", "minimals", "--cap", "20"],
    ],
    "generators": [
        ["gaps"], ["check-generators"], ["oracle", "member", "--x", "2,1", "--cap", "6"],
    ],
    "cone": [
        ["construct", "idemaxial", "--cone", "-", "--pattern-gaps", "1,2,4,7"],
        ["construct", "elasticity", "--cone", "-", "--target", "3"],
        ["construct", "lower-set", "--cone", "-", "--points", "2,1"],
        ["construct", "pf-lines", "--cone", "-", "--pattern-gaps", "1,2"],
        ["enumerate", "--cone", "-", "--max-genus", "2"],
        ["wilf", "sweep", "--cone", "-", "--max-genus", "2"],
        ["oracle", "gapsets", "--cone", "-", "--genus", "1"],
    ],
}
FUZZ_INPUTS = {
    "semigroup": [json.loads(S_B_JSON), json.loads(S_SKEW_JSON)],
    "generators": [json.loads(GENS_A), json.loads(GENS_SKEW)],
    "cone": [json.loads(FULL2), json.loads(CONE_A), json.loads('{"type":"full","p":3}')],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(-3, 3)
    | st.sampled_from([2**64, -(2**64), 10**400]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _positions(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _positions(child, path + (key,))


_DELETE = object()


def _mutated(obj, path, new):
    if not path:
        return new
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return obj


def _run_main(argv, stdin_text):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "kind,argv", [(k, argv) for k, cmds in FUZZ_COMMANDS.items() for argv in cmds],
    ids=[" ".join(argv) for cmds in FUZZ_COMMANDS.values() for argv in cmds],
)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_never_a_traceback(kind, argv, data):
    base = data.draw(st.sampled_from(FUZZ_INPUTS[kind]))
    path = data.draw(st.sampled_from(list(_positions(base))))
    new = data.draw(st.just(_DELETE) | JSON_VALUES if path else JSON_VALUES)
    text = json.dumps(_mutated(base, path, new))
    with mock.patch.dict(os.environ, {"CONESEMI_CAPACITY": "20000"}):
        code, out, err = _run_main(argv, text)
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] in ERROR_NAMES


# -- the strict reader against argparse --------------------------------------------------


def _options(row):
    """(flag, a value it takes or None for a store_true flag) per option of a row."""
    _, _, kind, _, extra = row
    out = []
    for flags, kwargs in [INPUTS[kind][0], *extra]:
        if "action" in kwargs:
            value = None
        elif "choices" in kwargs:
            value = kwargs["choices"][-1]
        else:
            value = "2" if kwargs.get("type") is int else "1,2"
        out.append((flags[0], value))
    return out


def _parsed(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"the strict reader took a line argparse refuses: {argv}")


ODD_VALUES = ["-1", "", "--", "1e3", "x", "nope", "cone", "{}", "7/2", " 3"]
ODD_WORDS = ["-h", "--help", "--", "bogus", "--bogus", "-", "wilf", "--in=x"]


@st.composite
def _lines(draw):
    """A command line from the table: mostly well formed, each option now and
    then missing, repeated, abbreviated, in the = form, bare or given an odd value."""
    row = draw(st.sampled_from(COMMANDS))
    words = row[0].split(" ")
    if draw(st.integers(0, 9)) == 0:
        words = draw(st.sampled_from([words[:1], words + ["extra"], ["nope", *words[1:]]]))
    tokens = []
    for flag, value in _options(row):
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
            form = draw(st.sampled_from(["full"] * 10 + ["abbrev", "equals", "odd", "alone"]))
            spelled = flag
            if form == "abbrev" and len(flag) > 3:
                spelled = flag[:draw(st.integers(3, len(flag) - 1))]
            if value is None or form == "alone":
                tokens.append([spelled])
            elif form == "equals":
                tokens.append([f"{flag}={value}"])
            else:
                odd = draw(st.sampled_from(ODD_VALUES))
                tokens.append([spelled, odd if form == "odd" else value])
    if draw(st.integers(0, 4)) == 0:
        tokens.append([draw(st.sampled_from(ODD_WORDS))])
    return words + [w for token in draw(st.permutations(tokens)) for w in token]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_lines())
def test_strict_reader_agrees_with_argparse(argv):
    """The strict reader either declines a line or reads it as argparse does."""
    ns = _strict(argv)
    if ns is not None:
        assert vars(ns) == _parsed(argv)


@pytest.mark.parametrize("argv", [
    [], ["wilf"], ["nope"], ["msg", "--help"], ["msg", "-h"], ["msg", "--in"],
    ["msg", "--in=x"], ["msg", "--in", "x", "--in", "y"], ["msg", "--", "x"],
    ["msg", "--in", "-"], ["frobenius", "--order", "nope"], ["restrict", "--ray", "1e3"],
    ["restrict", "--ray", "-1"], ["restrict"], ["wilf", "sweep", "--cone", FULL2],
    ["enumerate", "--cone", FULL2, "--max-gen", "3"], ["plot", "--pf", "x"],
], ids=" ".join)
def test_strict_reader_declines(argv):
    assert _strict(argv) is None


# the command shapes the benchmark's four workloads run, spelled by hand
BENCH_SHAPES = [
    ["wilf", "sweep", "--cone", FULL2, "--max-genus", "7", "--jobs", "1"],
    ["wilf", "sweep", "--cone", FULL2, "--max-genus", "7", "--jobs", "2"],
    ["gaps"], ["check-generators"],
    ["validate"], ["msg"], ["frobenius"], ["pf"], ["apery", "--shift", "2,1"], ["weights"],
    ["elasticity"], ["restrict", "--ray", "1"], ["wilf", "report"],
    ["plot"], ["plot", "--levels", "--pf", "--generators"],
    ["construct", "idemaxial", "--cone", FULL2, "--pattern-gaps", "1,2,4,7"],
    ["construct", "lower-set", "--cone", FULL2, "--points", "2,1;0,3"],
    ["construct", "elasticity", "--cone", FULL2, "--target", "7/2"],
    ["construct", "pf-lines", "--cone", FULL2, "--pattern-gaps", "1,2"],
    ["enumerate", "--cone", FULL2, "--max-genus", "3", "--full"],
]


@pytest.mark.parametrize("argv", [
    *[row[0].split(" ") + [w for flag, value in _options(row)
                           for w in ([flag] if value is None else [flag, value])]
      for row in COMMANDS],
    *BENCH_SHAPES,
], ids=lambda argv: " ".join(w for w in argv if not w.startswith("{")))
def test_strict_reader_reads_full_spellings(argv):
    ns = _strict(argv)
    assert ns is not None and vars(ns) == _parsed(argv)


# -- the process entry point: it ends once its output is flushed -------------------------


def _fresh(argv, stdin_text=""):
    return subprocess.run([sys.executable, "-m", "conesemi.cli", *argv], input=stdin_text,
                          capture_output=True, text=True, timeout=120)


def test_a_large_output_arrives_whole():
    argv, text = ["plot", "--margin", "150"], '{"cone":{"type":"full","p":2},"gaps":[[1,0]]}'
    proc = _fresh(argv, text)
    assert len(proc.stdout) > 10**6
    assert (proc.returncode, proc.stdout, proc.stderr) == _run_main(argv, text)


def test_output_files_are_complete(tmp_path):
    for argv, stdin_text in [
        (["plot", "--svg", "FILE", "--margin", "40", "--levels"], S_A_JSON),
        (["wilf", "sweep", "--cone", FULL2, "--max-genus", "6", "--out", "FILE"], ""),
    ]:
        path = tmp_path / argv[0]
        argv = [str(path) if a == "FILE" else a for a in argv]
        proc = _fresh(argv, stdin_text)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        fresh = path.read_text()
        assert _run_main(argv, stdin_text) == (0, "", "") and path.read_text() == fresh


def test_exit_codes_of_a_fresh_process():
    proc = _fresh(["frobenius"], S_A_JSON)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"frobenius_set":[[2,2]]}\n', "")
    proc = _fresh(["apery", "--shift", "2,2"], S_A_JSON)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1)
    assert json.loads(proc.stderr)["error"] == "NotAMember"
    proc = _fresh(["msg", "--bogus"], S_A_JSON)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("error: unrecognized arguments: --bogus\n")


def test_main_with_argv_returns_its_code():
    assert _run_main(["validate"], S_A_JSON)[0] == 0
    assert _run_main(["apery", "--shift", "2,2"], S_A_JSON)[0] == 1
