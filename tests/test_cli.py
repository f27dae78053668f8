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
from conesemi.cli import main

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
    "msg-skinny-sector": (["msg"], '{"cone":{"type":"rays2d","rays":'
                          '[[1000000,999999],[999999,999998]]},"gaps":[]}', "1000"),
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

NEVER_AT_START = {"dataclasses", "multiprocessing"}
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
        # 23 tasks for 2 forked workers; on a 1-CPU host jobs is capped at 1
        # and this sweep does not split
        (["wilf", "sweep", "--cone", FULL2, "--max-genus", "3", "--jobs", "2"], NEVER_AT_START),
    ]
    for argv, absent in cases:
        code, modules = _probe(IMPORT_PROBE, *argv)
        assert code == 0, argv
        assert absent.isdisjoint(modules), (argv, sorted(absent.intersection(modules)))
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


@pytest.mark.parametrize("case,argv,stdin_text", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_bytes(cli, tmp_path, case, argv, stdin_text):
    if "FILE" in argv:
        path = tmp_path / "input.json"
        path.write_text(stdin_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
        stdin_text = ""
    code, out, err = cli(argv, stdin_text)
    assert (code, _pin(out), _pin(err)) == GOLDEN[case]


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
