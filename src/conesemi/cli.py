"""Command-line surface: JSON in, JSON (or SVG) out, byte-stable.

Cone and semigroup objects travel as JSON: a cone is
``{"type":"full","p":2}`` or ``{"type":"rays2d","rays":[[1,0],[1,1]]}``
(optionally wrapped in ``{"cone": ...}``), a semigroup is
``{"cone": ..., "gaps": [[1,1],[2,2]]}`` and a generating set is
``{"cone": ..., "generators": [[1,0],[2,1]]}``. Coordinates and ``p`` must be
JSON integers; a value of the wrong shape is an InvalidInput error naming its
JSON path.

Results go to stdout with sorted keys and sorted point lists; diagnostics go
to stderr. Exit codes: 0 success, 1 domain error, 2 usage error. The env var
CONESEMI_CAPACITY overrides the default point-count cap.

A command loads only the modules it runs: every semigroup query needs just
`geom` and `semigroup`, and the rest of the package is imported when a
command first calls into it.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from .errors import ConesemiError, InvalidInput
from .geom import Cone, json_field, json_points
from .semigroup import CSemigroup, NumericalSemigroup


def _lib(name: str):
    """The conesemi module of that name, imported on its first use."""
    return import_module(f"{__package__}.{name}")


# The commands' entry points into other modules stay names of this module,
# which the rows look up at run time; each imports its module when called.


def expand(g):
    return _lib("genexp").expand(g)


def wilf_report(s):
    return _lib("wilf").wilf_report(s)


def wilf_sweep(cone, g_max, jobs=1):
    return _lib("wilf").wilf_sweep(cone, g_max, jobs=jobs)


def enumerate_genus(cone, g_max):
    return _lib("wilf").enumerate_genus(cone, g_max)


def plot(s, spec=None):
    return _lib("render").plot(s, spec)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_json(source: str | None):
    """Decoded JSON from stdin (None or "-"), inline text starting with "{",
    or a file; anything unreadable or malformed is InvalidInput."""
    try:
        if source is None or source == "-":
            return json.load(sys.stdin)
        if source.lstrip().startswith("{"):
            return json.loads(source)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InvalidInput(f"cannot read input: {e}")
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and over-long integers
        raise InvalidInput(f"malformed JSON input: {e}")


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers such as 2,3; the empty string is no integers."""
    try:
        return tuple(int(t) for t in text.split(",")) if text else ()
    except ValueError:
        raise InvalidInput(f"expected comma-separated integers, got {text!r}")


def _fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"expected a rational like 7 or 16/3, got {text!r}")


def _pattern(cone: Cone, a):
    pattern = NumericalSemigroup.from_gaps(_ints(a.pattern_gaps))
    return _lib("construct").IdemaxialSpec(cone, pattern)


def _enumerate(cone: Cone, a) -> dict:
    levels = enumerate_genus(cone, a.max_genus)
    obj: dict = {"counts": [lv.count for lv in levels]}
    if a.full:
        obj["levels"] = [
            {"genus": lv.genus, "semigroups": [s.gaps for s in lv.semigroups]} for lv in levels
        ]
    return obj


def _plot(s: CSemigroup, a) -> str:
    viewport = None
    if a.viewport:
        viewport = _ints(a.viewport)
        if len(viewport) != 2:
            raise InvalidInput("viewport takes two bounds, e.g. 8,8")
    spec = _lib("render").RenderSpec(viewport=viewport, margin=a.margin, show_levels=a.levels,
                                     show_pf=a.pf, show_generators=a.generators)
    return plot(s, spec)


def _oracle_member(obj, a) -> dict:
    # any dimension, unlike GeneratorInput, which serves the 2D expansion
    cone = Cone.from_obj(json_field(obj, "cone"))
    gens = json_points(json_field(obj, "generators"), "generators")
    return {"member": _lib("oracle").oracle_member(cone, gens, _ints(a.x), a.cap)}


def _oracle_gapsets(cone: Cone, a) -> dict:
    sets = _lib("oracle").oracle_all_gapsets(cone, a.genus, a.cap)
    return {"count": len(sets), "gap_sets": sets}


# -- command table -------------------------------------------------------------
#
# One row per command: (path, help, input, run, extra arguments). The input
# kind names the option that supplies the JSON (--in or --cone) and its
# decoder; run takes the decoded input and the parsed arguments and returns a
# JSON-ready object, or a string written as is. Rows call module-level names
# at run time, so replacing e.g. `cli.expand` takes effect, and reach other
# modules through `_lib` only when they run.


def _arg(*flags, **kwargs):
    return flags, kwargs


IN = _arg("--in", dest="source", metavar="FILE", help="input JSON file (default: stdin)")
CONE = _arg("--cone", dest="source", metavar="CONE", required=True,
            help="cone JSON file or inline JSON")
INPUTS = {
    "semigroup": (IN, CSemigroup.from_obj),
    "generators": (IN, lambda obj: _lib("genexp").GeneratorInput.from_obj(obj)),
    "json": (IN, lambda obj: obj),
    "cone": (CONE, Cone.from_obj),
}

GROUPS = {
    "construct": ("recipe", "build semigroups from recipes"),
    "wilf": ("action", "Wilf-type counts and sweeps"),
    "oracle": ("what", "slow reference computations"),
}

MAX_GENUS = _arg("--max-genus", type=int, required=True)
PATTERN = _arg("--pattern-gaps", required=True, metavar="LIST", help="e.g. 1,2,4,7")

COMMANDS = [
    ("validate", "check a semigroup JSON and report its genus", "semigroup",
     lambda s, a: {"ok": True, "genus": s.genus}, []),
    ("gaps", "expand a generating set into its gap set", "generators",
     lambda g, a: expand(g).to_obj(), []),
    ("check-generators", "decide whether generators span a cofinite semigroup", "generators",
     lambda g, a: _lib("genexp").is_csemigroup(g).to_obj(), []),
    ("msg", "minimal generating set", "semigroup",
     lambda s, a: {"minimal_generators": s.minimal_generators}, []),
    ("frobenius", "maximal gaps under the chosen order", "semigroup",
     lambda s, a: {"frobenius_set": s.frobenius_set(order=a.order)},
     [_arg("--order", choices=("cone", "induced"), default="cone",
           help="partial order used for maximality (default: cone)")]),
    ("pf", "pseudo-Frobenius gaps", "semigroup",
     lambda s, a: {"pseudo_frobenius": s.pseudo_frobenius()}, []),
    ("apery", "Apery set relative to a member", "semigroup",
     lambda s, a: {"apery_set": s.apery_set(_ints(a.shift))},
     [_arg("--shift", required=True, metavar="X,Y", help="nonzero member b")]),
    ("weights", "weight set as its excluded levels", "semigroup",
     lambda s, a: s.weight_set().to_obj(), []),
    ("elasticity", "quasi-elasticity of the Frobenius weights", "semigroup",
     lambda s, a: {"quasi_elasticity": str(s.quasi_elasticity())}, []),
    ("restrict", "numerical semigroup on an extremal ray", "semigroup",
     lambda s, a: s.ray_restriction(a.ray).to_obj(),
     [_arg("--ray", type=int, required=True, help="ray index (0-based)")]),
    ("construct idemaxial", "idemaxial semigroup from a pattern", "cone",
     lambda c, a: _lib("construct").idemaxial(_pattern(c, a)).to_obj(), [PATTERN]),
    ("construct elasticity", "semigroup with quasi-elasticity beyond a target", "cone",
     lambda c, a: _lib("construct").high_elasticity(c, _fraction(a.target)).to_obj(),
     [_arg("--target", required=True, help="rational target, e.g. 10 or 7/2")]),
    ("construct lower-set", "remove the lower sets of given points", "cone",
     lambda c, a: _lib("construct").lower_set_semigroup(
         c, [_ints(p) for p in a.points.split(";") if p]).to_obj(),
     [_arg("--points", required=True, metavar="PTS", help="e.g. 1,1;10,0")]),
    ("construct pf-lines", "pseudo-Frobenius line report for an idemaxial pattern", "cone",
     lambda c, a: _lib("construct").pf_lines_check(_pattern(c, a)).to_obj(), [PATTERN]),
    ("wilf report", "counts e, n, c and the margin for one semigroup", "semigroup",
     lambda s, a: wilf_report(s).to_obj(), []),
    ("wilf sweep", "check every semigroup up to a genus bound", "cone",
     lambda c, a: wilf_sweep(c, a.max_genus, jobs=a.jobs).to_obj(),
     [MAX_GENUS,
      _arg("--jobs", type=int, default=1,
           help="parallel workers (default 1, at most the CPU count; "
                "1 without os.fork)"),
      _arg("--out", metavar="FILE", help="write report JSON here")]),
    ("enumerate", "count (and list) semigroups by genus", "cone", _enumerate,
     [MAX_GENUS, _arg("--full", action="store_true", help="include the gap sets per genus")]),
    ("plot", "render a 2D semigroup as SVG", "semigroup", _plot,
     [_arg("--svg", dest="out", metavar="FILE", help="output file (default: stdout)"),
      _arg("--margin", type=int, default=3, help="weight units beyond the gaps"),
      _arg("--viewport", metavar="X,Y", help="explicit bounds"),
      _arg("--levels", action="store_true", help="draw weight level lines"),
      _arg("--pf", action="store_true", help="mark pseudo-Frobenius gaps"),
      _arg("--generators", action="store_true", help="mark minimal generators")]),
    ("oracle member", "graded-table membership in a generated semigroup", "json",
     _oracle_member,
     [_arg("--x", required=True, metavar="X,Y"),
      _arg("--cap", type=int, required=True, help="weight cap for the table")]),
    ("oracle minimals", "pairwise-scan minimal members", "semigroup",
     lambda s, a: {"minimals": _lib("oracle").oracle_minimals(s, a.cap)},
     [_arg("--cap", type=int, required=True)]),
    ("oracle gapsets", "all closure-valid gap sets of a genus", "cone", _oracle_gapsets,
     [_arg("--genus", type=int, required=True), _arg("--cap", type=int)]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesemi",
        description="Exact invariants of cofinite subsemigroups of pointed integer cones.",
        epilog="Set CONESEMI_CAPACITY to override the default enumeration cap of 10^7 points.",
    )
    parser.set_defaults(out=None)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, help_text, kind, run, extra in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            dest, group_help = GROUPS[group]
            groups[group] = sub.add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True)
        p = (groups[group] if group else sub).add_parser(name, help=help_text)
        source, decode = INPUTS[kind]
        for flags, kwargs in [source, *extra]:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(decode=decode, run=run)
    return parser


def _write(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InvalidInput(f"cannot write output: {e}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.run(args.decode(_read_json(args.source)), args)
        _write(result if isinstance(result, str) else _dump(result), args.out)
    except ConesemiError as e:
        diag = {"error": type(e).__name__, "detail": str(e)}
        diag.update(e.payload)
        sys.stderr.write(_dump(diag))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
