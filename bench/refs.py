"""Reference answers and output checks for the benchmark's commands.

Every reference is computed before timing starts. The references do not
reuse the algorithms they check: they use the brute-force `oracle` module,
the published counts of semigroups in N^2 by genus, or definitions spelled
out directly over small lattice regions. From the program they take only
what the oracle takes too: the cone primitives of `conesemi.geom`
(membership and level enumeration) and `msg_weight_bound`, the certified
region `oracle_minimals` must cover. The one exception is deliberate: a
sweep must print the bytes the program's own `--jobs 1` run prints.

A check returns None when the command ended as specified, otherwise a
`Failure`. A failure is `wrong` when the program gave a wrong answer or
refused a valid input; a traceback or an unnamed error on an input that
must be refused is a failure that is not `wrong`.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from conesemi import cli, errors
from conesemi.geom import Cone
from conesemi.oracle import oracle_all_gapsets, oracle_member, oracle_minimals
from conesemi.semigroup import CSemigroup, msg_weight_bound

# Generalized numerical semigroups in N^2 by genus 0..7 (Failla, Peterson
# and Utano, Semigroup Forum 2016).
PUBLISHED_N2 = (1, 2, 7, 23, 71, 210, 638, 1894)

ERROR_NAMES = frozenset(
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ConesemiError)
)


def dump(obj) -> bytes:
    """The CLI's output contract: sorted keys, compact separators, newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def wt(x) -> int:
    return sum(x)


def canon(points) -> list:
    return sorted((tuple(p) for p in points), key=lambda x: (wt(x), x))


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def cone_points(cone: Cone, max_weight: int) -> list:
    return [p for t in range(max_weight + 1) for p in cone.points_at_weight(t)]


@dataclass(frozen=True)
class Sg:
    """A semigroup as the harness sees it: a cone and a gap set."""

    cone: Cone
    gaps: frozenset

    @property
    def maxw(self) -> int:
        return max((wt(h) for h in self.gaps), default=0)

    def member(self, x) -> bool:
        return self.cone.contains(x) and x not in self.gaps

    def below(self, a, h) -> bool:
        """Cone order a <= h."""
        return self.cone.contains(sub(h, a))

    def to_obj(self) -> dict:
        return {"cone": self.cone.to_obj(), "gaps": [list(g) for g in canon(self.gaps)]}


# -- definitions, by brute force over small regions ----------------------------


def is_closed(cone: Cone, gaps) -> bool:
    """No gap is a sum of two nonzero members."""
    gaps = frozenset(gaps)
    for h in gaps:
        for a in cone_points(cone, wt(h)):
            if any(a) and a != h and cone.contains(sub(h, a)):
                if a not in gaps and sub(h, a) not in gaps:
                    return False
    return True


def lower_set_gaps(cone: Cone, points) -> frozenset:
    top = max(wt(f) for f in points)
    return frozenset(
        a for a in cone_points(cone, top)
        if any(a) and any(cone.contains(sub(f, a)) for f in points)
    )


def numerical_pf(gaps) -> list:
    gaps = set(gaps)
    frob = max(gaps)
    return [a for a in sorted(gaps) if all(a + n not in gaps for n in range(1, frob + 1) if n not in gaps)]


def ray_level(cone: Cone, x) -> Fraction:
    u, v = cone.scaled_coords(x)
    return Fraction(u + v, cone.det)


def idemaxial_gaps(cone: Cone, pattern) -> frozenset:
    """Points below the pattern's Frobenius level whose level is not an
    element of the pattern semigroup."""
    frob = max(pattern)
    top = frob * max(wt(r) for r in cone.rays)
    out = set()
    for x in cone_points(cone, top):
        lvl = ray_level(cone, x)
        if any(x) and lvl <= frob and (lvl.denominator != 1 or int(lvl) in pattern):
            out.add(x)
    return frozenset(out)


def frobenius_set(sg: Sg) -> list:
    return canon(h for h in sg.gaps if not any(k != h and sg.below(h, k) for k in sg.gaps))


def pseudo_frobenius(sg: Sg) -> list:
    members = [m for m in cone_points(sg.cone, sg.maxw) if any(m) and m not in sg.gaps]
    return canon(
        a for a in sg.gaps
        if not any(add(a, m) in sg.gaps for m in members if wt(m) <= sg.maxw - wt(a))
    )


def apery(sg: Sg, b) -> list:
    return canon(
        a for a in cone_points(sg.cone, sg.maxw + wt(b))
        if sg.member(a) and sub(a, b) in sg.gaps
    )


def excluded_weights(sg: Sg) -> list:
    r1, r2 = sg.cone.rays[0], sg.cone.rays[-1]
    top = max(sg.maxw, wt(r1) * wt(r2)) + 1
    empty = {t for t in range(top) if not sg.cone.points_at_weight(t)}
    return sorted(empty | {wt(f) for f in frobenius_set(sg)})


def restriction(sg: Sg, i: int) -> dict:
    ray = sg.cone.rays[i]
    ks = sorted(k for k in range(1, sg.maxw + 1) if tuple(k * c for c in ray) in sg.gaps)
    frob = ks[-1] if ks else -1
    mult = next(t for t in range(1, frob + 3) if t not in ks)
    return {"gaps": ks, "frobenius": frob, "conductor": frob + 1, "multiplicity": mult}


def msg(sg: Sg) -> list:
    s = CSemigroup(sg.cone, tuple(canon(sg.gaps)))
    return list(oracle_minimals(s, msg_weight_bound(s)))


def wilf(sg: Sg) -> dict:
    region = [a for a in cone_points(sg.cone, sg.maxw) if any(sg.below(a, h) for h in sg.gaps)]
    c = len(region)
    n = c - len(sg.gaps)
    e = len(msg(sg))
    p = sg.cone.p
    margin = e * n - p * c
    return {"e": e, "n": n, "c": c, "p": p, "margin": margin, "holds": margin >= 0}


def generated_gaps(cone: Cone, gens) -> list:
    """Gaps of the semigroup spanned by gens, by the graded reachability
    table of `oracle_member`, kept for a whole region at once.

    The table grows level by level until twice the heaviest generator's
    weight of consecutive levels holds no gap; the inputs are cofinite by
    construction, and the check compares the region up to and beyond the
    answer's largest gap.
    """
    gens = [tuple(g) for g in gens]
    quiet = 2 * max(wt(g) for g in gens)
    reach = {tuple(0 for _ in gens[0])}
    gaps = []
    last = 0
    t = 0
    while t - last <= quiet:
        t += 1
        for p in cone.points_at_weight(t):
            if any(sub(p, g) in reach for g in gens):
                reach.add(p)
            else:
                gaps.append(p)
                last = t
    return canon(gaps)


def spot_check_member(cone: Cone, gens, gaps) -> bool:
    """Tie the region table to `oracle_member` on its two heaviest answers."""
    top = gaps[-1]
    above = next(p for p in cone.points_at_weight(wt(top) + 1))
    return (not oracle_member(cone, gens, top, wt(top) + 1)
            and oracle_member(cone, gens, above, wt(top) + 1))


def oracle_counts(cone: Cone, max_genus: int) -> list:
    return [len(oracle_all_gapsets(cone, g)) for g in range(max_genus + 1)]


def call_cli(argv, stdin: bytes | None) -> tuple[int, bytes, bytes]:
    """Run `conesemi.cli.main(argv)` in this process with stdin, stdout and
    stderr redirected; an uncaught exception ends as the interpreter would
    end it, with a traceback on stderr and exit code 1."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.encode(), err.encode()


# -- checks ----------------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    reason: str
    wrong: bool


def _traceback(err: bytes) -> bool:
    return b"Traceback (most recent call last)" in err


class Check:
    def __call__(self, rc: int, out: bytes, err: bytes) -> Failure | None:
        if _traceback(err):
            return Failure("traceback", wrong=True)
        if rc != 0:
            return Failure(f"exit {rc}: {err[:200]!r}", wrong=True)
        return self.verify(out)

    def verify(self, out: bytes) -> Failure | None:
        raise NotImplementedError


class Bytes(Check):
    """Stdout must equal a reference rendering byte for byte."""

    def __init__(self, expected: bytes):
        self.expected = expected

    def verify(self, out):
        if out != self.expected:
            return Failure(f"stdout {out[:120]!r} != {self.expected[:120]!r}", wrong=True)
        return None


class Holds(Check):
    """Stdout parses as JSON and satisfies a predicate returning an error
    text; with `expected`, it must also equal those bytes."""

    def __init__(self, test: Callable[[object], str | None], expected: bytes | None = None):
        self.test = test
        self.expected = expected

    def verify(self, out):
        if self.expected is not None and out != self.expected:
            return Failure(f"stdout differs from the reference bytes: {out[:120]!r}", wrong=True)
        try:
            obj = json.loads(out)
        except ValueError:
            return Failure(f"stdout is not JSON: {out[:120]!r}", wrong=True)
        problem = self.test(obj)
        return Failure(problem, wrong=True) if problem else None


class Svg(Check):
    """A plot: one SVG document whose marks match the reference counts."""

    def __init__(self, marks: dict):
        self.marks = marks

    def verify(self, out):
        text = out.decode()
        if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
            return Failure("not one SVG document", wrong=True)
        for cls, n in self.marks.items():
            found = text.count(f'class="{cls}"')
            if found != n:
                return Failure(f"{found} {cls} marks, expected {n}", wrong=True)
        return None


class Refused(Check):
    """Input that must end in exit 1 with one named domain error on stderr."""

    def __init__(self, names=ERROR_NAMES):
        self.names = frozenset(names)

    def __call__(self, rc, out, err):
        if rc == 0:
            return Failure("invalid input accepted", wrong=True)
        if _traceback(err):
            return Failure("traceback instead of a named error", wrong=False)
        lines = err.decode(errors="replace").splitlines()
        try:
            name = json.loads(lines[0]).get("error") if len(lines) == 1 else None
        except (ValueError, AttributeError):
            name = None
        if rc != 1 or name not in self.names:
            return Failure(f"exit {rc} without one of {sorted(self.names)}", wrong=False)
        return None


def tally(outcomes) -> tuple[int, int, list]:
    """Failures, wrong answers and their notes over (command, rc, stdout,
    stderr) outcomes. A command's stdout must also repeat byte for byte
    across passes."""
    firsts = {}
    failed, wrong, notes = 0, 0, []
    for c, rc, out, err in outcomes:
        problem = c.check(rc, out, err)
        if problem is None and firsts.setdefault(id(c), out) != out:
            problem = Failure("stdout differs between passes", wrong=True)
        if problem is not None:
            failed += 1
            wrong += problem.wrong
            notes.append(f"{c.label}: {problem.reason}")
    return failed, wrong, notes
