"""Seeded workloads: the CLI commands the benchmark replays, with their checks.

A workload is a list of `Command`s built from `random.Random(f"{name}:{seed}")`
alone, so one seed always gives byte-identical inputs. What a seed varies
(command order, how cones and point lists are spelled, which small
semigroups are drawn) keeps the work of a pass nearly constant, so runs
with different seeds measure the same load.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from conesemi.geom import Cone
from conesemi.wilf import enumerate_genus

import refs
from refs import Bytes, Check, Holds, Refused, Sg, Svg, canon, dump, wt

CONES = {
    "N2": Cone.full_cone(2),
    "N3": Cone.full_cone(3),
    "S11": Cone.from_rays((1, 0), (1, 1)),
    "D5": Cone.from_rays((2, 1), (1, 3)),
}

# (cone, max genus): 2,846 + 1,159 + 378 semigroups per pass.
SWEEPS = (("N2", 7), ("D5", 5), ("N3", 4))

# (cone, ray multiples a < b, weight of the interior generators): genus from
# about 200 to about 1,000, each cone once small and once large.
EXPAND_SETS = (
    ("N2", 11, 14, 3),
    ("N2", 19, 22, 3),
    ("S11", 11, 14, 5),
    ("S11", 20, 23, 5),
    ("D5", 7, 9, 4),
    ("D5", 11, 13, 4),
)

# Gap sets of small numerical semigroups, the patterns of idemaxial semigroups.
PATTERNS = ((1,), (1, 2), (1, 3), (1, 2, 4), (1, 3, 5), (1, 2, 3, 5), (1, 2, 4, 7))


@dataclass
class Command:
    label: str
    argv: list
    stdin: bytes | None
    check: Check
    nodes: int = 0  # semigroups a correct run passes to wilf_report


class Cache:
    """JSON values computed once per program version and kept in the work
    directory, for references too slow to recompute in every run."""

    def __init__(self, root: Path):
        self.root = root

    def get(self, key: str, make: Callable[[], object]):
        path = self.root / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
        if path.exists():
            return json.loads(path.read_text())
        value = make()
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(value))
        tmp.replace(path)
        return value


def digest(commands) -> str:
    h = hashlib.sha256()
    for c in commands:
        h.update(json.dumps(c.argv).encode())
        h.update(b"\0" + (c.stdin or b"") + b"\0")
    return h.hexdigest()[:16]


# -- spelling inputs ---------------------------------------------------------------


def cone_obj(cone: Cone, rng: random.Random) -> dict:
    obj = cone.to_obj()
    if "rays" in obj and rng.random() < 0.5:
        obj["rays"] = obj["rays"][::-1]
    keys = list(obj)
    rng.shuffle(keys)
    return {k: obj[k] for k in keys}


def cone_arg(cone: Cone, rng: random.Random) -> str:
    return json.dumps(cone_obj(cone, rng), separators=(",", ":"))


def points_json(points, rng: random.Random) -> list:
    pts = [list(p) for p in points]
    rng.shuffle(pts)
    return pts


def sg_stdin(sg: Sg, rng: random.Random) -> bytes:
    return json.dumps({"cone": cone_obj(sg.cone, rng), "gaps": points_json(sg.gaps, rng)}).encode()


# -- sweep and sweep-jobs2 ---------------------------------------------------------------


def sweep(seed: int, jobs: int, cache: Cache) -> list:
    """Both sweep workloads use the `sweep` seed stream, so one seed gives
    them the same commands apart from --jobs."""
    rng = random.Random(f"sweep:{seed}")
    cases = list(SWEEPS)
    rng.shuffle(cases)
    out = []
    for name, g in cases:
        cone = CONES[name]
        argv = ["wilf", "sweep", "--cone", cone_arg(cone, rng), "--max-genus", str(g)]
        counts = list(refs.PUBLISHED_N2[: g + 1]) if name == "N2" else cache.get(
            f"enumerate {name} {g}", lambda: [lv.count for lv in enumerate_genus(cone, g)])
        small = cache.get(f"oracle {name} {min(g, 3)}", lambda: refs.oracle_counts(cone, min(g, 3)))
        # stdout of --jobs 1 on the same command: the byte reference for --jobs 2
        expected = cache.get(f"sweep-bytes {name} {g}", lambda: refs.call_cli(
            ["wilf", "sweep", "--cone", json.dumps(cone.to_obj()), "--max-genus", str(g), "--jobs", "1"], None)[1].decode())
        out.append(Command(f"sweep {name} g{g}", argv + ["--jobs", str(jobs)], None,
                           Holds(_sweep_test(cone, g, counts, small), expected.encode()), sum(counts)))
    return out


def _sweep_test(cone, g, counts, small):
    def test(obj):
        if obj.get("counts") != counts:
            return f"counts {obj.get('counts')} != {counts}"
        if obj["counts"][: len(small)] != small:
            return f"counts disagree with oracle_all_gapsets {small}"
        if obj.get("cone") != cone.to_obj() or obj.get("max_genus") != g or obj.get("order") != "cone":
            return "sweep header does not echo the request"
        return None
    return test


# -- expand ------------------------------------------------------------------------------


def _generator_set(cone: Cone, a: int, b: int, w: int) -> list:
    on_rays = [tuple(k * c for c in r) for r in cone.rays for k in (a, b)]
    inside = [p for t in range(1, w + 1) for p in cone.points_at_weight(t)
              if all(c > 0 for c in cone.scaled_coords(p))]
    return on_rays + inside


def _spelled_generators(cone, gens, rng):
    # two redundant generators: sums of two generators change the input, not
    # the semigroup. They are the same for every seed, because which sums are
    # added moves the time of `gaps` by up to a sixth.
    gens = list(gens) + [refs.add(gens[0], gens[1]), refs.add(gens[-2], gens[-1])]
    return json.dumps({"cone": cone_obj(cone, rng), "generators": points_json(gens, rng)}).encode()


def expand(seed: int, cache: Cache) -> list:
    rng = random.Random(f"expand:{seed}")
    out = []
    for i, (name, a, b, w) in enumerate(EXPAND_SETS):
        cone = CONES[name]
        gens = _generator_set(cone, a, b, w)
        gaps = [tuple(p) for p in cache.get(
            f"generated {name} {gens}", lambda: refs.generated_gaps(cone, gens))]
        if i % 2 == 0 and not cache.get(f"spot {name} {gens}", lambda: refs.spot_check_member(cone, gens, gaps)):
            raise RuntimeError(f"reachability table disagrees with oracle_member on {name}")
        spec = _spelled_generators(cone, gens, rng)
        out.append(Command(f"gaps {name} {a},{b}", ["gaps"], spec,
                           Bytes(dump(Sg(cone, frozenset(gaps)).to_obj()))))
        if i % 2 == 0:
            out.append(Command(f"check-generators {name} {a},{b}", ["check-generators"], spec,
                               Bytes(dump({"is_csemigroup": True, "genus": len(gaps)}))))
    # a share of sets that do not span a cofinite semigroup of the cone
    broken = (
        ("check-generators", "gcd 2", lambda g: [tuple(2 * c for c in p) for p in g[:2]] + g[2:],
         Holds(_decision("NotCofinite"))),
        ("gaps", "ray uncovered", lambda g: g[:2] + g[4:], Refused({"ConeMismatch"})),
        ("gaps", "empty line", lambda g: g[:4], Refused({"NotCofinite"})),
    )
    for command, what, change, check in broken:
        name, a, b, w = rng.choice(EXPAND_SETS)
        cone = CONES[name]
        spec = _spelled_generators(cone, change(_generator_set(cone, a, b, w)), rng)
        out.append(Command(f"{command} {name} {what}", [command], spec, check))
    rng.shuffle(out)
    return out


def _decision(reason):
    def test(obj):
        if obj.get("is_csemigroup") is not False or obj.get("reason") != reason:
            return f"expected is_csemigroup false with reason {reason}"
        return None
    return test


# -- queries ------------------------------------------------------------------------------


def _antichain(cone: Cone, rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k pairwise incomparable points of weight lo..hi. The first points drawn
    can leave no room for the rest (a low point lies below most of the
    band), so a draw that stalls starts over."""
    while True:
        chosen = []
        for _ in range(100):
            p = rng.choice(cone.points_at_weight(rng.randint(lo, hi)))
            if not any(cone.leq(p, q) or cone.leq(q, p) for q in chosen):
                chosen.append(p)
                if len(chosen) == k:
                    return chosen


LOWER_WEIGHTS = {"N2": (2, 4), "N3": (1, 3), "S11": (2, 5), "D5": (3, 8)}


def lower_sg(name: str, rng: random.Random, k: int = 2) -> tuple[Sg, list]:
    cone = CONES[name]
    points = _antichain(cone, rng, *LOWER_WEIGHTS[name], k)
    return Sg(cone, refs.lower_set_gaps(cone, points)), points


def idemaxial_sg(name: str, rng: random.Random) -> tuple[Sg, tuple]:
    pattern = rng.choice(PATTERNS[1:])
    return Sg(CONES[name], refs.idemaxial_gaps(CONES[name], set(pattern))), pattern


def _malformed(shape: str, rng: random.Random) -> bytes:
    sg, _ = lower_sg("N2", rng, 1)
    obj = json.loads(sg_stdin(sg, rng))
    if shape == "no-p":
        del obj["cone"]["p"]
    elif shape == "p-string":
        obj["cone"]["p"] = "x"
    else:
        obj["gaps"] = 5
    return json.dumps(obj).encode()


def queries(seed: int, cache: Cache) -> list:
    rng = random.Random(f"queries:{seed}")
    two_d = ("N2", "S11", "D5")
    out = []

    def add(label, argv, stdin, check, nodes=0):
        out.append(Command(label, argv, stdin, check, nodes))

    sg, _ = lower_sg("N3", rng)
    add("validate N3", ["validate"], sg_stdin(sg, rng), Bytes(dump({"genus": len(sg.gaps), "ok": True})))

    name = rng.choice(("N2", "S11"))
    # a single gap that is a sum of two members; a ray generator such as
    # (1,1) of S11 has weight 2 but splits into none
    splits = [p for p in CONES[name].points_at_weight(rng.randint(2, 4))
              if not refs.is_closed(CONES[name], [p])]
    bad = Sg(CONES[name], frozenset([rng.choice(splits)]))
    add(f"validate {name} not closed", ["validate"], sg_stdin(bad, rng), Refused({"NotClosed"}))

    sg, _ = lower_sg("S11", rng)
    add("msg S11", ["msg"], sg_stdin(sg, rng), Bytes(dump({"minimal_generators": [list(m) for m in refs.msg(sg)]})))

    sg, _ = idemaxial_sg("N2", rng)
    add("msg N2 idemaxial", ["msg"], sg_stdin(sg, rng), Bytes(dump({"minimal_generators": [list(m) for m in refs.msg(sg)]})))

    sg, _ = lower_sg("N2", rng, 3)
    add("frobenius N2", ["frobenius"], sg_stdin(sg, rng), Bytes(dump({"frobenius_set": [list(f) for f in refs.frobenius_set(sg)]})))

    sg, _ = idemaxial_sg(rng.choice(("N2", "S11")), rng)
    add("pf idemaxial", ["pf"], sg_stdin(sg, rng), Bytes(dump({"pseudo_frobenius": [list(a) for a in refs.pseudo_frobenius(sg)]})))

    sg, _ = lower_sg("S11", rng)
    shift = next(tuple(k * c for c in (1, 0)) for k in range(1, 99) if (k, 0) not in sg.gaps)
    add("apery S11", ["apery", "--shift", ",".join(map(str, shift))], sg_stdin(sg, rng),
        Bytes(dump({"apery_set": [list(a) for a in refs.apery(sg, shift)]})))

    sg, _ = idemaxial_sg("D5", rng)
    add("weights D5 idemaxial", ["weights"], sg_stdin(sg, rng), Bytes(dump({"excluded": refs.excluded_weights(sg)})))

    sg, _ = lower_sg("D5", rng)
    ws = [wt(f) for f in refs.frobenius_set(sg)]
    add("elasticity D5", ["elasticity"], sg_stdin(sg, rng), Bytes(dump({"quasi_elasticity": str(Fraction(max(ws), min(ws)))})))

    sg, _ = idemaxial_sg("S11", rng)
    ray = rng.randrange(2)
    add("restrict S11 idemaxial", ["restrict", "--ray", str(ray)], sg_stdin(sg, rng), Bytes(dump(refs.restriction(sg, ray))))

    sg, _ = lower_sg("N3", rng)
    add("wilf report N3", ["wilf", "report"], sg_stdin(sg, rng), Bytes(dump(refs.wilf(sg))), nodes=1)

    sg, _ = lower_sg(rng.choice(two_d), rng)
    add(*_plot(sg, rng))

    name = rng.choice(two_d)
    pattern = rng.choice(PATTERNS)
    add(f"construct idemaxial {name}",
        ["construct", "idemaxial", "--cone", cone_arg(CONES[name], rng), "--pattern-gaps", ",".join(map(str, pattern))],
        None, Bytes(dump(Sg(CONES[name], refs.idemaxial_gaps(CONES[name], set(pattern))).to_obj())))

    name = rng.choice(tuple(CONES))
    _, points = lower_sg(name, rng, rng.randint(1, 3))
    add(f"construct lower-set {name}",
        ["construct", "lower-set", "--cone", cone_arg(CONES[name], rng),
         "--points", ";".join(",".join(map(str, p)) for p in points_json(points, rng))],
        None, Bytes(dump(Sg(CONES[name], refs.lower_set_gaps(CONES[name], points)).to_obj())))

    name = rng.choice(two_d)
    target = rng.choice(("2", "5/2", "3", "7/2", "4", "9/2"))
    add(f"construct elasticity {name}",
        ["construct", "elasticity", "--cone", cone_arg(CONES[name], rng), "--target", target],
        None, Holds(_elasticity_test(CONES[name], Fraction(target))))

    name = rng.choice(two_d)
    pattern = rng.choice(PATTERNS[1:])
    add(f"construct pf-lines {name}",
        ["construct", "pf-lines", "--cone", cone_arg(CONES[name], rng), "--pattern-gaps", ",".join(map(str, pattern))],
        None, Bytes(dump(_pf_lines(CONES[name], pattern))))

    name, g = rng.choice((("N2", 3), ("S11", 3), ("N3", 2), ("D5", 2)))
    sets = cache.get(f"gapsets {name} {g}", lambda: [
        [[list(p) for p in gs] for gs in refs.oracle_all_gapsets(CONES[name], k)] for k in range(g + 1)])
    add(f"enumerate --full {name}", ["enumerate", "--cone", cone_arg(CONES[name], rng), "--max-genus", str(g), "--full"],
        None, Holds(_enumerate_test(sets)))

    commands = ["validate", "msg", "frobenius", "pf", "weights", "elasticity"]
    for shape, command in zip(("no-p", "p-string", "gaps-int"), rng.sample(commands, 3)):
        add(f"{command} malformed {shape}", [command], _malformed(shape, rng), Refused())

    rng.shuffle(out)
    return out


def _plot(sg: Sg, rng: random.Random):
    flags = [f for f in ("--levels", "--pf", "--generators") if rng.random() < 0.5]
    extent = max(sg.maxw + 3, 1)
    in_view = [(x, y) for x in range(extent + 1) for y in range(extent + 1) if sg.cone.contains((x, y))]
    marks = {
        "cone-region": 1,
        "cone-edge": 2,
        "member": sum(1 for p in in_view if p not in sg.gaps),
        "gap-cross": len(sg.gaps),
        "frobenius-ring": len(refs.frobenius_set(sg)),
        "level-line": 2 * extent + 1 if "--levels" in flags else 0,
        "pf-diamond": len(refs.pseudo_frobenius(sg)) if "--pf" in flags else 0,
        "generator-mark": sum(1 for m in refs.msg(sg) if max(m) <= extent) if "--generators" in flags else 0,
    }
    return f"plot {' '.join(flags)}", ["plot", *flags], sg_stdin(sg, rng), Svg(marks)


def _elasticity_test(cone: Cone, target: Fraction):
    def test(obj):
        gaps = frozenset(tuple(g) for g in obj.get("gaps", ()))
        if obj.get("cone") != cone.to_obj() or not gaps or not refs.is_closed(cone, gaps):
            return "not a semigroup of the requested cone"
        ws = [wt(f) for f in refs.frobenius_set(Sg(cone, gaps))]
        if Fraction(max(ws), min(ws)) <= target:
            return f"quasi-elasticity {Fraction(max(ws), min(ws))} does not exceed {target}"
        return None
    return test


def _pf_lines(cone: Cone, pattern) -> dict:
    sg = Sg(cone, refs.idemaxial_gaps(cone, set(pattern)))
    pf = set(refs.pseudo_frobenius(sg))
    gens = refs.msg(sg)
    pattern_pf = refs.numerical_pf(pattern)
    levels = []
    for t in sorted(pattern):
        status = {"level": t, "pf_level": t in pattern_pf, "frobenius_level": t == max(pattern)}
        bad = next((x for x in canon(sg.gaps) if refs.ray_level(cone, x) == t and x not in pf), None)
        status["contained"] = bad is None
        if bad is not None:
            m = next(m for m in gens if refs.add(bad, m) in sg.gaps)
            status["counterexample"] = {"gap": list(bad), "generator": list(m), "sum_is_gap": list(refs.add(bad, m))}
        levels.append(status)
    return {
        "pattern_gaps": sorted(pattern),
        "pattern_pf": pattern_pf,
        "levels": levels,
        "pf_levels_contained": all(lv["contained"] for lv in levels if lv["pf_level"]),
        "frobenius_level_contained": levels[-1]["contained"],
    }


def _enumerate_test(sets):
    def test(obj):
        if obj.get("counts") != [len(s) for s in sets]:
            return f"counts {obj.get('counts')} != oracle {[len(s) for s in sets]}"
        for g, (level, expected) in enumerate(zip(obj.get("levels", ()), sets)):
            got = [[tuple(p) for p in gs] for gs in level["semigroups"]]
            keys = [[(wt(p), p) for p in gs] for gs in got]
            if level["genus"] != g or keys != sorted(keys) or any(gs != canon(gs) for gs in got):
                return f"genus {g} level is not in canonical order"
            if sorted(map(tuple, got)) != sorted(tuple(tuple(p) for p in gs) for gs in expected):
                return f"genus {g} gap sets differ from oracle_all_gapsets"
        return None
    return test


WORKLOADS = {
    "sweep": lambda seed, cache: sweep(seed, 1, cache),
    "sweep-jobs2": lambda seed, cache: sweep(seed, 2, cache),
    "expand": expand,
    "queries": queries,
}
