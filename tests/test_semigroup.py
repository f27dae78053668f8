"""CSemigroup construction, membership, and the order-theoretic invariants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi import (
    Cone,
    CSemigroup,
    GeneratorInput,
    NumericalSemigroup,
    enumerate_cone_points,
    expand,
    lower_set,
    lower_set_semigroup,
    make_csemigroup,
)
from conesemi.errors import (
    CapacityExceeded,
    DimensionMismatch,
    EmptyGapSet,
    GapOutsideCone,
    InvalidInput,
    InvalidRay,
    NotAMember,
    NotClosed,
    ZeroGap,
    ZeroShift,
)
from conesemi.geom import add, canon_key, sub, weight
from conesemi.semigroup import _pack
from conesemi.wilf import _children, enumerate_genus

S_A_MSG = ((1, 0), (2, 1), (3, 2), (3, 3), (4, 4), (5, 5))


# -- construction ----------------------------------------------------------------


def test_make_s_a(cone_a, s_a):
    assert s_a.genus == 2
    assert s_a.gaps == ((1, 1), (2, 2))
    assert s_a.max_gap_weight == 4


def test_make_rejects_open_complement(full2):
    with pytest.raises(NotClosed) as err:
        make_csemigroup(full2, [(1, 1)])
    assert err.value.gap == (1, 1)
    assert {err.value.a, err.value.b} == {(1, 0), (0, 1)}


def test_make_empty_gaps_ok(cone_a):
    s = make_csemigroup(cone_a, [])
    assert s.genus == 0


def test_make_rejects_zero_and_outside(cone_a):
    with pytest.raises(ZeroGap):
        make_csemigroup(cone_a, [(0, 0)])
    with pytest.raises(GapOutsideCone):
        make_csemigroup(cone_a, [(1, 2)])


def test_make_normalizes_order_and_duplicates(cone_a):
    s = make_csemigroup(cone_a, [(2, 2), (1, 1), (2, 2)])
    assert s.gaps == ((1, 1), (2, 2))


def test_json_roundtrip(s_a, s_b):
    for s in (s_a, s_b):
        assert CSemigroup.from_obj(s.to_obj()) == s


# -- membership and induced order ----------------------------------------------------


def test_member_examples(s_a):
    assert s_a.member((2, 1))
    assert not s_a.member((2, 2))
    assert not s_a.member((1, 2))


def test_member_dimension_check(s_a):
    with pytest.raises(DimensionMismatch):
        s_a.member((1, 2, 3))


def test_induced_leq_examples(s_a):
    assert not s_a.induced_leq((1, 1), (2, 2))
    assert s_a.induced_leq((1, 0), (3, 1))
    assert s_a.induced_leq((2, 1), (2, 1))


def test_induced_implies_cone_order(s_b):
    rng = random.Random(4)
    pts = enumerate_cone_points(s_b.cone, 10)
    for _ in range(400):
        x, y = rng.choice(pts), rng.choice(pts)
        if s_b.induced_leq(x, y):
            assert s_b.cone.leq(x, y)


# -- numerical semigroups -------------------------------------------------------------


def test_numerical_from_generators():
    assert NumericalSemigroup.from_generators([3, 5]).gaps == (1, 2, 4, 7)
    assert NumericalSemigroup.from_generators([2, 3]).gaps == (1,)
    assert NumericalSemigroup.from_generators([4, 6, 9]).gaps == (1, 2, 3, 5, 7, 11)
    assert NumericalSemigroup.from_generators([1]).gaps == ()
    # pairwise non-coprime generators still work
    assert NumericalSemigroup.from_generators([6, 10, 15]).frobenius == 29


@pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 7), (9, 10), (150, 151)])
def test_numerical_from_generators_coprime_pair_genus(a, b):
    ns = NumericalSemigroup.from_generators([a, b])
    assert ns.genus == (a - 1) * (b - 1) // 2
    assert ns.frobenius == a * b - a - b


def test_numerical_from_generators_gaps_are_closed():
    for gens in ([3, 5], [4, 6, 9], [6, 10, 15], [5, 7, 11], [10, 11, 23]):
        ns = NumericalSemigroup.from_generators(gens)
        assert NumericalSemigroup.from_gaps(ns.gaps) == ns


def test_numerical_from_generators_charges_the_budget(monkeypatch):
    monkeypatch.setenv("CONESEMI_CAPACITY", "1000")
    with pytest.raises(CapacityExceeded):
        NumericalSemigroup.from_generators([150, 151])


def test_numerical_from_generators_rejects_non_coprime():
    with pytest.raises(InvalidInput):
        NumericalSemigroup.from_generators([2, 4])


def test_numerical_from_gaps_closure():
    with pytest.raises(NotClosed):
        NumericalSemigroup.from_gaps([2])  # 2 = 1 + 1 with 1 in the semigroup


def test_numerical_invariants():
    n = NumericalSemigroup.from_gaps([1, 2, 4, 7])
    assert (n.frobenius, n.conductor, n.multiplicity, n.genus) == (7, 8, 3, 4)
    assert 5 in n and 4 not in n
    free = NumericalSemigroup.from_gaps([])
    assert (free.frobenius, free.conductor, free.multiplicity) == (-1, 0, 1)


def test_numerical_pseudo_frobenius():
    assert NumericalSemigroup.from_generators([3, 5]).pseudo_frobenius() == (7,)
    assert NumericalSemigroup.from_generators([4, 7, 9]).pseudo_frobenius() == (5, 10)
    with pytest.raises(EmptyGapSet):
        NumericalSemigroup.from_gaps([]).pseudo_frobenius()


# -- minimal generators -------------------------------------------------------------


def test_msg_s_a(s_a):
    assert s_a.minimal_generators == S_A_MSG


def test_msg_hilbert_bases(full2, cone_a, cone_skew):
    assert make_csemigroup(full2, []).minimal_generators == ((0, 1), (1, 0))
    assert make_csemigroup(cone_a, []).minimal_generators == ((1, 0), (1, 1))
    assert make_csemigroup(cone_skew, []).minimal_generators == (
        (1, 1),
        (1, 2),
        (2, 1),
        (1, 3),
    )


def test_msg_full1():
    from conesemi import Cone

    s = make_csemigroup(Cone.full_cone(1), [(1,)])
    assert s.minimal_generators == ((2,), (3,))


def test_msg_members_are_indecomposable(s_b):
    members = [
        x
        for x in enumerate_cone_points(s_b.cone, 12)
        if x != (0, 0) and s_b.member(x)
    ]
    msg = set(s_b.minimal_generators)
    for x in members:
        decomposable = any(
            s_b.member((x[0] - a[0], x[1] - a[1]))
            for a in members
            if sum(a) < sum(x) and a[0] <= x[0]
        )
        if sum(x) <= 10:
            assert (x not in msg) == decomposable


# -- Frobenius-type sets -----------------------------------------------------------


def test_frobenius_set_s_a(s_a):
    assert s_a.frobenius_set() == ((2, 2),)


def test_frobenius_set_s_b(s_b):
    assert set(s_b.frobenius_set()) == {(4, 0), (3, 1), (2, 2)}


def test_frobenius_set_genus0(cone_a):
    assert make_csemigroup(cone_a, []).frobenius_set() == ()


def test_frobenius_order_parameter_conflict(s_b):
    """Under the cone order, (3,0) is dominated by (4,0) and is not maximal;
    under the induced order the step (1,0) is itself a gap, so (3,0) becomes
    maximal. The two readings genuinely disagree on this gap set."""
    cone_maximals = s_b.frobenius_set(order="cone")
    induced_maximals = s_b.frobenius_set(order="induced")
    assert (3, 0) not in cone_maximals
    assert s_b.cone.leq((3, 0), (4, 0))
    assert (3, 0) in induced_maximals
    assert set(cone_maximals) <= set(induced_maximals)
    with pytest.raises(InvalidInput):
        s_b.frobenius_set(order="lex")


def test_pseudo_frobenius_examples(s_a, s_b):
    assert set(s_a.pseudo_frobenius()) == {(1, 1), (2, 2)}
    assert (1, 1) not in s_a.frobenius_set()
    assert (3, 0) in s_b.pseudo_frobenius()


def test_pseudo_frobenius_empty(cone_a):
    with pytest.raises(EmptyGapSet):
        make_csemigroup(cone_a, []).pseudo_frobenius()


@pytest.mark.parametrize("name", ["full2", "cone_a", "cone_skew", "full3"])
def test_pseudo_frobenius_is_the_induced_frobenius_set(name, request):
    """On every node of genus 1-5, the induced-maximal gaps equal the
    generator definition of PF(S): gaps a with a + m a member for every
    minimal generator m. The fresh semigroup finds them without its
    generators; the gap-free root has no induced-maximal gap."""
    cone = request.getfixturevalue(name)
    levels = enumerate_genus(cone, 5)
    root = levels[0].semigroups[0]
    assert root.frobenius_set("induced") == ()
    with pytest.raises(EmptyGapSet):
        root.pseudo_frobenius()
    for level in levels[1:]:
        for s in level.semigroups:
            reference = tuple(
                a for a in s.gaps
                if all(add(a, m) not in s.gap_set for m in s.minimal_generators)
            )
            assert s.pseudo_frobenius() == s.frobenius_set("induced") == reference
            fresh = CSemigroup(cone, s.gaps)
            assert fresh.pseudo_frobenius() == reference
            assert "minimal_generators" not in vars(fresh)


def test_apery_examples(s_a, cone_a):
    assert s_a.apery_set((1, 0)) == ((2, 1), (3, 2))
    assert s_a.apery_set((3, 3)) == ((4, 4), (5, 5))
    assert make_csemigroup(cone_a, []).apery_set((1, 0)) == ()


def test_apery_errors(s_a):
    with pytest.raises(ZeroShift):
        s_a.apery_set((0, 0))
    with pytest.raises(NotAMember):
        s_a.apery_set((2, 2))


def test_frobenius_elements_examples(s_a, s_b, full2):
    assert s_a.frobenius_elements() == ((2, 2),)
    assert set(s_b.frobenius_elements()) == {(4, 0), (2, 2)}
    # (3,1) witnesses that term-order maxima can miss a cone-order maximal gap
    assert (3, 1) in set(s_b.frobenius_set()) - set(s_b.frobenius_elements())
    axes = make_csemigroup(full2, [(1, 0), (0, 1)])
    assert set(axes.frobenius_elements()) == {(1, 0), (0, 1)}
    with pytest.raises(EmptyGapSet):
        make_csemigroup(full2, []).frobenius_elements()


# -- weights ---------------------------------------------------------------------


def test_weight_set_s_a(s_a):
    w = s_a.weight_set()
    assert w.excluded == (4,)
    assert 0 in w and 5 in w and 4 not in w


def test_weight_set_genus0(cone_a):
    assert make_csemigroup(cone_a, []).weight_set().excluded == ()


def test_weight_set_skinny_cone_geometry():
    """Levels the cone itself misses are excluded; a thin sector misses
    several small levels even with no gaps at all."""
    from conesemi import Cone

    thin = Cone.from_rays((3, 1), (4, 1))
    w = make_csemigroup(thin, []).weight_set().excluded
    assert 4 not in w and 5 not in w  # (3,1) and (4,1) exist
    assert 1 in w and 2 in w  # no lattice points at these levels
    for t in w:
        assert thin.level_is_empty(t)


def test_weight_set_not_closed_under_addition(s_a):
    w = s_a.weight_set()
    assert 2 in w and (2 + 2) not in w


def test_quasi_elasticity(s_a, s_b, cone_a):
    assert s_a.quasi_elasticity() == 1
    assert s_b.quasi_elasticity() == 1  # all three maximal gaps have weight 4
    with pytest.raises(EmptyGapSet):
        make_csemigroup(cone_a, []).quasi_elasticity()
    assert isinstance(s_a.quasi_elasticity(), Fraction)


def test_ray_restriction(s_a):
    assert s_a.ray_restriction(1).gaps == (1, 2)
    assert s_a.ray_restriction(0).gaps == ()
    with pytest.raises(InvalidRay):
        s_a.ray_restriction(2)

@pytest.mark.parametrize("name", ["full1", "full2", "cone_a", "cone_skew", "full3"])
def test_frobenius_set_matches_the_pairwise_definition(name, request):
    """Both orders' maximal gaps equal the pairwise scan through cone.leq
    and induced_leq, on every node of genus 0-5 and on lower-set
    semigroups of a few hundred gaps."""
    cone = request.getfixturevalue(name)
    semigroups = [s for level in enumerate_genus(cone, 5) for s in level.semigroups]
    semigroups += [lower_set_semigroup(cone, pts) for pts in LARGE_LOWER_SETS[name]]
    for s in semigroups:
        for order, above in (("cone", cone.leq), ("induced", s.induced_leq)):
            reference = tuple(
                h for h in s.gaps if not any(k != h and above(h, k) for k in s.gaps)
            )
            assert s.frobenius_set(order) == reference


LARGE_LOWER_SETS = {
    "full1": [[(150,)]],
    "full2": [[(12, 9)], [(20, 2), (3, 18), (10, 10)]],
    "cone_a": [[(20, 3), (12, 11)]],
    "cone_skew": [[(12, 9), (6, 14)]],
    "full3": [[(5, 4, 3), (1, 1, 9)]],
}


# -- small-scale lemma suite (the acceptance module runs the full one) ------------------


def test_lemmas_genus_le_3(full2, cone_a):
    for cone in (full2, cone_a):
        for level in enumerate_genus(cone, 3):
            for s in level.semigroups:
                if s.genus == 0:
                    continue
                frob = set(s.frobenius_set())
                assert frob <= set(s.pseudo_frobenius())
                assert set(s.frobenius_elements()) <= frob
                for b in enumerate_cone_points(cone, 6):
                    if b == (0, 0) or not s.member(b):
                        continue
                    shifted_back = {
                        (a[0] - b[0], a[1] - b[1]) for a in s.apery_set(b)
                    }
                    assert frob <= shifted_back
                for f in frob:
                    assert not any(
                        g != f and cone.leq(f, g) for g in frob
                    )  # antichain


# -- the closure check against a pairwise brute force --------------------------------

CLOSURE_CONES = {
    "N2": Cone.full_cone(2),
    "S11": Cone.from_rays((1, 0), (1, 1)),
    "D5": Cone.from_rays((2, 1), (1, 3)),
    "N3": Cone.full_cone(3),
    "D11": Cone.from_rays((2, 3), (1, 7)),
    "D20": Cone.from_rays((1, 0), (1, 20)),
}


def _first_decomposition(cone, gaps):
    """The canonically first (h, a, b) with h = a + b a gap and a, b nonzero
    members, by trying every cone point a with h - a in the cone for each gap
    h in turn; None when the set is closed.

    Such an a has each scaled coordinate between 0 and h's, so every integer
    vector of that box is tried and kept when it is the scaled coordinates
    of a lattice point: (u * r1 + v * r2) / det on a sector."""
    gap_set = set(gaps)
    for h in sorted(gap_set, key=canon_key):
        box = itertools.product(*(range(c + 1) for c in cone.scaled_coords(h)))
        if cone.full:
            points = box
        else:
            (x1, y1), (x2, y2) = cone.rays
            scaled = ((u * x1 + v * x2, u * y1 + v * y2) for u, v in box)
            points = ((x // cone.det, y // cone.det) for x, y in scaled
                      if x % cone.det == 0 and y % cone.det == 0)
        found = [a for a in points
                 if any(a) and a not in gap_set and sub(h, a) not in gap_set]
        if found:
            a = min(found, key=canon_key)
            return h, a, sub(h, a)
    return None


def _closed_gap_set(cone, data):
    """A union of lower sets, or a node down a random genus-tree path."""
    if data.draw(st.booleans()):
        top = 6 if cone.p == 2 else 4
        tops = data.draw(st.lists(st.sampled_from(enumerate_cone_points(cone, top)[1:]),
                                  max_size=3))
        return sorted(
            {a for f in tops for a in enumerate_cone_points(cone, weight(f))
             if any(a) and cone.contains(tuple(x - y for x, y in zip(f, a)))},
            key=canon_key,
        )
    s = make_csemigroup(cone, [])
    for _ in range(data.draw(st.integers(0, 8))):
        kids = _children(s)
        if not kids:
            break
        s = data.draw(st.sampled_from(kids))
    return list(s.gaps)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_closure_check_matches_pairwise_brute_force(data):
    """make_csemigroup accepts exactly the closed sets; on a set that is not
    closed, its witness is the canonically first decomposition (least gap,
    then least first summand), which the sorted per-gap scan reported."""
    name = data.draw(st.sampled_from(sorted(CLOSURE_CONES)))
    cone = CLOSURE_CONES[name]
    gaps = _closed_gap_set(cone, data)
    assert _first_decomposition(cone, gaps) is None
    edit = data.draw(st.sampled_from(["none", "drop", "add"]))
    if edit == "drop" and gaps:
        gaps.remove(data.draw(st.sampled_from(gaps)))
    elif edit == "add":
        top = max((weight(h) for h in gaps), default=0) + 2
        gaps.append(data.draw(st.sampled_from(
            [p for p in enumerate_cone_points(cone, top) if any(p) and p not in gaps])))
    expected = _first_decomposition(cone, gaps)
    shuffled = data.draw(st.permutations(gaps))
    if expected is None:
        s = make_csemigroup(cone, shuffled)
        assert s.gaps == tuple(sorted(gaps, key=canon_key))
        if cone.p == 2:
            assert expand(GeneratorInput(cone, s.minimal_generators)).gaps == s.gaps
    else:
        with pytest.raises(NotClosed) as err:
            make_csemigroup(cone, shuffled)
        assert (err.value.gap, err.value.a, err.value.b) == expected


@pytest.mark.parametrize("name", sorted(CLOSURE_CONES))
def test_closure_check_sorts_only_the_first_offending_lower_set(name, monkeypatch):
    """Closed sets are checked without a sorted lower set; a set that is not
    closed sorts one, that of its canonically first offending gap."""
    import conesemi.semigroup as semigroup_module

    sorted_for = []
    real = semigroup_module.lower_set

    def counting(cone, x):
        sorted_for.append(x)
        return real(cone, x)

    monkeypatch.setattr(semigroup_module, "lower_set", counting)
    cone = CLOSURE_CONES[name]
    for level in enumerate_genus(cone, 3):
        for s in level.semigroups:
            make_csemigroup(cone, s.gaps)
            assert sorted_for == []
            # the sum of two generators is a member with a decomposition
            m, n = s.minimal_generators[0], s.minimal_generators[-1]
            gaps = s.gaps + (tuple(a + b for a, b in zip(m, n)),)
            with pytest.raises(NotClosed):
                make_csemigroup(cone, gaps)
            assert sorted_for == [_first_decomposition(cone, gaps)[0]]
            sorted_for.clear()


# points near each ray: the gaps under them are strips whose longest scaled axis
# differs from strip to strip
STRIP_TOPS = {
    "N2": [(6, 1), (1, 6)],
    "S11": [(6, 1), (7, 6)],
    "D5": [(13, 7), (4, 11)],
    "N3": [(5, 1, 1), (1, 5, 1), (1, 1, 5)],
    "D11": [(7, 11), (2, 13)],
    "D20": [(5, 1), (1, 19)],
}


@pytest.mark.parametrize("name", sorted(CLOSURE_CONES))
def test_closure_check_on_thin_strips_along_each_ray(name):
    """The union of the strips is closed; with the sum of its two lightest
    members added it is not, and the witness is the canonically first."""
    cone = CLOSURE_CONES[name]
    tops = STRIP_TOPS[name]
    longest = {max(range(cone.p), key=cone.scaled_coords(f).__getitem__) for f in tops}
    assert longest == set(range(cone.p))
    gaps = sorted({a for f in tops for a in lower_set(cone, f) if any(a)}, key=canon_key)
    assert _first_decomposition(cone, gaps) is None
    assert make_csemigroup(cone, gaps[::-1]).gaps == tuple(gaps)
    top = max(map(weight, gaps)) + 1
    m, n = [p for p in enumerate_cone_points(cone, top) if any(p) and p not in gaps][:2]
    gaps.append(add(m, n))
    expected = _first_decomposition(cone, gaps)
    assert expected is not None
    with pytest.raises(NotClosed) as err:
        make_csemigroup(cone, gaps[::-1])
    assert (err.value.gap, err.value.a, err.value.b) == expected


def test_closure_check_on_a_lower_set_of_genus_10200(full2):
    """N2 minus the lower set of (100, 100) is closed. With (101, 101) added it
    is not: its only splits into members are (0, 101) + (101, 0) and the
    reverse, and the witness takes the canonically first."""
    gaps = [(x, y) for x in range(101) for y in range(101) if x or y]
    assert make_csemigroup(full2, gaps).genus == 10_200
    with pytest.raises(NotClosed) as err:
        make_csemigroup(full2, gaps + [(101, 101)])
    assert (err.value.gap, err.value.a, err.value.b) == ((101, 101), (0, 101), (101, 0))


# -- packed scaled coordinates -----------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_guard_bit_test_agrees_with_the_componentwise_test(data):
    """((x | H) - c) & H == H exactly when x_i >= c_i in every field, and then
    x - c packs the fieldwise difference; sums below 2^width pack the
    fieldwise sum. Fields are drawn at 0, at 2^width - 1 and in between."""
    width = data.draw(st.integers(1, 12))
    p = data.draw(st.integers(1, 3))
    top = (1 << width) - 1
    field = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    x = data.draw(st.lists(field, min_size=p, max_size=p))
    c = data.draw(st.lists(field, min_size=p, max_size=p))
    guards = _pack([1 << width] * p, width)
    px, pc = _pack(x, width), _pack(c, width)
    assert px & guards == 0 and pc & guards == 0
    fits = all(a >= b for a, b in zip(x, c))
    assert (((px | guards) - pc) & guards == guards) == fits
    if fits:
        assert px - pc == _pack([a - b for a, b in zip(x, c)], width)
    if all(a + b <= top for a, b in zip(x, c)):
        assert px + pc == _pack([a + b for a, b in zip(x, c)], width)
