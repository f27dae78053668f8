"""One reader for every point and integer list the library takes.

`geom.json_points`, `json_ints`, `json_list` and `json_int` read decoded
JSON and Python arguments by one rule: an integer is an `int` or an
int-like (a type with `__index__`) other than a bool, a list is a JSON list
or any Python iterable but a str, bytes or dict, and anything else is
InvalidInput naming the argument and the index of the offending value.
"""

from fractions import Fraction

import pytest

from conesemi import Cone, CSemigroup, NumericalSemigroup, lower_set, make_csemigroup
from conesemi.construct import lower_set_semigroup
from conesemi.errors import InvalidInput, ZeroGap
from conesemi.genexp import GeneratorInput, expand
from conesemi.oracle import oracle_member

N2 = Cone.full_cone(2)
S11 = Cone.from_rays((1, 0), (1, 1))
S = make_csemigroup(N2, [(1, 0)])


class IntLike:
    """An integer that is no `int`: its type has `__index__`."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


# name: (a call with v in one slot, the path of that slot, an int valid there)
ENTRY_POINTS = {
    "make_csemigroup": (lambda v: make_csemigroup(N2, [(1, 0), (v, 0)]), "gaps[1][0]", 2),
    "CSemigroup.from_obj": (
        lambda v: CSemigroup.from_obj({"cone": N2.to_obj(), "gaps": [[1, 0], [v, 0]]}),
        "gaps[1][0]", 2),
    "GeneratorInput": (lambda v: GeneratorInput(N2, [(1, 0), (0, v)]), "generators[1][1]", 1),
    "GeneratorInput.from_obj": (
        lambda v: GeneratorInput.from_obj({"cone": N2.to_obj(), "generators": [[1, 0], [0, v]]}),
        "generators[1][1]", 1),
    "lower_set_semigroup": (lambda v: lower_set_semigroup(N2, [(3, 1), (v, 1)]),
                            "points[1][0]", 2),
    "oracle_member-x": (lambda v: oracle_member(N2, [(1, 0), (0, 1)], (v, 1), 5), "x[0]", 1),
    "oracle_member-generators": (
        lambda v: oracle_member(N2, [(1, 0), (0, v)], (1, 1), 5), "generators[1][1]", 1),
    "from_gaps": (lambda v: NumericalSemigroup.from_gaps([1, v]), "gaps[1]", 2),
    "from_generators": (lambda v: NumericalSemigroup.from_generators([3, v]),
                        "generators[1]", 5),
    "apery_set": (lambda v: S.apery_set((0, v)), "b[1]", 1),
    "ray_restriction": (lambda v: S.ray_restriction(v), "i", 0),
    "lower_set": (lambda v: lower_set(N2, (v, 1)), "x[0]", 2),
    "from_rays-r1": (lambda v: Cone.from_rays((1, v), (1, 3)), "r1[1]", 0),
    "from_rays-r2": (lambda v: Cone.from_rays((1, 0), (v, 3)), "r2[0]", 1),
    "member": (lambda v: S.member((v, 0)), "x[0]", 2),
    "induced_leq": (lambda v: S.induced_leq((0, 0), (v, 0)), "y[0]", 2),
    "Cone.contains": (lambda v: S11.contains((v, 0)), "x[0]", 1),
    "Cone.leq": (lambda v: N2.leq((v, 0), (2, 0)), "x[0]", 1),
    "Cone.scaled_coords": (lambda v: S11.scaled_coords((v, 0)), "x[0]", 1),
    "Cone.ray_coords": (lambda v: S11.ray_coords((v, 0)), "x[0]", 1),
    "Cone.ray_multiples": (lambda v: N2.ray_multiples([(1, 0), (v, 0)], 0), "points[1][0]", 2),
}

NOT_INTEGERS = {"float": 1.5, "str": "2", "bool": True, "Fraction": Fraction(3, 2)}


@pytest.mark.parametrize("kind", sorted(NOT_INTEGERS))
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_integer(name, kind):
    """The error names the argument and the index, in the CLI's words."""
    call, path, _ = ENTRY_POINTS[name]
    value = NOT_INTEGERS[kind]
    with pytest.raises(InvalidInput) as err:
        call(value)
    assert err.value.payload == {"path": path}
    assert str(err.value) == f"{path} must be an integer, got {value!r:.40}"


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_an_int_like_reads_as_its_int(name):
    call, _, k = ENTRY_POINTS[name]
    assert call(IntLike(k)) == call(k)


# each returned a wrong answer, or a bare TypeError, before the one reader
WRONG_ANSWERS = {
    "float-gap": lambda: make_csemigroup(N2, [(1.5, 0)]),
    "string-gap": lambda: make_csemigroup(N2, [("1", 0)]),
    "float-numerical-gap": lambda: NumericalSemigroup.from_gaps([1.9]),
    "float-generator": lambda: expand(GeneratorInput(S11, [(1.5, 0), (2, 0), (3, 0), (1, 1)])),
    "float-ray-index": lambda: S.ray_restriction(0.5),
    "bool-shift": lambda: S.apery_set((True, 1)),
    "float-oracle-point": lambda: oracle_member(N2, [(1, 0), (0, 1)], (1.5, 1), 5),
    "float-lower-set-point": lambda: lower_set(N2, (1.5, 1)),
    "float-ray": lambda: Cone.from_rays((1.5, 0), (0, 1)),
    "float-member": lambda: S.member((1.5, 0)),
    "float-induced-leq": lambda: S.induced_leq((0, 0), (1.5, 0)),
    "float-contains": lambda: Cone.full_cone(2).contains((0.5, 0)),
    "bool-leq": lambda: Cone.full_cone(2).leq((0, 0), (True, 0)),
    "float-scaled-coords": lambda: Cone.full_cone(2).scaled_coords((0.5, 0)),
    "float-ray-multiples": lambda: Cone.full_cone(2).ray_multiples([(0.5, 0)], 0),
    "float-ray-coords": lambda: S11.ray_coords((1.5, 0.5)),
}


@pytest.mark.parametrize("name", sorted(WRONG_ANSWERS))
def test_a_truncated_float_is_refused(name):
    with pytest.raises(InvalidInput):
        WRONG_ANSWERS[name]()


def test_any_iterable_but_a_string_or_dict_reads_as_a_list():
    expected = make_csemigroup(N2, [(1, 0), (2, 0)])
    assert make_csemigroup(N2, iter([[2, 0], [1, 0]])) == expected
    assert make_csemigroup(N2, ((x, 0) for x in (1, 2))) == expected
    assert make_csemigroup(N2, {(1, 0), (2, 0)}) == expected
    assert make_csemigroup(N2, [iter((1, 0)), (IntLike(2), 0)]) == expected
    # (gaps, the path of the value that is no list, that value)
    for gaps, path, bad in (("ab", "gaps", "ab"), (b"ab", "gaps", b"ab"), (5, "gaps", 5),
                            ({(1, 0): 0}, "gaps", {(1, 0): 0}), (None, "gaps", None),
                            ([(1, 0), "10"], "gaps[1]", "10"), ([{1: 0}], "gaps[0]", {1: 0})):
        with pytest.raises(InvalidInput) as err:
            make_csemigroup(N2, gaps)
        assert err.value.payload == {"path": path}
        assert str(err.value) == f"{path} must be a list, got {bad!r:.40}"


def test_every_point_is_read_before_any_is_validated():
    """A malformed point after a zero gap is reported, not the zero gap;
    and the first malformed point in list order is the one reported."""
    with pytest.raises(InvalidInput) as err:
        make_csemigroup(N2, [(1, 0), (0, 0), (1.5, 0), ("a", 0)])
    assert err.value.payload == {"path": "gaps[2][0]"}
    with pytest.raises(ZeroGap):
        make_csemigroup(N2, [(1, 0), (0, 0), (IntLike(2), 0)])


def test_a_point_is_read_in_order_so_a_set_is_no_point():
    """A set's order is its hash order, so as a point's coordinates it is
    refused; as a list of points or of numerical gaps it reads as any list."""
    for call, path, bad in (
        (lambda: make_csemigroup(N2, [(1, 0), {2, 0}]), "gaps[1]", {2, 0}),
        (lambda: lower_set(N2, {2, 0}), "x", {2, 0}),
        (lambda: S.apery_set(frozenset({1, 0})), "b", frozenset({1, 0})),
        (lambda: Cone.from_rays({3, 1}, (1, 3)), "r1", {3, 1}),
        (lambda: oracle_member(N2, [(1, 0), (0, 1)], {1, 2}, 5), "x", {1, 2}),
        (lambda: lower_set_semigroup(N2, [frozenset({2, 1})]), "points[0]", frozenset({1, 2})),
    ):
        with pytest.raises(InvalidInput) as err:
            call()
        assert err.value.payload == {"path": path}
        assert str(err.value) == f"{path} must be a list, got {bad!r:.40}"
    assert NumericalSemigroup.from_gaps({1, 2}) == NumericalSemigroup.from_gaps([1, 2])
    assert NumericalSemigroup.from_generators({3, 5}) == NumericalSemigroup.from_generators([5, 3])
    assert make_csemigroup(N2, {(2, 0), (1, 0)}) == make_csemigroup(N2, [(1, 0), (2, 0)])
