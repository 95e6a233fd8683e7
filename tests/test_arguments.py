"""Junk at every public integer-like argument: matrix entries, vertex sets,
word letters, simple roots, length bounds, element and coset caps, relator
entries, kappa values and the entries of a vector under the action.  An
exact int that the argument admits gives its result; every other value (a
float, a bool, a string, None, or an int out of range) is refused with the
argument's typed error, never answered.  So is a container argument that
is not iterable, and an element argument that is not a Weyl group element."""

import pytest

from kmfg import (
    EnumerationResult,
    FlagGroups,
    FpPresentation,
    GeneralizedCartanMatrix,
    WeylGroup,
    build_adm,
    cw_presentation,
    flag_presentation,
    from_named,
    kappa_constant,
    pi1_flag,
    pi1_spin,
    todd_coxeter,
    verify,
)
from kmfg.adm import KappaColouring, validate_kappa
from kmfg.cartan import vertex_subset
from kmfg.errors import (
    InadmissibleKappaError,
    InvariantViolationError,
    MatrixFormatError,
    ResourceLimitError,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

A3 = from_named("A3")
W = WeylGroup(A3)
ELEMENT = W.from_word((0, 1))
GRAPH = build_adm(A3)  # one blue component, so kappa 1 and 2 are both admissible
S3 = FpPresentation(("a", "b"), (((0, 1),) * 2, ((1, 1),) * 2, ((0, 1), (1, 1)) * 3))


def _capped(call):
    """The result of ``call``, or the marker "cap" where a valid cap stops
    it: a cap is a bound, so running out is an answer, not a refusal."""
    try:
        return call()
    except ResourceLimitError:
        return "cap"


def _vertex(v):
    return 0 <= v < 3


def _cap(v):
    return v >= 1


def _kappa(v):
    return v in (1, 2)


# name: (call, whether an exact int is admitted, error for anything else,
# the result for an admitted int or None where any result will do)
SLOTS = {
    "matrix_entry": (
        lambda v: GeneralizedCartanMatrix(((2, v), (v, 2))).entries,
        lambda v: v <= 0,
        MatrixFormatError,
        lambda v: ((2, v), (v, 2)),
    ),
    "vertex_subset": (lambda v: vertex_subset((v,), 3), _vertex, ValueError, lambda v: (v,)),
    "build_adm": (lambda v: build_adm(A3, (v,)), _vertex, ValueError, None),
    "flag_presentation": (lambda v: flag_presentation(A3, (v,)), _vertex, ValueError, None),
    "cw_presentation": (lambda v: cw_presentation(A3, (v,)), _vertex, ValueError, None),
    "flag_groups_presentation": (
        lambda v: FlagGroups(A3).presentation((v,)),
        _vertex,
        ValueError,
        lambda v: flag_presentation(A3, (v,)),
    ),
    "pi1_flag": (lambda v: pi1_flag(A3, (v,)).parabolic, _vertex, ValueError, lambda v: (v,)),
    "cell_counts_parabolic": (lambda v: W.cell_counts((v,), 2), _vertex, ValueError, None),
    "closure_cells_parabolic": (
        lambda v: W.closure_cells(W.identity(), (v,)),
        _vertex,
        ValueError,
        lambda v: [W.identity()],
    ),
    "is_minimal_rep": (
        lambda v: ELEMENT.is_minimal_rep((v,)),
        _vertex,
        ValueError,
        lambda v: v != 1,
    ),
    "from_word": (
        lambda v: W.from_word((0, v)).length,
        _vertex,
        ValueError,
        lambda v: 0 if v == 0 else 2,
    ),
    "generator": (lambda v: W.generator(v).reduced_word(), _vertex, ValueError, lambda v: (v,)),
    "is_reduced": (lambda v: W.is_reduced((1, v)), _vertex, ValueError, lambda v: v != 1),
    "root_sequence": (
        lambda v: W.root_sequence((v,)),
        _vertex,
        ValueError,
        lambda v: [W.simple_root(v)],
    ),
    "simple_root": (
        lambda v: W.simple_root(v),
        _vertex,
        ValueError,
        lambda v: tuple(int(j == v) for j in range(3)),
    ),
    "cell_counts_length": (
        lambda v: sum(W.cell_counts((), v).values()),
        lambda v: v >= 0,
        ValueError,
        lambda v: len(W.elements_up_to(min(v, 6))),
    ),
    "elements_up_to_length": (
        lambda v: len(W.elements_up_to(v)),
        lambda v: v >= 0,
        ValueError,
        lambda v: (1, 4, 9, 15, 20, 23, 24)[min(v, 6)],
    ),
    "cell_counts_cap": (
        lambda v: _capped(lambda: W.cell_counts((), 2, cap=v)),
        _cap,
        ValueError,
        # the chain W(A3)^{A2} W(A2)^{A1} W(A1) keeps 6 positions to length 2
        lambda v: {0: 1, 1: 3, 2: 5} if v >= 6 else "cap",
    ),
    "elements_up_to_cap": (
        lambda v: _capped(lambda: len(W.elements_up_to(2, cap=v))),
        _cap,
        ValueError,
        lambda v: 9 if v >= 9 else "cap",
    ),
    "closure_cells_cap": (
        lambda v: _capped(lambda: len(W.closure_cells(ELEMENT, (), cap=v))),
        _cap,
        ValueError,
        lambda v: 4 if v >= 4 else "cap",
    ),
    "todd_coxeter_cap": (
        lambda v: todd_coxeter(FpPresentation(("a",), (((0, 1),) * 3,)), max_cosets=v),
        _cap,
        ValueError,
        # |G^ab| = 3 bounds the index, so a cap below 3 stops before a table
        lambda v: EnumerationResult.finite(3) if v >= 3 else EnumerationResult.exhausted(v),
    ),
    "flag_groups_cap": (lambda v: FlagGroups(A3, v).max_cosets, _cap, ValueError, lambda v: v),
    "verify_cap": (lambda v: verify(from_named("A2"), v).result, _cap, ValueError, None),
    "relator_generator": (
        lambda v: FpPresentation(("a", "b"), (((v, 1),),)).relators,
        lambda v: 0 <= v < 2,
        ValueError,
        lambda v: (((v, 1),),),
    ),
    "relator_exponent": (
        lambda v: FpPresentation(("a", "b"), (((0, v),),)).relators,
        lambda v: v in (1, -1),
        ValueError,
        lambda v: (((0, v),),),
    ),
    "kappa_constant": (
        lambda v: kappa_constant(GRAPH, v).values,
        _kappa,
        InadmissibleKappaError,
        lambda v: (v,),
    ),
    "validate_kappa": (
        lambda v: validate_kappa(GRAPH, KappaColouring((v,))),
        _kappa,
        InadmissibleKappaError,
        lambda v: None,
    ),
    "pi1_spin": (
        lambda v: str(pi1_spin(A3, KappaColouring((v,)))),
        _kappa,
        InadmissibleKappaError,
        lambda v: "C2" if v == 1 else "1",
    ),
    "act": (
        lambda v: ELEMENT.act((v, 1, 0)),
        lambda v: True,
        ValueError,
        lambda v: tuple(sum(a * x for a, x in zip(row, (v, 1, 0))) for row in ELEMENT.matrix),
    ),
}

# an int the argument does not admit, where it is refused with another error
# than a non-integer: a positive entry breaks the matrix's sign invariant
RANGE_ERROR = {"matrix_entry": InvariantViolationError}

JUNK = st.one_of(
    st.integers(-4, 12),
    st.integers(-4, 12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["1", "0", "", "x"]),
    st.none(),
)


@pytest.mark.parametrize("slot", sorted(SLOTS))
@hypothesis.given(value=JUNK)
@hypothesis.example(value=1.5)
@hypothesis.example(value=1.0)
@hypothesis.example(value=True)
@hypothesis.example(value=False)
@hypothesis.example(value="1")
@hypothesis.example(value=None)
@hypothesis.example(value=-3)
@hypothesis.example(value=0)
@hypothesis.example(value=5)
@hypothesis.settings(max_examples=40, deadline=None)
def test_integer_result_or_typed_error(slot, value):
    call, admitted, error, expected = SLOTS[slot]
    if value.__class__ is not int:
        with pytest.raises(error):
            call(value)
    elif admitted(value):
        result = call(value)
        if expected is not None:
            assert result == expected(value)
    else:
        with pytest.raises(RANGE_ERROR.get(slot, error)):
            call(value)


# a container argument that is not iterable: the call and its typed error
NOT_ITERABLE = {
    "matrix_rows": (lambda: GeneralizedCartanMatrix((5, 6)), MatrixFormatError),
    "matrix": (lambda: GeneralizedCartanMatrix(5), MatrixFormatError),
    "vertex_subset": (lambda: vertex_subset(5, 3), ValueError),
    "cell_counts": (lambda: W.cell_counts(5, 2), ValueError),
    "flag_presentation": (lambda: flag_presentation(A3, 5), ValueError),
    "from_word": (lambda: W.from_word(5), ValueError),
    "root_sequence": (lambda: W.root_sequence(5), ValueError),
    "act": (lambda: ELEMENT.act(5), ValueError),
    "relators": (lambda: FpPresentation(("a",), 5), ValueError),
    "pi1_spin": (lambda: pi1_spin(from_named("A1"), (1,)), InadmissibleKappaError),
    "generator_names": (lambda: FpPresentation(5, ()), ValueError),
    "kappa_values": (lambda: pi1_spin(from_named("A1"), KappaColouring(5)), InadmissibleKappaError),
}


@pytest.mark.parametrize("name", sorted(NOT_ITERABLE))
def test_not_iterable_container_is_typed_error(name):
    call, error = NOT_ITERABLE[name]
    with pytest.raises(error):
        call()


def test_subgroup_words_refused_by_the_cap_rule():
    # todd_coxeter enumerates the whole group and takes no subgroup words:
    # a tuple of words passed second is the cap, refused by the cap rule,
    # so such a call fails loudly instead of answering
    with pytest.raises(ValueError, match=r"^coset cap .* is not an integer$"):
        todd_coxeter(S3, (((0, 1),),))


# a container argument that is iterable but not what the argument holds
WRONG_CONTAINER = {
    # a one-shot iterator would pass a tuple conversion once, then read empty
    "kappa_values": (
        lambda: pi1_spin(from_named("A1"), KappaColouring(iter((1,)))),
        InadmissibleKappaError,
    ),
    "kappa_values_list": (
        lambda: validate_kappa(GRAPH, KappaColouring([1])),
        InadmissibleKappaError,
    ),
    "generator_names": (lambda: FpPresentation((0, 1), ()), ValueError),
    "generator_names_string": (lambda: FpPresentation("ab", ()), ValueError),
    "generator_name_none": (lambda: FpPresentation(("a", None), ()), ValueError),
}


@pytest.mark.parametrize("name", sorted(WRONG_CONTAINER))
def test_wrong_container_is_typed_error(name):
    call, error = WRONG_CONTAINER[name]
    with pytest.raises(error):
        call()


# an element argument that is not a WeylElement: the call and the value's
# type name, which the ValueError names
NOT_AN_ELEMENT = {
    "closure_cells": (lambda: W.closure_cells(5, ()), "int"),
    "bruhat_leq": (lambda: ELEMENT.bruhat_leq(5), "int"),
    "mul": (lambda: ELEMENT * 5, "int"),
    "weak_leq": (lambda: ELEMENT.weak_leq(None), "NoneType"),
}


@pytest.mark.parametrize("name", sorted(NOT_AN_ELEMENT))
def test_not_an_element_is_typed_error(name):
    call, type_name = NOT_AN_ELEMENT[name]
    with pytest.raises(ValueError, match=f"^expected a WeylElement, got {type_name}$"):
        call()


def test_generator_names_kept_as_a_tuple():
    p = FpPresentation(["a", "b"], ())
    assert p.generator_names == ("a", "b") and p.generator_count == 2


# validate_kappa tests a colouring of exact 1s and 2s in one pass over its
# values; any other colouring is read value by value, and the refusal names
# the first fault in component order: a value that is not the exact int 1
# or 2, or a 2 on a red component
TWO_GREEN = build_adm(GeneralizedCartanMatrix(((2, 0), (0, 2))))
C3_GRAPH = build_adm(from_named("C3"))  # components {1, 2} (r) and {3} (g)
_NOT_ONE_OR_TWO = "kappa value must be 1 or 2, got {!r}"
_RED = "kappa must equal 1 on the r-coloured component {1, 2}"


@pytest.mark.parametrize("value", [1.0, True, "1", 0, 3], ids=repr)
@pytest.mark.parametrize("at", ["first", "after_a_valid_one"])
def test_validate_kappa_refuses_a_value_that_is_not_one_or_two(value, at):
    for valid in (1, 2):
        values = (value, valid) if at == "first" else (valid, value)
        with pytest.raises(InadmissibleKappaError) as refusal:
            validate_kappa(TWO_GREEN, KappaColouring(values))
        assert str(refusal.value) == _NOT_ONE_OR_TWO.format(value)


@pytest.mark.parametrize(
    "values, message",
    [
        ((2, 1), _RED),
        ((2, 2), _RED),
        # the red component comes first, so its 2 is the fault named
        ((2, 3), _RED),
        ((2, 1.0), _RED),
        ((3, 2), _NOT_ONE_OR_TWO.format(3)),
        ((1.0, 2), _NOT_ONE_OR_TWO.format(1.0)),
        ((True, 1), _NOT_ONE_OR_TWO.format(True)),
    ],
    ids=repr,
)
def test_validate_kappa_names_the_first_fault(values, message):
    with pytest.raises(InadmissibleKappaError) as refusal:
        validate_kappa(C3_GRAPH, KappaColouring(values))
    assert str(refusal.value) == message


def test_validate_kappa_admits_exact_ones_and_twos():
    for values in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert validate_kappa(TWO_GREEN, KappaColouring(values)) is None
    for values in ((1, 1), (1, 2)):
        assert validate_kappa(C3_GRAPH, KappaColouring(values)) is None
