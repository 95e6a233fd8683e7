"""Junk at every public integer-like argument: matrix entries, vertex sets,
word letters, simple roots, length bounds, element and coset caps, relator
and subgroup-word entries, kappa values and the entries of a vector under
the action.  An exact int that the argument admits gives its result; every
other value (a float, a bool, a string, None, or an int out of range) is
refused with the argument's typed error, never answered."""

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
        lambda v: {0: 1, 1: 3, 2: 5} if v >= 9 else "cap",
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
    "subgroup_word": (
        lambda v: todd_coxeter(S3, subgroup_words=(((v, 1),),)).order,
        lambda v: 0 <= v < 2,
        ValueError,
        lambda v: 3,
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
