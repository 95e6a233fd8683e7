"""Property test: on random generalized Cartan matrices the heights-vector
Weyl engine and the integer-matrix oracle agree element by element."""

import pytest

from kmfg import GeneralizedCartanMatrix, WeylGroup

from oracles import MatrixWeylGroup

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LENGTH = 4


@st.composite
def gcms(draw):
    """Rank 1-6, off-diagonal entries in {0, -1, -2, -3, -4}, symmetric
    zero pattern."""
    n = draw(st.integers(1, 6))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j] = draw(st.integers(-4, -1))
                a[j][i] = draw(st.integers(-4, -1))
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms())
def test_engines_agree_on_random_gcms(m):
    group, oracle = WeylGroup(m), MatrixWeylGroup(m)
    elements = group.elements_up_to(LENGTH)
    expected = oracle.elements_up_to(LENGTH)
    assert [(w.matrix, w.length) for w in elements] == expected
    for w, (matrix, _) in zip(elements, expected):
        assert w.reduced_word() == oracle.reduced_word(matrix)
