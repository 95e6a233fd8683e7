"""Property tests of the analysis over random generalized Cartan matrices:
invariance under relabelling the vertices, and the spherical predicate
against Sylvester's criterion."""

import pytest

from kmfg import (
    GeneralizedCartanMatrix,
    build_adm,
    counts,
    hypothesis_report,
    pi1_group,
)
from kmfg.cartan import symmetrizer
from kmfg.errors import HypothesisError

from oracles import exact_det

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def gcms(draw):
    """Rank 1-8, off-diagonal entries in {0, -1, -2, -3, -4}, symmetric
    zero pattern."""
    n = draw(st.integers(1, 8))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j] = draw(st.integers(-4, -1))
                a[j][i] = draw(st.integers(-4, -1))
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


@st.composite
def relabelled_pairs(draw):
    m = draw(gcms())
    perm = draw(st.permutations(range(m.n)))
    a = m.entries
    moved = GeneralizedCartanMatrix(
        tuple(tuple(a[perm[i]][perm[j]] for j in range(m.n)) for i in range(m.n))
    )
    return m, moved


def _pi1_or_refusal(m):
    try:
        return str(pi1_group(m))
    except HypothesisError as exc:
        return exc.reason


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(relabelled_pairs())
def test_relabelling_invariance(pair):
    m, moved = pair
    assert counts(build_adm(m)) == counts(build_adm(moved))
    assert hypothesis_report(m) == hypothesis_report(moved)
    assert _pi1_or_refusal(m) == _pi1_or_refusal(moved)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(gcms())
def test_spherical_is_sylvester(m):
    d = symmetrizer(m)
    if d is None:
        expected = False
    else:
        s = [[d[i] * m.entries[i][j] for j in range(m.n)] for i in range(m.n)]
        expected = all(
            exact_det([row[:k] for row in s[:k]]) > 0 for k in range(1, m.n + 1)
        )
    assert hypothesis_report(m).spherical is expected
