"""Property test: on random generalized Cartan matrices the heights-vector
Weyl engine and the integer-matrix oracle agree element by element, and
on products and the action of fresh elements; closure cells carry the
canonical words that the strips and a brute-force search give."""

from collections import Counter
from itertools import product

import pytest

from kmfg import GeneralizedCartanMatrix, WeylElement, WeylGroup

from oracles import MatrixWeylGroup
from test_coxeter import minimal_reps

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LENGTH = 4


@st.composite
def gcms(draw, max_rank=6):
    """Rank 1 to ``max_rank``, off-diagonal entries in {0, -1, -2, -3, -4},
    symmetric zero pattern."""
    n = draw(st.integers(1, max_rank))
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


@st.composite
def gcms_with_parabolic(draw, max_rank=6):
    m = draw(gcms(max_rank))
    return m, tuple(j for j in range(m.n) if draw(st.booleans()))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic())
def test_cell_counts_by_definition(case):
    """The numbers-game walk counts the minimal representatives of w W_J."""
    m, J = case
    group = WeylGroup(m)
    expected = {}
    for w in group.elements_up_to(LENGTH):
        if w.is_minimal_rep(J):
            expected[w.length] = expected.get(w.length, 0) + 1
    assert group.cell_counts(J, LENGTH) == expected


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic(), st.integers(0, 5))
def test_cell_counts_match_the_matrix_oracle(case, length):
    """The walk's histogram, its last level counted and not built, is the
    matrix oracle's count of the elements with no right descent in J;
    indefinite and non-symmetrizable matrices included."""
    m, J = case
    assert WeylGroup(m).cell_counts(J, length) == MatrixWeylGroup(m).cell_counts(J, length)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic(), st.integers(0, 5))
def test_chain_counts_the_minimal_representatives(case, length):
    """The product over the parabolic chain is the histogram of W^J read off
    the full walk.  A cap of W^J's size answers: the chain's walks keep
    distinct elements of W^J, e once, and each product multiplies one pair
    of coefficients per element of some W^K, K containing J."""
    m, J = case
    group = WeylGroup(m)
    expected = Counter(w.length for w in minimal_reps(group, J, length))
    cells = sum(expected.values())
    assert group.cell_counts(J, length, cap=cells) == dict(sorted(expected.items()))


def _closure_case(case, letters):
    """The group, w from ``letters`` and the part of J where w is minimal."""
    m, J = case
    group = WeylGroup(m)
    w = group.from_word([i % m.n for i in letters])
    return group, w, tuple(j for j in J if w.is_minimal_rep((j,)))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic(), st.lists(st.integers(0, 5), max_size=LENGTH))
def test_closure_cells_by_definition(case, letters):
    """Subword products give the minimal representatives below w in the
    Bruhat order."""
    group, w, J = _closure_case(case, letters)
    expected = [
        x for x in group.elements_up_to(w.length) if x.is_minimal_rep(J) and x.bruhat_leq(w)
    ]
    assert sorted(group.closure_cells(w, J), key=lambda x: x.heights) == sorted(
        expected, key=lambda x: x.heights
    )


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gcms_with_parabolic(), st.lists(st.integers(0, 5), max_size=8))
def test_closure_cells_carry_their_canonical_words(case, letters):
    """Each cell carries the word that the strips give a fresh element with
    its heights, the cells come in order of length and word, and a word
    spells its cell at its length."""
    group, w, J = _closure_case(case, letters)
    cells = group.closure_cells(w, J)
    keys = [(x.length, x.reduced_word()) for x in cells]
    assert keys == sorted(keys)
    for x in cells:
        word = x.reduced_word()
        assert word == WeylElement(group, x.heights).reduced_word()
        assert group.from_word(word).heights == x.heights
        assert len(word) == x.length


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gcms_with_parabolic(), st.lists(st.integers(0, 5), max_size=8))
def test_closure_cells_from_any_reduced_word(case, letters):
    """[e, w] is the set of subword products of any reduced word of w: the
    canonical word, the reversed strip and the drawn word, where it is
    reduced, give the same cells."""
    group, w, J = _closure_case(case, letters)
    words = {w.reduced_word(), WeylElement(group, w.heights)._some_reduced_word()}
    letters = tuple(i % group.n for i in letters)
    if group.is_reduced(letters):
        words.add(letters)
    results = []
    for word in words:
        given = WeylElement(group, w.heights)
        given._word = word
        results.append([(x.heights, x.reduced_word()) for x in group.closure_cells(given, J)])
    assert all(result == results[0] for result in results)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic(max_rank=4), st.lists(st.integers(0, 3), max_size=6))
def test_closure_words_are_least_by_brute_force(case, letters):
    """At rank <= 4 and length <= 6 every word up to w's length is spelled
    in lexicographic order, so the first reduced word found for an
    element is its least; each cell carries that one."""
    group, w, J = _closure_case(case, letters)
    least = {}
    for length in range(w.length + 1):
        for word in product(range(group.n), repeat=length):
            x = group.from_word(word)
            if x.length == length:
                least.setdefault(x.heights, word)
    for x in group.closure_cells(w, J):
        assert x.reduced_word() == least[x.heights]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gcms(), st.lists(st.integers(0, 5), max_size=8))
def test_inverse_and_word_by_strip(m, letters):
    """A strip and a step give w^{-1} and its lexicographically least word,
    and one more strip gives w's; indefinite matrices, with unbounded
    heights, included."""
    group, oracle = WeylGroup(m), MatrixWeylGroup(m)
    word = [i % m.n for i in letters]
    w, matrix = group.from_word(word), oracle.from_word(word)
    inverse = w.inverse()
    assert inverse == group.from_word(reversed(w.reduced_word()))
    assert (w * inverse).is_identity()
    assert (inverse * w).is_identity()
    assert w.reduced_word() == oracle.reduced_word(matrix)
    assert inverse.reduced_word() == oracle.reduced_word(oracle.inverse(matrix))
    assert inverse.length == w.length == oracle.length(matrix)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    gcms(),
    st.lists(st.integers(0, 5), max_size=8),
    st.lists(st.integers(0, 5), max_size=8),
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
def test_products_and_action_of_fresh_elements(m, left, right, vector):
    """Each factor is read off one strip, reversed; the product, its length,
    the action and the matrix are the oracle's."""
    group, oracle = WeylGroup(m), MatrixWeylGroup(m)
    u, v = [i % m.n for i in left], [i % m.n for i in right]
    x, y = group.from_word(u), group.from_word(v)
    product = x * y
    matrix = oracle.mul(oracle.from_word(u), oracle.from_word(v))
    assert product.matrix == matrix
    assert product.length == oracle.length(matrix)
    assert group.from_word(v).act(vector[: m.n]) == oracle.act(oracle.from_word(v), vector[: m.n])
