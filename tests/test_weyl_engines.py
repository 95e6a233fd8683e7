"""The heights-vector Weyl engine against the integer-matrix oracle."""

import random

import pytest

from kmfg import WeylGroup, from_named

from oracles import MatrixWeylGroup

# (diagram, length bound): finite types in full where small, affine and
# large ones at small lengths
CASES = [
    ("A3", 6), ("B3", 9), ("G2", 6), ("F4", 5), ("A1~", 8), ("A4~", 4),
    ("E6", 4), ("E8", 3),
]
PARABOLICS = [(0,), (0, 1), (1,)]


@pytest.fixture(scope="module", params=CASES, ids=[name for name, _ in CASES])
def engines(request):
    name, length = request.param
    m = from_named(name)
    group, oracle = WeylGroup(m), MatrixWeylGroup(m)
    return group, oracle, group.elements_up_to(length), length


def _sample(elements, k, seed):
    return random.Random(seed).sample(elements, min(k, len(elements)))


def _random_words(n, count, seed, max_len=9):
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(rng.randint(0, max_len))) for _ in range(count)]


def test_same_elements_in_the_same_order(engines):
    group, oracle, elements, length = engines
    assert [(w.matrix, w.length) for w in elements] == oracle.elements_up_to(length)


def test_cell_counts(engines):
    group, oracle, _, length = engines
    for J in [()] + [J for J in PARABOLICS if max(J) < group.n]:
        assert group.cell_counts(J, length) == oracle.cell_counts(J, length)


def test_closure_cells(engines):
    group, oracle, elements, _ = engines
    matrices = {x: x.matrix for x in elements}
    for w in _sample(elements, 6, 6):
        below = [x for x in elements if oracle.bruhat_leq(matrices[x], matrices[w])]
        for J in [()] + [J for J in PARABOLICS if max(J) < group.n and w.is_minimal_rep(J)]:
            expected = {x for x in below if x.is_minimal_rep(J)}
            assert set(group.closure_cells(w, J)) == expected


def test_reduced_word_length_inverse(engines):
    group, oracle, elements, _ = engines
    for w in elements:
        m = w.matrix
        assert w.reduced_word() == oracle.reduced_word(m)
        assert w.inverse().matrix == oracle.inverse(m)
    # lengths computed by stripping, not carried from enumeration
    for word in _random_words(group.n, 40, 1):
        w = group.from_word(word)
        fresh = type(w)(group, w.heights)
        assert fresh.length == oracle.length(oracle.from_word(word)) == w.length
        assert fresh.reduced_word() == oracle.reduced_word(oracle.from_word(word))


def test_mul_and_act(engines):
    group, oracle, elements, _ = engines
    rng = random.Random(2)
    sample = _sample(elements, 15, 3)
    for u in sample:
        for v in sample:
            assert (u * v).matrix == oracle.mul(u.matrix, v.matrix)
        vector = tuple(rng.randint(-5, 5) for _ in range(group.n))
        assert u.act(vector) == oracle.act(u.matrix, vector)


def test_root_sequence(engines):
    group, oracle, _, _ = engines
    for word in _random_words(group.n, 40, 4):
        assert group.root_sequence(word) == oracle.root_sequence(word)
        assert group.is_reduced(word) == (oracle.length(oracle.from_word(word)) == len(word))


def test_bruhat_and_weak_order(engines):
    group, oracle, elements, _ = engines
    sample = _sample(elements, 16, 5)
    for u in sample:
        for w in sample:
            assert u.bruhat_leq(w) == oracle.bruhat_leq(u.matrix, w.matrix)
            assert u.weak_leq(w) == oracle.weak_leq(u.matrix, w.matrix)
