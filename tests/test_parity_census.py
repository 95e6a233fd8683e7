"""Every parity pattern of rank at most 4, up to relabelling.

Flag presentations and the parity graph read a generalized Cartan matrix
only through its parities eps(i, j) in {+1, -1}, i != j, so one GCM per
pattern class covers every GCM of that rank.  A class is keyed by its
least relabelled pattern over all n! permutations; the class counts are
the numbers of digraphs on n vertices (OEIS A000273).  A class is
realised with -1 for an odd entry, -2 for an even entry facing an odd one
and 0 otherwise, so every product a_ij a_ji is 0, 1 or 2 and the gate
accepts each one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from kmfg.adm import build_adm, enumerate_kappa, kappa_bits
from kmfg.cartan import GeneralizedCartanMatrix
from kmfg.errors import InternalError
from kmfg.fpgroup import verify
from kmfg.pi1 import pi1_flag, pi1_group, pi1_spin, spin_rows

from oracles import spin_rows_dense

RANKS = (1, 2, 3, 4)


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


@lru_cache(maxsize=None)
def _classes(n) -> tuple[tuple[int, ...], ...]:
    """The least relabelled pattern of each class of rank n, in order."""
    pairs = _pairs(n)
    perms = list(itertools.permutations(range(n)))
    classes = set()
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        eps = dict(zip(pairs, signs))
        classes.add(min(tuple(eps[p[i], p[j]] for i, j in pairs) for p in perms))
    return tuple(sorted(classes))


def _realise(n, pattern) -> GeneralizedCartanMatrix:
    eps = dict(zip(_pairs(n), pattern))
    entries = [[2] * n for _ in range(n)]
    for i, j in _pairs(n):
        if eps[i, j] == -1:
            entries[i][j] = -1
        elif eps[j, i] == -1:
            entries[i][j] = -2
        else:
            entries[i][j] = 0
    return GeneralizedCartanMatrix(tuple(map(tuple, entries)))


def _matrices():
    for n in RANKS:
        for pattern in _classes(n):
            yield _realise(n, pattern)


def _flag_cases():
    """(m, J) for every class and every parabolic J of it."""
    for m in _matrices():
        for r in range(m.n + 1):
            for J in itertools.combinations(range(m.n), r):
                yield m, J


def test_class_counts():
    assert [len(_classes(n)) for n in RANKS] == [1, 3, 16, 218]


def test_realised_parities():
    for n in RANKS:
        for pattern in _classes(n):
            m = _realise(n, pattern)
            assert tuple(m.parity(i, j) for i, j in _pairs(n)) == pattern


def test_every_class_verifies():
    results = Counter(verify(m).result for m in _matrices())
    assert results == {"PASS": 238}


def test_component_alone_in_its_colour():
    # verify checks C at S - C with C's colour in build_adm(m), and
    # pi1_flag colours that group by build_adm(m, S - C): the same colour
    seen = 0
    for m in _matrices():
        graph = build_adm(m)
        for comp, colour in zip(graph.components, graph.colours):
            outside = build_adm(m, [v for v in range(m.n) if v not in comp])
            assert (outside.components, outside.colours) == ((comp,), (colour,))
            seen += 1
    assert seen == 600


def test_every_spin_listing():
    # the listing is row for row the per-colouring API and the dense colour
    # rule, and each row is the one-row listing of its bits
    for m in _matrices():
        graph = build_adm(m)
        rows = list(spin_rows(graph))
        assert rows == [(kappa_bits(graph, k), pi1_spin(m, k)) for k in enumerate_kappa(graph)]
        assert rows == spin_rows_dense(m)
        for bits, value in rows:
            assert list(spin_rows(graph, bits)) == [(bits, value)]


def test_every_flag_group_checks():
    # pi1_flag raises InternalError on a flag group that contradicts its
    # colours
    checked = 0
    for m, J in _flag_cases():
        pi1_flag(m, J)
        checked += 1
    assert checked == 3630


def test_green_to_blue_fails_verify(green_to_blue):
    # a green component's group has free rank 1, so a blue prediction
    # fails its order check instead of leaving it open
    results = Counter(verify(m).result for m in _matrices())
    assert results == {"PASS": 134, "FAIL": 104}


def test_green_to_blue_fails_pi1_flag(green_to_blue):
    failed = 0
    for m, J in _flag_cases():
        try:
            pi1_flag(m, J)
        except InternalError as exc:
            assert "; free rank " in str(exc)
            failed += 1
    assert failed == 882


def test_rank_4_pi1_tally():
    tally = Counter(str(pi1_group(_realise(4, pattern))) for pattern in _classes(4))
    assert tally == {
        "1": 94,
        "C2": 31,
        "C2^2": 1,
        "Z": 63,
        "Z x C2": 7,
        "Z^2": 17,
        "Z^2 x C2": 1,
        "Z^3": 3,
        "Z^4": 1,
    }
