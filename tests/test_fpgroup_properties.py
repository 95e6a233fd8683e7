"""Property tests of the coset enumerator and the Smith normal form: the
two enumeration strategies agree on flag-variety groups of random
generalized Cartan matrices and on random short presentations, where both
finish as the same regular representation up to relabelling, the
closure certificate agrees with tracing every relator at every coset,
each strategy's table, compacted, closes every relator at every coset,
repeated and inverted relators change no enumeration at any cap and,
with zero-row commutators too, no abelianization, the enumerator's
abelian guard reports exactly what both strategies reach by filling the
table, the Smith normal form matches the determinant divisors, the
flag-variety groups of random generalized Cartan matrices abelianize as
their exponent sums predict, and the orders read off the full flag
group's table are the enumerated ones."""

import math

import pytest

from kmfg import (
    AbelianInvariants,
    EnumerationResult,
    FpPresentation,
    GeneralizedCartanMatrix,
    abelianization,
    build_adm,
    cw_presentation,
    flag_presentation,
    smith_normal_form,
    todd_coxeter,
)
from kmfg.fpgroup import (
    FlagGroups,
    _closed,
    _CosetTable,
    _felsch_table,
    _hlt_table,
    _word_to_letters,
    free_reduce,
)

from oracles import minors_gcd_invariant_factors, relator_closes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CAPS = (1, 2, 3, 5, 8, 13, 100, 10_000)


@st.composite
def gcms(draw, max_rank):
    """A GCM of rank 1 to max_rank with off-diagonal entries in
    {0, -1, -2, -3, -4} and a symmetric zero pattern."""
    n = draw(st.integers(1, max_rank))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j] = draw(st.integers(-4, -1))
                a[j][i] = draw(st.integers(-4, -1))
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


@st.composite
def flag_presentations(draw):
    """flag_presentation(m, J) for a GCM of rank 1-5, and J empty or a
    single vertex."""
    m = draw(gcms(5))
    J = draw(st.sampled_from([()] + [(v,) for v in range(m.n)]))
    return flag_presentation(m, J)


@st.composite
def gcms_with_parabolic(draw):
    """A GCM of rank 1-7 and any parabolic J: its flag presentation has the
    tall sparse relator matrix of n(n-1) + |J| rows that the CLI reduces."""
    m = draw(gcms(7))
    J = tuple(v for v in range(m.n) if draw(st.booleans()))
    return m, J


@st.composite
def words(draw, ngens, max_length):
    """A nonempty freely reduced word of length up to ``max_length``: a
    random word, or a proper power w^k, or None when it reduces away."""
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return free_reduce(draw(st.lists(letter, min_size=1, max_size=max_length))) or None
    base = free_reduce(draw(st.lists(letter, min_size=1, max_size=max_length // 2)))
    if not base:
        return None
    power = free_reduce(base * draw(st.integers(2, max_length // len(base))))
    return power or None


@st.composite
def short_presentations(draw):
    """1 to 3 generators and 1 to 4 relators of length up to 8, with proper
    powers and repeated letters (x^3, (xy)^3, x y x y^-1): relator cycles
    that cross one edge of the coset table more than once."""
    ngens = draw(st.integers(1, 3))
    relators = [w for w in draw(st.lists(words(ngens, 8), min_size=1, max_size=4)) if w]
    return FpPresentation(("x", "y", "z")[:ngens], tuple(relators))


def _inverse(word):
    return tuple((gen, -exp) for gen, exp in reversed(word))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(flag_presentations())
def test_strategies_agree(p):
    hlt = todd_coxeter(p, max_cosets=1000, strategy="hlt")
    felsch = todd_coxeter(p, max_cosets=1000, strategy="felsch")
    if hlt.is_finite and felsch.is_finite:
        assert hlt.order == felsch.order


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(short_presentations())
def test_strategies_agree_on_short_presentations(p):
    felsch = todd_coxeter(p, max_cosets=500, strategy="felsch")
    hlt = todd_coxeter(p, max_cosets=500, strategy="hlt")
    if hlt.is_finite and felsch.is_finite:
        assert hlt.order == felsch.order


def _relabelling(source, target) -> dict:
    """Row g of the table ``source`` to a row of ``target``: row 0 to row
    0, and then row g.x to the row that ``target`` reaches from the image
    of g along the same letter x, over the rows reached from row 0."""
    image = {0: 0}
    stack = [0]
    while stack:
        g = stack.pop()
        for x, h in enumerate(source[g]):
            if h not in image:
                image[h] = target[image[g]][x]
                stack.append(h)
    return image


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.one_of(short_presentations(), flag_presentations()))
def test_strategies_give_one_regular_representation(p):
    # todd_coxeter enumerates the cosets of the trivial subgroup, so a
    # Finite table is the group's regular representation: the two
    # strategies may number its rows differently, but nothing else
    hlt = todd_coxeter(p, max_cosets=500, strategy="hlt")
    felsch = todd_coxeter(p, max_cosets=500, strategy="felsch")
    if hlt.is_finite and felsch.is_finite:
        image = _relabelling(hlt.table, felsch.table)
        assert sorted(image) == list(range(len(hlt.table)))
        assert sorted(image.values()) == list(range(len(felsch.table)))
        for g, row in enumerate(hlt.table):
            assert [image[h] for h in row] == felsch.table[image[g]]


@pytest.mark.parametrize("strategy", [_hlt_table, _felsch_table], ids=["hlt", "felsch"])
@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.one_of(short_presentations(), flag_presentations()))
def test_strategies_return_closed_tables(strategy, p):
    # the invariant that leaves todd_coxeter's certificate nothing to catch:
    # HLT scans every relator at every live coset, Felsch every relator
    # cycle through each deduction (a cycle that crosses the deduced edge
    # twice included), and coincidences keep closed cycles closed
    relators = [_word_to_letters(w) for w in p.relators]
    ct = strategy(p.generator_count, relators, 500)
    if ct is not None:
        ct.compact()
        assert all(None not in row for row in ct.table)
        assert all(relator_closes(ct.table, g, rel) for g in range(len(ct.table)) for rel in relators)


@st.composite
def permutation_tables(draw):
    """A complete coset table of 1 to 6 cosets on 1 or 2 generators, each
    generator a random permutation, and relators of length up to 6."""
    size = draw(st.integers(1, 6))
    ngens = draw(st.integers(1, 2))
    ct = _CosetTable(ngens, size)
    ct.table = [[None] * ct.width for _ in range(size)]
    ct.p = list(range(size))
    for gen in range(ngens):
        image = draw(st.permutations(range(size)))
        for g, h in enumerate(image):
            ct.table[g][2 * gen] = h
            ct.table[h][2 * gen + 1] = g
    relators = [
        _word_to_letters(w)
        for w in draw(st.lists(words(ngens, 6), min_size=1, max_size=3))
        if w
    ]
    return ct, relators


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(permutation_tables())
def test_certificate_is_closure_at_every_coset(table_and_relators):
    ct, relators = table_and_relators
    traced = all(relator_closes(ct.table, g, rel) for g in range(len(ct.table)) for rel in relators)
    assert _closed(ct.table, relators) == traced


@hypothesis.settings(max_examples=12, deadline=None)
@hypothesis.given(flag_presentations(), st.sampled_from(("hlt", "felsch")))
def test_repeated_and_inverted_relators_change_nothing(p, strategy):
    padded = FpPresentation(
        p.generator_names,
        p.relators + tuple(_inverse(w) for w in p.relators) + p.relators,
    )
    for cap in CAPS:
        assert todd_coxeter(padded, max_cosets=cap, strategy=strategy) == (
            todd_coxeter(p, max_cosets=cap, strategy=strategy)
        )
    # the commutators [x_i, x_j] add zero rows to the exponent-sum matrix
    commutators = tuple(
        ((i, 1), (j, 1), (i, -1), (j, -1))
        for i in range(p.generator_count)
        for j in range(i + 1, p.generator_count)
    )
    zero_padded = FpPresentation(p.generator_names, padded.relators + commutators)
    assert abelianization(zero_padded) == abelianization(p)


@st.composite
def flag_and_component_presentations(draw):
    """flag_presentation(m, J) for a GCM of rank 1-5 and J empty or a
    single vertex, and the group of one parity component C of m: the flag
    presentation with every vertex outside C killed."""
    m = draw(gcms(5))
    J = draw(st.sampled_from([()] + [(v,) for v in range(m.n)]))
    comp = draw(st.sampled_from(build_adm(m).components))
    return flag_presentation(m, J), flag_presentation(m, set(range(m.n)).difference(comp))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(flag_and_component_presentations())
def test_abelian_guard_is_what_the_table_reaches(presentations):
    # below |G^ab| the guard answers before any table; the strategies run
    # raw must fill theirs and return no table
    for p in presentations:
        invariants = abelianization(p)
        order = math.inf if invariants.free_rank else math.prod(invariants.torsion)
        relators = [_word_to_letters(w) for w in p.relators]
        for cap in (c for c in CAPS[:-1] if c < order):
            assert todd_coxeter(p, max_cosets=cap) == EnumerationResult.exhausted(cap)
            for run in (_hlt_table, _felsch_table):
                assert run(p.generator_count, relators, cap) is None


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entry = st.integers(-12, 12)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(integer_matrices())
def test_smith_normal_form_is_determinant_divisors(rows):
    assert smith_normal_form(rows) == minors_gcd_invariant_factors(rows)


def _predicted_abelianization(m, J) -> AbelianInvariants:
    """Z^free x C2^forced.  The pair relator (a, b) has exponent sum
    (eps(a, b) - 1) x_b, so x_b has order 2 when some a_ab is odd; x_k = 1
    for k in J, and every other x_b is free."""
    forced = [
        b
        for b in range(m.n)
        if b not in J and any(m.entries[a][b] % 2 for a in range(m.n) if a != b)
    ]
    return AbelianInvariants(m.n - len(J) - len(forced), (2,) * len(forced))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(gcms_with_parabolic())
def test_flag_presentation_abelianization(m_and_J):
    m, J = m_and_J
    assert abelianization(flag_presentation(m, J)) == _predicted_abelianization(m, J)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(gcms_with_parabolic())
def test_cw_presentation_abelianization(m_and_J):
    m, J = m_and_J
    assert abelianization(cw_presentation(m, J)) == _predicted_abelianization(m, J)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(gcms(5))
def test_orders_read_off_the_full_flag_table(m):
    # J empty, every singleton and every S - C: the index of <x_J> in the
    # full flag group is the order of the flag group with x_J killed
    cap = 1000
    groups = FlagGroups(m, cap)
    full_finite = groups.order(()).is_finite
    everything = set(range(m.n))
    parabolics = [()] + [(v,) for v in range(m.n)]
    parabolics += [everything.difference(comp) for comp in build_adm(m).components]
    for J in parabolics:
        direct = todd_coxeter(flag_presentation(m, J), max_cosets=cap)
        derived = groups.order(J)
        assert derived.is_finite or not full_finite
        if direct.is_finite:
            assert derived == direct
    # a fresh FlagGroups asked every J before G enumerates each directly
    fresh = FlagGroups(m, cap)
    for J in parabolics[1:] + [()]:
        direct = todd_coxeter(flag_presentation(m, J), max_cosets=cap)
        if direct.is_finite:
            assert fresh.order(J) == direct
