"""Property tests of the analysis over random generalized Cartan matrices:
the constructor against the invariants read entry by entry, the
plain-format parser against a regex tokenizer, invariance under
relabelling the vertices, the neighbour list, the predicates and the
coloured parity graph at every parabolic J against their dense
definitions, the least integer symmetrizer against rational ratios, each
parity component alone in its colour at its complement, the spherical
predicate against Sylvester's criterion, the colouring rule for
pi1(G/P_J) at every parabolic J, a flag group's free rank as its green
count at a small coset cap, its closed form on connected simply-laced
diagrams, the spin covers against the dense colour rule, and
the answers for a direct sum as the products of its factors' answers."""

import itertools
import math
from fractions import Fraction

import pytest

from kmfg import (
    AbelianInvariants,
    EnumerationResult,
    GeneralizedCartanMatrix,
    abelianization,
    build_adm,
    enumerate_kappa,
    flag_presentation,
    hypothesis_report,
    parse_matrix,
    pi1_flag,
    pi1_group,
    pi1_spin,
    todd_coxeter,
)
from kmfg.adm import KappaColouring, kappa_bits
from kmfg.pi1 import spin_rows
from kmfg.cartan import symmetrizer
from kmfg.errors import HypothesisError, InvariantViolationError, MatrixFormatError

from oracles import (
    coloured_components_dense,
    connected_dense,
    direct_sum,
    exact_det,
    gcm_first_violation,
    minors_gcd_invariant_factors,
    parity_edges_dense,
    parse_plain_reference,
    spin_covers_dense,
    spin_rows_dense,
    symmetrizer_rational,
    two_spherical_dense,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def gcms(draw, max_rank=8):
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


# Whitespace that str.split() and the regex \s both know, line breaks that
# splitlines() knows, and comments that hold numbers and junk.
SEPARATORS = (
    " ", "  ", "\t", "\n", "\n\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
    "\xa0", "\u2028", "\u3000", " # a comment, 1 2\n", "#x 7\n", "\n  # 3 -1\t\n",
)
# words int() refuses, and Arabic-Indic digits, which it reads
ODD_WORDS = ("x", "1.5", "--1", "2-", "0x3", "1e2", "+", "\u0661\u0662")


@st.composite
def plain_texts(draw):
    """The plain format of a random GCM, laid out with random whitespace
    and comments, or a mutant of it: a junk token, a missing or trailing
    token, a rank <= 0, an empty input, or an entry that breaks a GCM
    invariant."""
    m = draw(gcms())
    words = [str(m.n)] + [str(v) for row in m.entries for v in row]
    mutation = draw(st.sampled_from(("none", "junk", "drop", "trailing", "rank", "empty", "entry")))
    if mutation == "junk":
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(ODD_WORDS))
    elif mutation == "drop":
        del words[draw(st.integers(0, len(words) - 1))]
    elif mutation == "trailing":
        words += draw(st.lists(st.sampled_from(("7", "-1", "x")), min_size=1, max_size=2))
    elif mutation == "rank":
        words[0] = str(draw(st.integers(-3, 0)))
    elif mutation == "empty":
        words = []
    elif mutation == "entry":
        words[draw(st.integers(1, len(words) - 1))] = str(draw(st.integers(-3, 3)))
    text = draw(st.sampled_from(("", "\n", "# header\n", " \t")))
    for word in words:
        text += word + draw(st.sampled_from(SEPARATORS))
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except MatrixFormatError as exc:
        return ("format", str(exc), exc.line, exc.column)
    except InvariantViolationError as exc:
        return ("invariant", str(exc), exc.invariant, exc.entry)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(plain_texts())
def test_parse_plain_is_the_tokenizer_reference(text):
    """The same matrix, or the same error with the same line and column."""
    assert _outcome(lambda t: parse_matrix(t).entries, text) == _outcome(
        lambda t: GeneralizedCartanMatrix(parse_plain_reference(t)).entries, text
    )


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
    assert sorted(build_adm(m).colours) == sorted(build_adm(moved).colours)
    assert hypothesis_report(m) == hypothesis_report(moved)
    assert _pi1_or_refusal(m) == _pi1_or_refusal(moved)


@st.composite
def square_matrices(draw):
    """Rank 1 to 6, entries in -3..3, a diagonal that is mostly 2; each
    mirror pair of off-diagonal entries is both 0, both negative or drawn
    freely, so valid and invalid matrices both come often."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    a = [[draw(st.sampled_from((2, 2, 2, 2, 2, 2, 2, 0, 1, 3, -1))) if i == j else 0
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(("zero", "negative", "negative", "free")))
            if kind == "negative":
                a[i][j], a[j][i] = draw(st.integers(-3, -1)), draw(st.integers(-3, -1))
            elif kind == "free":
                a[i][j], a[j][i] = draw(entry), draw(entry)
    return tuple(tuple(row) for row in a)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(square_matrices())
def test_constructor_is_the_entrywise_rule(rows):
    expected = gcm_first_violation(rows)
    if expected is not None:
        with pytest.raises(InvariantViolationError) as info:
            GeneralizedCartanMatrix(rows)
        assert (info.value.invariant, info.value.entry, str(info.value)) == expected
        return
    m = GeneralizedCartanMatrix(rows)
    assert m.entries == rows
    n = len(rows)
    assert m.neighbours == tuple(
        tuple((j, rows[i][j]) for j in range(n) if j != i and rows[i][j] != 0)
        for i in range(n)
    )


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gcms())
def test_sparse_reading_is_the_dense_definition(m):
    a = m.entries
    assert [[j for j, _ in row] for row in m.neighbours] == [
        sorted(j for j, _ in row) for row in m.neighbours
    ]
    assert {(i, j, v) for i, row in enumerate(m.neighbours) for j, v in row} == {
        (i, j, a[i][j]) for i in range(m.n) for j in range(m.n) if i != j and a[i][j] != 0
    }
    report = hypothesis_report(m)
    assert report.irreducible is connected_dense(m)
    assert report.two_spherical is two_spherical_dense(m)
    d = symmetrizer(m)
    if d is not None:
        assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(m.n) for j in range(m.n))
    for size in range(m.n + 1):
        for J in itertools.combinations(range(m.n), size):
            graph = build_adm(m, J)
            assert graph.edges == parity_edges_dense(m, J)
            assert (graph.components, graph.colours) == coloured_components_dense(m, J)


def _components_dense(m):
    """The vertex sets of the diagram's components, over all n^2 entries."""
    a = m.entries
    components, seen = [], set()
    for root in range(m.n):
        if root in seen:
            continue
        component, stack = [], [root]
        seen.add(root)
        while stack:
            i = stack.pop()
            component.append(i)
            for j in range(m.n):
                if a[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        components.append(component)
    return components


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(gcms())
def test_symmetrizer_is_least_in_integers(m):
    """Positive ints, gcd 1 on each component and proportional there to the
    rational ratios; None exactly when the ratios are inconsistent."""
    d = symmetrizer(m)
    rational = symmetrizer_rational(m)
    assert (d is None) == (rational is None)
    if d is None:
        return
    assert all(type(x) is int and x > 0 for x in d)
    for component in _components_dense(m):
        assert math.gcd(*(d[i] for i in component)) == 1
        scale = Fraction(d[component[0]]) / rational[component[0]]
        assert all(d[i] == scale * rational[i] for i in component)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(gcms())
def test_component_alone_outside_its_complement(m):
    # the flag graph at S - C is C alone, in C's colour: an edge or a
    # witness from C to a killed vertex k would put k in C or make C red
    graph = build_adm(m)
    for comp, colour in zip(graph.components, graph.colours):
        alone = build_adm(m, set(range(m.n)).difference(comp))
        assert (alone.components, alone.colours) == ((comp,), (colour,))


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


@st.composite
def simply_laced_flags(draw):
    """A connected simply-laced GCM of rank 1-7, a random tree plus up to
    four extra edges (so cycles and branch points occur), and a nonempty
    parabolic J."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=4)))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    J = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a)), tuple(sorted(J))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(simply_laced_flags())
def test_simply_laced_flag_closed_form(case):
    m, J = case
    info = pi1_flag(m, J)
    k = m.n - len(J)
    assert info.closed_form == AbelianInvariants(0, (2,) * k)
    assert info.order == EnumerationResult.finite(2**k)


@st.composite
def flag_cases(draw):
    """A GCM of rank 1-6 (entries 0..-4, symmetric zero pattern) and any
    parabolic J, the empty and the full vertex set included."""
    m = draw(gcms().filter(lambda m: m.n <= 6))
    J = draw(st.sets(st.integers(0, m.n - 1)))
    return m, tuple(sorted(J))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(flag_cases())
def test_flag_colouring_rule(case):
    m, J = case
    info = pi1_flag(m, J, force=True)
    graph = build_adm(m, J)
    green = [comp[0] for comp, colour in zip(graph.components, graph.colours) if colour == "g"]
    assert info.invariants.free_rank == len(green)
    presentation = flag_presentation(m, J)
    # each row is 0, e_k or -2 e_j; dropping zero and repeated rows leaves
    # the row lattice, so the invariant factors, unchanged
    rows = set()
    for word in presentation.relators:
        row = [0] * m.n
        for gen, exp in word:
            row[gen] += exp
        if any(row):
            rows.add(tuple(row))
    factors = minors_gcd_invariant_factors(sorted(rows))
    assert (info.closed_form is None) == ("b" in graph.colours)
    if info.closed_form is not None:
        assert info.closed_form.free_rank == m.n - len(factors)
        torsion = list(info.closed_form.torsion)
        assert [d for d in factors if d > 1] == [2] * len(torsion) == torsion
    index = math.prod(
        2 ** (len(comp) + (colour == "b"))
        for comp, colour in zip(graph.components, graph.colours)
        if colour != "g"
    )
    if not green:
        assert info.order == EnumerationResult.finite(index)
    # a green g has eps(j, g) = +1 for every j != g, so each relator of the
    # pair (j, g) is a commutator and <x_g> is central: the index of
    # <x_g : g green> is the order of the flag group with the greens killed
    killed = flag_presentation(m, set(J).union(green))
    assert todd_coxeter(killed) == EnumerationResult.finite(index)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(gcms(max_rank=7), st.data())
def test_free_rank_is_the_green_count(m, data):
    # at a small cap most orders are left open, and pi1_flag refuses one
    # whose free rank is not the green count
    J = tuple(sorted(data.draw(st.sets(st.integers(0, m.n - 1)))))
    info = pi1_flag(m, J, max_cosets=50, force=True)
    green = build_adm(m, J).colours.count("g")
    assert info.invariants.free_rank == green
    assert info.order_status == ("infinite" if green else info.order.status)


def _gated(m):
    report = hypothesis_report(m)
    return report.symmetrizable or report.two_spherical


def _elementary_divisors(invariants):
    """An abelian group as its free rank and the sorted prime powers of its
    torsion, a form that does not depend on how the torsion is written."""
    powers = []
    for d in invariants.torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers.append(q)
            p += 1
    return invariants.free_rank, sorted(powers)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(gcms(max_rank=3), gcms(max_rank=3))
def test_direct_sum_answers_are_products(m1, m2):
    """Irreducibility is not a hypothesis: a direct sum of two gated GCMs
    is answered as the product of its factors' answers.  The sum is gated
    unless one factor is symmetrizable with a pair above 3 and the other
    is not symmetrizable; only then does it need ``force``."""
    hypothesis.assume(_gated(m1) and _gated(m2))
    m = direct_sum(m1, m2)
    force = not _gated(m)
    if force:
        with pytest.raises(HypothesisError):
            pi1_group(m)
    g1, g2 = pi1_group(m1), pi1_group(m2)
    assert pi1_group(m, force=force) == AbelianInvariants(
        g1.free_rank + g2.free_rank, g1.torsion + g2.torsion
    )
    # the components of the sum are the first factor's, then the second's
    split = len(build_adm(m1).components)
    colourings = enumerate_kappa(build_adm(m))
    assert len(colourings) == len(enumerate_kappa(build_adm(m1))) * len(
        enumerate_kappa(build_adm(m2))
    )
    for kappa in colourings:
        s1 = pi1_spin(m1, KappaColouring(kappa.values[:split]))
        s2 = pi1_spin(m2, KappaColouring(kappa.values[split:]))
        assert pi1_spin(m, kappa, force=force) == AbelianInvariants(
            s1.free_rank + s2.free_rank, s1.torsion + s2.torsion
        )
    # the flag groups' abelianizations, by Smith normal form, not by colours
    for J in [()] + [(k,) for k in range(m.n)]:
        J1 = tuple(k for k in J if k < m1.n)
        J2 = tuple(k - m1.n for k in J if k >= m1.n)
        a1 = abelianization(flag_presentation(m1, J1))
        a2 = abelianization(flag_presentation(m2, J2))
        free, powers = _elementary_divisors(abelianization(flag_presentation(m, J)))
        assert free == a1.free_rank + a2.free_rank
        assert powers == sorted(_elementary_divisors(a1)[1] + _elementary_divisors(a2)[1])


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(gcms(max_rank=10))
def test_spin_covers_are_the_dense_colour_rule(m):
    """Every row of the listing ``spin_rows``, and ``pi1_spin`` at each
    colouring (forced where the gate refuses), is Z^#g x C2^#(b with
    kappa = 1) read off the dense colours, and each row's bits are the
    values of the components that are not r.  The listing is row for row
    the per-colouring API over ``enumerate_kappa``, and each row is the
    one-row listing of its bits."""
    expected = spin_covers_dense(m)
    graph = build_adm(m)
    colourings = enumerate_kappa(graph)
    assert sorted(kappa.values for kappa in colourings) == sorted(expected)
    rows = list(spin_rows(graph))
    assert rows == spin_rows_dense(m)
    assert rows == [
        (kappa_bits(graph, kappa), pi1_spin(m, kappa, force=True)) for kappa in colourings
    ]
    for bits, value in rows:
        assert list(spin_rows(graph, bits)) == [(bits, value)]
    force = not _gated(m)
    if force:
        with pytest.raises(HypothesisError):
            pi1_spin(m, colourings[0])
    for kappa in colourings:
        assert pi1_spin(m, kappa, force=force) == expected[kappa.values]
