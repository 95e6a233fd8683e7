"""Property tests of the analysis over random generalized Cartan matrices:
invariance under relabelling the vertices, the neighbour list, the
predicates and the coloured parity graph at every parabolic J against
their dense definitions, each parity component alone in its colour at its
complement, the spherical predicate against Sylvester's criterion, the
colouring rule for pi1(G/P_J) at every parabolic J, and its closed form
on connected simply-laced diagrams."""

import itertools
import math

import pytest

from kmfg import (
    AbelianInvariants,
    EnumerationResult,
    GeneralizedCartanMatrix,
    build_adm,
    flag_presentation,
    hypothesis_report,
    pi1_flag,
    pi1_group,
    todd_coxeter,
)
from kmfg.cartan import symmetrizer
from kmfg.errors import HypothesisError

from oracles import (
    coloured_components_dense,
    connected_dense,
    exact_det,
    minors_gcd_invariant_factors,
    parity_edges_dense,
    two_spherical_dense,
)

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
    assert sorted(build_adm(m).colours) == sorted(build_adm(moved).colours)
    assert hypothesis_report(m) == hypothesis_report(moved)
    assert _pi1_or_refusal(m) == _pi1_or_refusal(moved)


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
    subgroup = [((g, 1),) for g in green]
    assert todd_coxeter(presentation, subgroup_words=subgroup) == EnumerationResult.finite(index)
