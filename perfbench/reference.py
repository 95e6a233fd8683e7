"""Reference answers for the benchmark's output checks.

Every function here reads a definition straight off a generalized Cartan
matrix, given as a tuple of integer rows with 0-based indices, without
calling kmfg: the parity graph and its colours, the hypothesis gate, the
numbers game for reduced words and element identity, root sequences, and
Poincare series.  Inputs that have no such oracle (the E10 histogram and
the coset corpus transcripts) are read from ``reference.json``, which
``make_reference.py`` wrote from a trusted commit.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from oracles import exact_det

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Degrees of the basic invariants of the finite Weyl groups used here.
DEGREES = {"E8": (2, 8, 12, 14, 18, 20, 24, 30), "A6": (2, 3, 4, 5, 6, 7)}


def load_stored():
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def pi1_text(free_rank, c2_count):
    """The isomorphism type Z^free_rank x C2^c2_count, written as kmfg prints it."""
    parts = []
    if free_rank:
        parts.append("Z" if free_rank == 1 else f"Z^{free_rank}")
    if c2_count:
        parts.append("C2" if c2_count == 1 else f"C2^{c2_count}")
    return " x ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Parity graph and hypothesis gate


def _odd(v):
    return v % 2 == 1


def colours(a):
    """Components of the parity graph (ordered by least vertex) and their
    colours r / g / b, read from the definitions."""
    n = len(a)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in range(n):
        for j in range(n):
            if i != j and _odd(a[i][j]) and _odd(a[j][i]):
                parent[find(j)] = find(i)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    components = sorted(groups.values())
    witnessed = [
        any(j != i and not _odd(a[i][j]) and _odd(a[j][i]) for j in range(n))
        for i in range(n)
    ]
    result = []
    for comp in components:
        if any(witnessed[v] for v in comp):
            result.append("r")
        elif len(comp) == 1:
            result.append("g")
        else:
            result.append("b")
    return components, result


def gate(a):
    """The four hypothesis predicates: irreducible, symmetrizable,
    two-spherical, spherical."""
    n = len(a)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if a[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    irreducible = len(seen) == n
    # d_i a_ij = d_j a_ji for some positive d: fix d on a spanning forest,
    # then demand the equation on every edge
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and a[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    stack.append(j)
    symmetrizable = all(
        d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n)
    )
    two_spherical = all(
        a[i][j] * a[j][i] <= 3 for i in range(n) for j in range(n) if i != j
    )
    # diag(d) A is positive definite iff its leading principal minors are
    # positive, and those are the minors of A times positive products of d
    spherical = symmetrizable and all(
        exact_det([row[:k] for row in a[:k]]) > 0 for k in range(1, n + 1)
    )
    return {
        "irreducible": irreducible,
        "symmetrizable": symmetrizable,
        "two_spherical": two_spherical,
        "spherical": spherical,
    }


# ---------------------------------------------------------------------------
# Weyl group through the numbers game


def numbers_game(a, word):
    """Play ``word`` from the all-ones position.  The position after w is
    the heights of w(alpha_i), which identifies w; the word is reduced iff
    every move is made at a positive entry."""
    c = [1] * len(a)
    reduced = True
    for i in word:
        ci = c[i]
        if ci < 0:
            reduced = False
        for j in range(len(a)):
            c[j] -= a[i][j] * ci
    return tuple(c), reduced


def random_reduced_word(a, length, rng):
    """A reduced word grown by moves at positive entries, chosen uniformly."""
    c = [1] * len(a)
    word = []
    for _ in range(length):
        i = rng.choice([j for j in range(len(a)) if c[j] > 0])
        ci = c[i]
        for j in range(len(a)):
            c[j] -= a[i][j] * ci
        word.append(i)
    return word


def subword_closure(a, word):
    """Positions of every product of a subword of ``word``: by the subword
    property these are the elements below ``word`` in the Bruhat order."""
    found = set()

    def walk(k, c):
        if k == len(word):
            found.add(tuple(c))
            return
        walk(k + 1, c)
        i = word[k]
        ci = c[i]
        walk(k + 1, [c[j] - a[i][j] * ci for j in range(len(a))])

    walk(0, [1] * len(a))
    return found


def root_sequence(a, word):
    """beta_k = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}), with
    s_i(v) = v - (sum_j a[i][j] v_j) e_i."""
    n = len(a)
    out = []
    for k, letter in enumerate(word):
        v = [1 if j == letter else 0 for j in range(n)]
        for i in reversed(word[:k]):
            v[i] -= sum(a[i][j] * v[j] for j in range(n))
        out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# Poincare series, truncated at a length bound


def series_mul(p, q, bound):
    out = [0] * (bound + 1)
    for i, x in enumerate(p[: bound + 1]):
        if x:
            for j, y in enumerate(q[: bound + 1 - i]):
                out[i + j] += x * y
    return out


def series_div(p, q, bound):
    """p / q for a q with constant term 1."""
    out = []
    rest = list(p[: bound + 1]) + [0] * (bound + 1 - len(p))
    for k in range(bound + 1):
        out.append(rest[k])
        for j in range(1, min(len(q), bound + 1 - k)):
            rest[k + j] -= rest[k] * q[j]
    return out


def finite_series(degrees, bound):
    """prod_d (1 + q + ... + q^(d-1))."""
    out = [1]
    for d in degrees:
        out = series_mul(out, [1] * d, bound)
    return out


def affine_series(degrees, bound):
    """Bott's formula: P_W(q) * prod_d 1 / (1 - q^(d-1))."""
    out = finite_series(degrees, bound)
    for d in degrees:
        out = series_div(out, [1] + [0] * (d - 2) + [-1], bound)
    return out


def path_parabolic_series(a, parabolic, bound):
    """Poincare series of W_J for a parabolic J of a simply-laced diagram
    whose induced subgraph is a disjoint union of paths: a product of
    symmetric groups, S_(k+1) for a path of k vertices."""
    left = set(parabolic)
    out = [1]
    while left:
        stack = [left.pop()]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in list(left):
                if a[v][w]:
                    left.remove(w)
                    stack.append(w)
        out = series_mul(out, finite_series(range(2, size + 2), bound), bound)
    return out


def is_path_forest(a, parabolic):
    """True when the diagram restricted to ``parabolic`` is a disjoint
    union of paths."""
    J = sorted(set(parabolic))
    edges = [(u, v) for u in J for v in J if u < v and a[u][v]]
    degree = {v: 0 for v in J}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if any(d > 2 for d in degree.values()):
        return False
    # a forest has |V| - |E| components; count them directly
    parent = {v: v for v in J}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
