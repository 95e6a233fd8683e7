"""Independent oracles for the test suite.

Everything here is deliberately written against different machinery than
the package under test: permutations in one-line notation for the type-A
Coxeter checks, polynomial multiplication for Poincare series, exact
rational elimination and determinant-divisor gcds for integer linear
algebra, integer matrix products for the Weyl group, a regex tokenizer for
the plain matrix format, the three matrix invariants, rational ratios for
the symmetrizer, the diagram predicates and the coloured parity graph read
over all n^2 entries, a direct brute-force reading of the
admissible-colouring definition, the spin covers' colour rule on the dense
colours, and a relator traced through a coset table one letter at a time.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

from kmfg import AbelianInvariants, GeneralizedCartanMatrix, build_adm
from kmfg.errors import MatrixFormatError


# ---------------------------------------------------------------------------
# Symmetric groups in one-line notation (tuples p with p[i] = image of i)


def identity_perm(n):
    return tuple(range(n))


def transposition(n, i):
    """The adjacent transposition swapping i and i+1."""
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def compose(p, q):
    """(p then applied after q): (p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_from_word(n, word):
    p = identity_perm(n)
    for letter in word:
        p = compose(p, transposition(n, letter))
    return p


def inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def right_descents_perm(p):
    return [i for i in range(len(p) - 1) if p[i] > p[i + 1]]


def all_permutations(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


def all_reduced_words(p, _cache=None):
    """Every reduced word of a permutation, via right-descent recursion."""
    if _cache is None:
        _cache = {}
    if p in _cache:
        return _cache[p]
    n = len(p)
    if p == identity_perm(n):
        result = [()]
    else:
        result = []
        for i in right_descents_perm(p):
            shorter = compose(p, transposition(n, i))
            for word in all_reduced_words(shorter, _cache):
                result.append(word + (i,))
    _cache[p] = result
    return result


def is_subword(small, big):
    """True when ``small`` appears in ``big`` as a not necessarily
    consecutive substring."""
    it = iter(big)
    return all(letter in it for letter in small)


def bruhat_oracle(u, w, cache):
    """Strong order by exhaustive search over all pairs of reduced words."""
    words_u = all_reduced_words(u, cache)
    words_w = all_reduced_words(w, cache)
    return any(is_subword(a, b) for a in words_u for b in words_w)


# ---------------------------------------------------------------------------
# The Weyl group as integer matrices


def _mat_mul(a, b):
    n = len(a)
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(row[k] * col[k] for k in range(n)) for col in cols) for row in a
    )


def _mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


class MatrixWeylGroup:
    """The Weyl group of a GCM with every element its n x n matrix on the
    root lattice in the simple-root basis: sigma_i sends e_j to
    e_j - a[i][j] e_i.  Column i of w is w(alpha_i), and w * sigma_i is
    longer than w exactly when that column is positive.  Products are full
    matrix products, so nothing is shared with ``kmfg.coxeter``'s heights
    vectors.  Elements are plain matrices (tuples of row tuples)."""

    def __init__(self, cartan):
        n = cartan.n
        self.n = n
        self.one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        # sigma_i is the identity except in row i, which is delta_ij - a[i][j]
        self.gens = tuple(
            tuple(
                tuple(int(k == j) - (cartan.entry(i, j) if k == i else 0) for j in range(n))
                for k in range(n)
            )
            for i in range(n)
        )

    def from_word(self, word):
        matrix = self.one
        for letter in word:
            matrix = _mat_mul(matrix, self.gens[letter])
        return matrix

    @staticmethod
    def act(matrix, vector):
        return _mat_vec(matrix, vector)

    @staticmethod
    def mul(a, b):
        return _mat_mul(a, b)

    def descends(self, matrix, i):
        return not all(row[i] >= 0 for row in matrix)

    def _first_descent(self, matrix):
        return next(i for i in range(self.n) if self.descends(matrix, i))

    def _strip(self, matrix):
        """Letters i_1, ..., i_r with matrix * s_{i_1} ... s_{i_r} = 1,
        each the least right descent of what remains."""
        letters = []
        while matrix != self.one:
            i = self._first_descent(matrix)
            letters.append(i)
            matrix = _mat_mul(matrix, self.gens[i])
        return letters

    def length(self, matrix):
        return len(self._strip(matrix))

    def inverse(self, matrix):
        return self.from_word(self._strip(matrix))

    def reduced_word(self, matrix):
        """Lexicographically least: strip the least left descent each time."""
        remaining_inv = self.inverse(matrix)
        word = []
        while remaining_inv != self.one:
            i = self._first_descent(remaining_inv)
            word.append(i)
            remaining_inv = _mat_mul(remaining_inv, self.gens[i])
        return tuple(word)

    def root_sequence(self, word):
        prefix = self.one
        out = []
        for letter in word:
            out.append(tuple(row[letter] for row in prefix))
            prefix = _mat_mul(prefix, self.gens[letter])
        return out

    def elements_up_to(self, length):
        """(matrix, length) pairs breadth-first.  An element of length
        l + 1 is listed once, as matrix * s_i for the matrix of length l
        that gives it its least right descent i: each layer lists, for each
        element of the previous layer in turn and each i in increasing
        order, the products matrix * s_i whose least right descent is i.
        Every product one letter up is also collected, and the layer is
        asserted to hold each of them exactly once."""
        out = [(self.one, 0)]
        layer = [self.one]
        for level in range(1, length + 1):
            reached = set()
            next_layer = []
            for matrix in layer:
                for i in range(self.n):
                    if self.descends(matrix, i):
                        continue
                    grown = _mat_mul(matrix, self.gens[i])
                    reached.add(grown)
                    if self._first_descent(grown) == i:
                        next_layer.append(grown)
            assert sorted(next_layer) == sorted(reached), level
            out.extend((matrix, level) for matrix in next_layer)
            layer = next_layer
        return out

    def cell_counts(self, parabolic, length):
        histogram = {}
        for matrix, level in self.elements_up_to(length):
            if not any(self.descends(matrix, j) for j in parabolic):
                histogram[level] = histogram.get(level, 0) + 1
        return dict(sorted(histogram.items()))

    def bruhat_leq(self, u, w):
        """Greedy right-to-left subword extraction of u from the least
        reduced word of w."""
        if self.length(u) > self.length(w):
            return False
        current = u
        for i in reversed(self.reduced_word(w)):
            if self.descends(current, i):
                current = _mat_mul(current, self.gens[i])
        return current == self.one

    def weak_leq(self, u, w):
        return self.length(w) == self.length(u) + self.length(
            _mat_mul(self.inverse(u), w)
        )


# ---------------------------------------------------------------------------
# Poincare polynomials


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_factorial_coeffs(n):
    """Coefficients of prod_{k=1..n} (1 + q + ... + q^k)."""
    out = [1]
    for k in range(1, n + 1):
        out = poly_mul(out, [1] * (k + 1))
    return out


def degree_product_coeffs(degrees):
    """Coefficients of prod_d (1 + q + ... + q^(d-1))."""
    out = [1]
    for d in degrees:
        out = poly_mul(out, [1] * d)
    return out


def affine_coeffs(degrees, length, grassmannian=False):
    """Coefficients up to q^length of Bott's series of an affine Weyl group
    whose finite Weyl group has the given degrees: prod_d [d]_q / (1 -
    q^(d-1)); with ``grassmannian`` only prod_d 1 / (1 - q^(d-1)), the
    minimal representatives of the cosets of the finite Weyl group
    (Bott, Bull. Soc. Math. France 84, 1956)."""
    out = [1] + [0] * length
    for d in degrees:
        for k in range(d - 1, length + 1):
            out[k] += out[k - (d - 1)]
    if not grassmannian:
        out = poly_mul(out, degree_product_coeffs(degrees))[: length + 1]
    return out


# ---------------------------------------------------------------------------
# Exact integer / rational linear algebra


def exact_det(rows):
    """Determinant over exact rationals (fraction Gaussian elimination)."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def _int_det(rows):
    value = exact_det(rows)
    assert value.denominator == 1
    return value.numerator


def minors_gcd_invariant_factors(rows):
    """Invariant factors via determinant divisors: d_k = gcd of all k x k
    minors, factor_k = d_k / d_{k-1}.  Exponential, for small matrices only."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    factors = []
    previous = 1
    for k in range(1, min(nrows, ncols) + 1):
        divisor = 0
        for row_idx in itertools.combinations(range(nrows), k):
            for col_idx in itertools.combinations(range(ncols), k):
                minor = _int_det(
                    [[rows[i][j] for j in col_idx] for i in row_idx]
                )
                divisor = gcd(divisor, minor)
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


# ---------------------------------------------------------------------------
# Matrix construction helpers


def gcm_from_edges(n, singles=(), doubles=(), triples=()):
    """Build a generalized Cartan matrix from 1-based edge lists.

    ``singles`` are undirected pairs; ``doubles`` and ``triples`` are
    directed (u, v) with the arrow pointing at v, giving a[u][v] = -1 and
    a[v][u] = -2 or -3.
    """
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in singles:
        a[u - 1][v - 1] = a[v - 1][u - 1] = -1
    for mult, pairs in ((2, doubles), (3, triples)):
        for u, v in pairs:
            a[u - 1][v - 1] = -1
            a[v - 1][u - 1] = -mult
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


def direct_sum(m1, m2):
    n1, n2 = m1.n, m2.n
    a = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            a[i][j] = m1.entry(i, j)
    for i in range(n2):
        for j in range(n2):
            a[n1 + i][n1 + j] = m2.entry(i, j)
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


# A rank-16 indefinite diagram with five red, two green and two blue
# parity components: a 3 x 5 grid plus one extra vertex, numbered row by
# row; arrows point at the second vertex of each directed pair.
X_SINGLES = [(2, 3), (7, 4), (10, 13), (14, 15), (13, 16)]
X_DOUBLES = [
    (4, 1),
    (4, 5),
    (6, 3),
    (6, 5),
    (6, 9),
    (8, 7),
    (8, 9),
    (8, 11),
    (10, 7),
    (10, 11),
    (14, 11),
]
X_TRIPLES = [(1, 2), (9, 12)]


def diagram_x():
    return gcm_from_edges(16, X_SINGLES, X_DOUBLES, X_TRIPLES)


# ---------------------------------------------------------------------------
# The plain matrix format by a regex tokenizer, and the symmetrizer by
# rational ratios


def tokenize_plain(text):
    """Whitespace tokens with (line, column) positions; ``#`` starts a comment."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            tokens.append((match.group(), lineno, match.start() + 1))
    return tokens


def parse_plain_reference(text):
    """The rows of a plain-format matrix, or MatrixFormatError with the
    message, line and column that the parser must give."""
    tokens = tokenize_plain(text)
    if not tokens:
        raise MatrixFormatError("empty input")

    def take_int(pos, what):
        if pos >= len(tokens):
            raise MatrixFormatError(f"unexpected end of input, expected {what}")
        word, line, col = tokens[pos]
        try:
            return int(word)
        except ValueError:
            raise MatrixFormatError(f"expected {what}, got {word!r}", line, col) from None

    n = take_int(0, "the rank")
    if n <= 0:
        word, line, col = tokens[0]
        raise MatrixFormatError(f"rank must be positive, got {n}", line, col)
    values = [take_int(1 + k, "a matrix entry") for k in range(n * n)]
    if len(tokens) > 1 + n * n:
        word, line, col = tokens[1 + n * n]
        raise MatrixFormatError(f"trailing token {word!r}", line, col)
    return tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n))


def gcm_first_violation(rows):
    """The first invariant of a generalized Cartan matrix that the square
    integer matrix ``rows`` breaks, as (invariant, 1-based entry, message),
    or None.  The rows are read in order, each its diagonal first and then
    every other entry by increasing column: an off-diagonal entry breaks the
    sign rule when it is positive, and the zero-symmetry rule when exactly
    one of it and its mirror is 0, which is reported at the nonzero one."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 2:
            return "diagonal", (i + 1, i + 1), f"a[{i + 1}][{i + 1}] must be 2, got {rows[i][i]}"
        for j in range(n):
            if j == i:
                continue
            v, mirror = rows[i][j], rows[j][i]
            if v > 0:
                return "sign", (i + 1, j + 1), f"a[{i + 1}][{j + 1}] must be <= 0, got {v}"
            if v != 0 and mirror == 0:
                return (
                    "zero-symmetry",
                    (i + 1, j + 1),
                    f"a[{i + 1}][{j + 1}] = {v} but a[{j + 1}][{i + 1}] = {mirror}",
                )
    return None


def symmetrizer_rational(m):
    """Positive rationals d with d_i a[i][j] = d_j a[j][i], d = 1 at the
    least vertex of each component, or None: ratios propagated over all
    n^2 entries, every edge checked."""
    a = m.entries
    d = [None] * m.n
    for root in range(m.n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(m.n):
                if j != i and a[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    stack.append(j)
    ok = all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(m.n) for j in range(m.n))
    return tuple(d) if ok else None


# ---------------------------------------------------------------------------
# Diagram predicates and the coloured parity graph straight from their
# definitions, reading all n^2 entries and no neighbour list


def _eps(m, i, j):
    return (-1) ** abs(m.entry(i, j))


def connected_dense(m):
    """Whether the diagram is connected: the vertices reached from 0 through
    nonzero entries, grown a whole layer at a time until nothing is added."""
    reached = {0}
    while True:
        layer = {j for i in reached for j in range(m.n) if m.entry(i, j) != 0} - reached
        if not layer:
            return len(reached) == m.n
        reached |= layer


def two_spherical_dense(m):
    """Whether a[i][j] * a[j][i] <= 3 for every ordered pair i != j."""
    return all(
        m.entry(i, j) * m.entry(j, i) <= 3
        for i in range(m.n)
        for j in range(m.n)
        if i != j
    )


def parity_edges_dense(m, J=()):
    """Pairs i < j outside J with eps(i, j) = eps(j, i) = -1, in
    lexicographic order."""
    return tuple(
        (i, j)
        for i in range(m.n)
        for j in range(i + 1, m.n)
        if i not in J and j not in J and _eps(m, i, j) == -1 and _eps(m, j, i) == -1
    )


def coloured_components_dense(m, J=()):
    """The components of the parity graph outside J, ordered by least
    vertex, and their colours.  A component is found by giving every vertex
    the least label among its edge neighbours until no label changes; it is
    r if one of its vertices v has some j with eps(v, j) = +1 and
    eps(j, v) = -1, or some k in J with eps(k, v) = -1; otherwise g if a
    singleton and b if not."""
    outside = [v for v in range(m.n) if v not in J]
    label = {v: v for v in outside}
    edges = parity_edges_dense(m, J)
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    roots = [v for v in outside if label[v] == v]
    components = tuple(tuple(v for v in outside if label[v] == root) for root in roots)

    def red(v):
        return any(
            j != v and _eps(m, v, j) == 1 and _eps(m, j, v) == -1 for j in range(m.n)
        ) or any(_eps(m, k, v) == -1 for k in J)

    colours = tuple(
        "r" if any(red(v) for v in comp) else "g" if len(comp) == 1 else "b"
        for comp in components
    )
    return components, colours


# ---------------------------------------------------------------------------
# Admissible colourings straight from the definition


def kappa_brute_force(m):
    """All vertex maps kappa: V -> {1, 2} satisfying the two clauses:
    forced to 1 at any vertex with an asymmetric parity witness, and
    constant on the connected components of the parity graph.  Returned as
    the set of per-component value tuples in canonical component order."""
    n = m.n
    graph = build_adm(m)
    witnessed = [
        any(j != i and m.parity(i, j) == 1 and m.parity(j, i) == -1 for j in range(n))
        for i in range(n)
    ]
    admissible = set()
    for assignment in itertools.product((1, 2), repeat=n):
        if any(witnessed[i] and assignment[i] == 2 for i in range(n)):
            continue
        if any(
            len({assignment[v] for v in comp}) != 1 for comp in graph.components
        ):
            continue
        admissible.add(tuple(assignment[comp[0]] for comp in graph.components))
    return admissible


def spin_covers_dense(m):
    """pi1 of every spin cover, read off the dense colours: for each
    admissible tuple of per-component kappa values (1 on every r component,
    1 or 2 elsewhere), Z per g component times C2 per b component with
    kappa = 1."""
    _, colours = coloured_components_dense(m)
    choices = [(1,) if colour == "r" else (1, 2) for colour in colours]
    return {
        values: AbelianInvariants(
            colours.count("g"),
            (2,) * sum(c == "b" and v == 1 for c, v in zip(colours, values)),
        )
        for values in itertools.product(*choices)
    }


def spin_rows_dense(m):
    """The rows of a spin listing read off the dense colours: (bits, group)
    per admissible colouring of ``spin_covers_dense``, the bits being the
    values of the components that are not r, ordered with the first such
    component varying fastest."""
    _, colours = coloured_components_dense(m)
    rows = [
        ("".join(str(v) for v, c in zip(values, colours) if c != "r"), group)
        for values, group in spin_covers_dense(m).items()
    ]
    return sorted(rows, key=lambda row: row[0][::-1])


# ---------------------------------------------------------------------------
# A relator traced through a coset table, one letter at a time


def relator_closes(table, alpha, rel) -> bool:
    """Whether the letters ``rel`` traced from coset ``alpha`` are defined
    throughout and return to ``alpha``, so that scanning ``rel`` there
    would change nothing."""
    f = alpha
    for x in rel:
        f = table[f][x]
        if f is None:
            return False
    return f == alpha
