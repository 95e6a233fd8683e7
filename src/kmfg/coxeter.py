"""Weyl group engine.

The group acts on the root lattice in the simple-root basis: sigma_i sends
e_j to e_j - a[i][j] * e_i.  An element w is stored as its heights vector
c, with c_i = ht(w alpha_i), the numbers-game position of Bjorner & Brenti,
*Combinatorics of Coxeter Groups*, ch. 4.  The identity is (1, ..., 1).

Everything rests on one fact: the length of w * sigma_i exceeds the length
of w exactly when w alpha_i is a positive root, i.e. when c_i > 0.  So the
right descents are the coordinates with c_i < 0, and stripping the least
one until none is left spells a reduced word, which is why the vector
determines w.  Right multiplication by sigma_i is c_i -> -c_i,
c_j -> c_j - a[i][j] * c_i over the pairs (j, a[i][j]) that the matrix's
``neighbours`` lists for i, at O(degree) cost; from 0 on J and 1
elsewhere the same moves walk the cells of G/P_J.  The action on vectors
and its matrix are built on demand from a reduced word.

A walk fires only coordinates > 0, one length layer at a time, and builds
each position once.  A position one firing up has one least negative
coordinate i, and firing i is its one parent; so firing i at c is kept
only when no k < i is negative after it, which is read off c and row i
of the matrix before anything is built.  A layer is then a plain list.

A histogram of the cells of G/P_J is a product of small walks.  The
minimal representatives factor along a chain of parabolics, W^J = W^K
W_K^J for J in K with lengths adding (Bjorner & Brenti, Prop. 2.4.4), so
dropping the vertices of S - J one at a time, highest first, makes the
histogram the product of the series of the quotients W_K^{K - v}.  Each
is one walk from 1 on v, firing only letters of K, that counts its last
layer's kept firings without building them; the walks keep distinct
elements of W^J, sharing only e, and the product is truncated at the
length bound.

A strip that ends at the identity, w * s_{i_1} * ... * s_{i_r} = e, also
spells w^{-1} = s_{i_1} ... s_{i_r}.  So ``_strip`` fires each letter in
place on w's heights and returns the letters, and an inverse is one strip
and one ``_step`` of its letters from the identity.  The least right
descent of w is the least left descent of w^{-1}, so the letters are also
w^{-1}'s lexicographically least reduced word, and w's own is the strip of
w^{-1}: a strip, a step and a strip.  A product w * x and the action of w
need only some reduced word, and the letters of one strip, reversed, are
one; the canonical word is read only when it is kept.

A closure's interval [e, w] is read off one strip of w, and its cells get
their canonical words in one pass over it by length, with no strip: every
reduced word of u ends in a right descent t after a reduced word of
u * s_t, which is in [e, w] one length lower, so u's least word is the
least word(u * s_t) + (t,).  The layer below is kept in order of word,
and a place in that order stands for a word while candidates are compared.

All arithmetic is exact Python integers; coordinates grow without bound in
indefinite type and must never wrap.
"""

from __future__ import annotations

from .cartan import GeneralizedCartanMatrix
from .cartan import _checked_cap, _checked_index, _checked_int, _checked_tuple, vertex_subset
from .errors import InputError, ResourceLimitError

__all__ = ["WeylGroup", "WeylElement", "is_positive_root_vector", "is_negative_root_vector"]

# Positions a walk keeps, or elements of a closure's interval; a histogram
# also counts, apart, the coefficient pairs each product of its factors'
# series multiplies, no more than its cells, which it never builds.  A
# position is a tuple of n heights, 56 + 8n bytes with its slot in a layer
# (more for heights above 256), so at rank 10 the cap bounds a walk at about
# 140 MB and at rank 1,000 only at about 8 GB.  Measured with tracemalloc
# on CPython 3.11: 184 B per element at the peak of elements_up_to (E8 to
# length 9); a histogram holds the two widest built layers of one factor,
# 116 to 129 B per position of them (E8 to 120, E10 to 50, A6~ with J = {3}
# to 60); a closure, which keeps heights and a length per point and then
# the words of two length layers, 187 to 205 B per point on E8 and E10
# under the largest J that w allows, and 292 to 317 B with J = (), where
# every point is also returned as a cell with its word.
DEFAULT_ELEMENT_CAP = 1_000_000


def is_positive_root_vector(v) -> bool:
    return all(c >= 0 for c in v) and any(c > 0 for c in v)


def is_negative_root_vector(v) -> bool:
    return all(c <= 0 for c in v) and any(c < 0 for c in v)


def _truncated_product(a, b, length: int, cap: int) -> list[int]:
    """The product of two series with no zero coefficient up to their
    degree, as a walk's layer sizes are, truncated at degree ``length``.
    The pairs of coefficients of degree d are a[i] * b[d - i] over
    max(0, d - q) <= i <= min(d, p), all nonzero, so the product has no
    zero either; ResourceLimitError comes at the degree where the pairs
    multiplied first exceed ``cap``."""
    p, q = len(a) - 1, len(b) - 1
    product = []
    pairs = 0
    for d in range(min(p + q, length) + 1):
        low, high = max(0, d - q), min(d, p)
        pairs += high - low + 1
        if pairs > cap:
            raise ResourceLimitError(f"element cap {cap} exceeded at length {d}", cap)
        product.append(sum(a[i] * b[d - i] for i in range(low, high + 1)))
    return product


def _checked_bounds(length, cap) -> tuple[int, int]:
    """The length bound and the element cap of a walk, checked before it."""
    length, cap = _checked_int(length, "length bound"), _checked_cap(cap, "element cap")
    if length < 0:
        raise ValueError("length bound must be >= 0")
    return length, cap


def _no_descent_in(heights, J) -> bool:
    """Whether the element with these heights has no right descent in J."""
    return all(heights[j] > 0 for j in J)


class WeylGroup:
    """The Weyl group of a generalized Cartan matrix, acting on the root
    lattice."""

    def __init__(self, cartan: GeneralizedCartanMatrix):
        self.cartan = cartan
        self.n = cartan.n
        self._one = (1,) * cartan.n

    def _step(self, heights, word):
        """Right-multiply by the letters of ``word`` in turn.  Returns the new
        heights and the change in length, +1 or -1 per letter."""
        neighbours = self.cartan.neighbours
        c = list(heights)
        change = 0
        for i in word:
            ci = c[i]
            change += 1 if ci > 0 else -1
            c[i] = -ci
            for j, a in neighbours[i]:
                c[j] -= a * ci
        return tuple(c), change

    def _strip(self, heights) -> tuple[int, ...]:
        """Right-multiply by the least right descent until the identity
        remains, and return the letters i_1, ..., i_r: w = s_{i_r} ...
        s_{i_1}, and the same letters fired from the identity give w^{-1}."""
        neighbours = self.cartan.neighbours
        c = list(heights)
        letters = []
        while True:
            for i, ci in enumerate(c):
                if ci < 0:
                    break
            else:
                return tuple(letters)
            letters.append(i)
            c[i] = -ci
            for j, a in neighbours[i]:
                c[j] -= a * ci

    def identity(self) -> "WeylElement":
        return WeylElement(self, self._one, _length=0)

    def generator(self, i: int) -> "WeylElement":
        return self.from_word((i,))

    def simple_root(self, i: int) -> tuple[int, ...]:
        i = _checked_index(i, self.n, "simple root index")
        return tuple(1 if j == i else 0 for j in range(self.n))

    def _letters(self, word) -> tuple[int, ...]:
        """``word`` as a tuple, each letter checked to be a vertex index by
        ``_checked_index``, which is called only if some letter is not an
        exact int in range."""
        word, n = _checked_tuple(word, "word"), self.n
        for i in word:
            if i.__class__ is not int or not 0 <= i < n:
                return tuple(_checked_index(i, n, "word letter") for i in word)
        return word

    def from_word(self, word) -> "WeylElement":
        heights, length = self._step(self._one, self._letters(word))
        return WeylElement(self, heights, _length=length)

    def root_sequence(self, word) -> list[tuple[int, ...]]:
        """Vectors beta_k = sigma_{i_1} ... sigma_{i_{k-1}} (alpha_{i_k});
        the word need not be reduced."""
        # columns[j] is the image of alpha_j under the prefix read so far
        columns = [self.simple_root(j) for j in range(self.n)]
        neighbours = self.cartan.neighbours
        out = []
        for i in self._letters(word):
            column = columns[i]
            out.append(column)
            for j, a in neighbours[i]:
                columns[j] = tuple(x - a * y for x, y in zip(columns[j], column))
            columns[i] = tuple(-y for y in column)
        return out

    def is_reduced(self, word) -> bool:
        word = self._letters(word)
        return self._step(self._one, word)[1] == len(word)

    def _walk(self, start, letters, length: int, cap: int, visited: int = 1,
              count_last: bool = False):
        """Yield ``(size, layer)`` for each layer of the numbers game from
        ``start``, firing only the coordinates > 0 among ``letters``, an
        increasing list of vertices, up to ``length`` firings.

        Each position is reached once, so no layer is deduplicated.  A
        position y one firing up has a least negative coordinate i, and
        firing i again is y's one parent (Bjorner & Brenti, ch. 4): so
        firing i at c is kept only when every k < i with c[k] < 0 is lifted
        to c[k] - a[i][k] * c[i] >= 0, a test on c before anything is built
        (reverse search; Avis & Fukuda, Discrete Appl. Math. 65, 1996).  A
        coordinate outside ``letters`` that starts >= 0 only grows, since
        a[i][j] <= 0, so it is never a descent and is never read.
        With ``count_last`` the last layer's kept firings are counted and
        not built, and its layer is None.  ``visited`` counts the positions
        already spent, the start included, and every kept firing adds one,
        so ResourceLimitError comes past ``cap`` positions at the level
        where the total first exceeds it, built or counted."""
        neighbours, rows = self.cartan.neighbours, self.cartan.entries
        layer = [start]
        yield 1, layer
        for level in range(1, length + 1):
            build = not (count_last and level == length)
            grown_layer = []
            before = visited
            for c in layer:
                descents = []  # the k < i with c[k] < 0
                for i in letters:
                    ci = c[i]
                    if ci < 0:
                        descents.append(i)
                        continue
                    if not ci:
                        continue
                    row = rows[i]
                    for k in descents:
                        if c[k] < row[k] * ci:
                            break
                    else:
                        if visited >= cap:
                            raise ResourceLimitError(
                                f"element cap {cap} exceeded at length {level}", cap
                            )
                        visited += 1
                        if build:
                            grown = list(c)
                            grown[i] = -ci
                            for j, a in neighbours[i]:
                                grown[j] -= a * ci
                            grown_layer.append(tuple(grown))
            if visited == before:
                return
            layer = grown_layer if build else None
            yield visited - before, layer

    def elements_up_to(self, length: int, cap: int = DEFAULT_ELEMENT_CAP):
        """All elements of length <= ``length``, breadth-first by length."""
        length, cap = _checked_bounds(length, cap)
        walk = self._walk(self._one, range(self.n), length, cap)
        return [
            WeylElement(self, c, _length=level)
            for level, (_, layer) in enumerate(walk)
            for c in layer
        ]

    def cell_counts(self, parabolic, length: int, cap: int = DEFAULT_ELEMENT_CAP):
        """Histogram length -> number of cells of that dimension in G/P_J, i.e.
        of minimal representatives of W_J w (inverses of those of w W_J).

        The minimal representatives factor along a chain S = K_0 > K_1 >
        ... > K_m = J that drops one vertex v of S - J per step, highest
        first: W^J = W^{K_1} W_{K_1}^J with lengths adding (Bjorner &
        Brenti, Prop. 2.4.4), so the histogram is the product of the
        factors' series W_{K}^{K - v}(t), truncated at ``length``.  A
        factor is the walk from 1 on v and 0 elsewhere that fires only
        letters of K.  Its elements other than e have v as their one
        descent, so the factors share only e and together keep no more
        positions than W^J has; ``cap`` bounds their total, e counted
        once, and separately the pairs of coefficients each product
        multiplies."""
        J = set(vertex_subset(parabolic, self.n))
        length, cap = _checked_bounds(length, cap)
        n = self.n
        letters = list(range(n))
        series = [1]
        visited = 1  # e, the start of every factor
        for v in reversed(range(n)):
            if v in J:
                continue
            start = (0,) * v + (1,) + (0,) * (n - 1 - v)
            walk = self._walk(start, letters, length, cap, visited, count_last=True)
            factor = [size for size, _ in walk]
            visited += sum(factor) - 1
            series = _truncated_product(series, factor, length, cap)
            letters.remove(v)
        return dict(enumerate(series))

    def closure_cells(self, w: "WeylElement", parabolic, cap: int = DEFAULT_ELEMENT_CAP):
        """The minimal representatives below ``w`` in the strong order, which
        index the cells in the closure of the cell of ``w``, ordered by
        length and then by canonical word, which each cell carries.  [e, w]
        is the set of subword products of any reduced word of w (Bjorner &
        Brenti, Thm 2.2.2), grown a letter at a time; ``cap`` bounds its
        size.

        Every reduced word of u ends in a right descent t, and its prefix
        is a reduced word of u * s_t, which lies in [e, w] one length
        lower.  So, visiting the interval by length, the least word of u is
        the least of word(u * s_t) + (t,), and only the layer below, apart
        from the cells, keeps its words."""
        self.identity()._require_same_group(w)
        J = vertex_subset(parabolic, self.n)
        cap = _checked_cap(cap, "element cap")
        if not _no_descent_in(w.heights, J):
            raise InputError(
                "element is not a minimal coset representative for the parabolic"
            )
        neighbours = self.cartan.neighbours
        word = w._some_reduced_word()
        interval = {self._one: 0}  # heights -> length
        for level, i in enumerate(word, 1):
            for c in list(interval):
                ci = c[i]
                grown = list(c)
                grown[i] = -ci
                for j, a in neighbours[i]:
                    grown[j] -= a * ci
                grown = tuple(grown)
                if grown not in interval:
                    if len(interval) >= cap:
                        raise ResourceLimitError(
                            f"element cap {cap} exceeded at length {level}", cap
                        )
                    interval[grown] = interval[c] + (1 if ci > 0 else -1)
        layers = [[] for _ in range(len(word) + 1)]
        for c, length in interval.items():
            layers[length].append(c)
        del interval
        n = self.n
        cells = [self.identity()]
        cells[0]._word = ()
        # the layer below in order of word: its words, and each point's place
        words, rank = [()], {self._one: 0}
        for length in range(1, len(layers)):
            below, words = words, []
            # rank[u * s_t] * n + t orders the candidates word(u * s_t) + (t,)
            keyed = []
            for c in layers[length]:
                least = None
                for t, ct in enumerate(c):
                    if ct < 0:
                        lower = list(c)
                        lower[t] = -ct
                        for j, a in neighbours[t]:
                            lower[j] -= a * ct
                        key = rank[tuple(lower)] * n + t
                        if least is None or key < least:
                            least = key
                keyed.append((least, c))
            layers[length] = None  # past rank, only the cells keep its points
            keyed.sort()
            rank = {}
            for key, c in keyed:
                rank[c] = len(words)
                words.append(below[key // n] + (key % n,))
                if _no_descent_in(c, J):
                    cell = WeylElement(self, c, _length=length)
                    cell._word = words[-1]
                    cells.append(cell)
        return cells


class WeylElement:
    """Immutable group element; equality and hashing go through the
    heights vector."""

    __slots__ = ("group", "heights", "_length", "_word")

    def __init__(self, group: WeylGroup, heights, _length=None):
        self.group = group
        self.heights = heights
        self._length = _length
        self._word = None

    def _same_group(self, other: "WeylElement") -> bool:
        return self.group is other.group or self.group.cartan == other.group.cartan

    def _require_same_group(self, other: "WeylElement"):
        if not isinstance(other, WeylElement):
            raise ValueError(f"expected a WeylElement, got {type(other).__name__}")
        if not self._same_group(other):
            raise ValueError("elements belong to different Weyl groups")

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.heights == other.heights and self._same_group(other)

    def __hash__(self):
        return hash(self.heights)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        self._require_same_group(other)
        heights, change = self.group._step(self.heights, other._some_reduced_word())
        length = None if self._length is None else self._length + change
        return WeylElement(self.group, heights, _length=length)

    def _some_reduced_word(self) -> tuple[int, ...]:
        """A reduced word of w: the kept canonical one, or else the letters
        of one strip reversed, since w = s_{i_r} ... s_{i_1}.  The strip
        also gives the length."""
        if self._word is not None:
            return self._word
        letters = self.group._strip(self.heights)
        self._length = len(letters)
        return letters[::-1]

    def is_identity(self) -> bool:
        return self.heights == self.group._one

    def act(self, vector) -> tuple[int, ...]:
        vector = [_checked_int(x, "vector entry") for x in _checked_tuple(vector, "vector")]
        if len(vector) != self.group.n:
            raise ValueError(
                f"vector of length {len(vector)} under a rank-{self.group.n} group"
            )
        return self._act(self._some_reduced_word(), vector)

    def _act(self, word, vector) -> tuple[int, ...]:
        v = list(vector)
        neighbours = self.group.cartan.neighbours
        # the word's last letter acts first; sigma_i(v) = v - (sum_j a[i][j] v_j) e_i
        for i in reversed(word):
            v[i] = -v[i] - sum(a * v[j] for j, a in neighbours[i])
        return tuple(v)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The action matrix, built on demand from one reduced word; column
        j is w alpha_j."""
        group = self.group
        word = self._some_reduced_word()
        return tuple(zip(*(self._act(word, group.simple_root(j)) for j in range(group.n))))

    def is_minimal_rep(self, parabolic) -> bool:
        """Whether w is the minimal-length element of its coset w W_J, for J
        the vertex list ``parabolic``: w has no right descent in J."""
        return _no_descent_in(self.heights, vertex_subset(parabolic, self.group.n))

    @property
    def length(self) -> int:
        """Word length, computed once by stripping right descents (least
        index first) until the identity remains."""
        if self._length is None:
            self._length = len(self.group._strip(self.heights))
        return self._length

    def inverse(self) -> "WeylElement":
        letters = self.group._strip(self.heights)
        # the letters fired from the identity: the heights of w^{-1} and its length
        inverse = WeylElement(self.group, *self.group._step(self.group._one, letters))
        # the least right descents of w are the least left descents of w^{-1}
        inverse._word = letters
        return inverse

    def reduced_word(self) -> tuple[int, ...]:
        """The lexicographically least reduced word: repeatedly take the
        least i whose generator shortens the element from the left.  The
        word is computed once and kept on the element."""
        if self._word is None:
            # i is a left descent of w exactly when w^{-1} has i as a right one
            inverse, _ = self.group._step(self.group._one, self.group._strip(self.heights))
            self._word = self.group._strip(inverse)
            self._length = len(self._word)
        return self._word

    def bruhat_leq(self, other: "WeylElement") -> bool:
        """Strong Bruhat order, by greedy right-to-left subword extraction
        against the canonical reduced word of ``other``."""
        self._require_same_group(other)
        if self.length > other.length:
            return False
        one = self.group._one
        current = self.heights
        for i in reversed(other.reduced_word()):
            if current == one:
                return True
            if current[i] < 0:
                current, _ = self.group._step(current, (i,))
        return current == one

    def weak_leq(self, other: "WeylElement") -> bool:
        """Weak right order: lengths add along self^{-1} * other."""
        self._require_same_group(other)
        return other.length == self.length + (self.inverse() * other).length

    def __repr__(self):
        word = self.reduced_word()
        label = "*".join(f"s{i + 1}" for i in word) if word else "e"
        return f"<WeylElement {label}>"
