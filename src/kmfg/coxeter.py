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
of the matrix before anything is built.  A layer is then a plain list,
and a histogram counts its last layer's kept firings without building
them.

A strip that ends at the identity, w * s_{i_1} * ... * s_{i_r} = e, also
spells w^{-1} = s_{i_1} ... s_{i_r}.  So ``_strip`` fires each letter in
place twice, once on w's heights and once on a copy of the identity's, and
returns the letters with the heights of w^{-1}: an inverse costs one strip.
The least right descent of w is the least left descent of w^{-1}, so the
letters are also w^{-1}'s lexicographically least reduced word, and w's
own is the strip of w^{-1}: two strips in all.  A product w * x and the
action of w need only some reduced word, and the letters of one strip,
reversed, are one; the canonical word is read only when it is kept.
All arithmetic is exact Python integers; coordinates grow without bound in
indefinite type and must never wrap.
"""

from __future__ import annotations

from .cartan import GeneralizedCartanMatrix
from .cartan import _checked_cap, _checked_index, _checked_int, vertex_subset
from .errors import InputError, ResourceLimitError

__all__ = ["WeylGroup", "WeylElement", "is_positive_root_vector", "is_negative_root_vector"]

# Positions a walk visits, or elements of a closure's interval: each costs at
# most about 300 bytes, so the cap bounds a run at about 300 MB of memory.
# Measured with tracemalloc on CPython 3.11: 184 B per element at the peak
# of elements_up_to (E8 to length 9); a histogram holds one built layer
# while it builds the next and builds no last layer, 117 to 132 B per
# position of its two widest built layers (E8 to 9, E10 to 12, A6~ to 14);
# a closure's interval, which keeps heights and a length per point, 115 to
# 205 B per point on E8 and E10, and 235 to 260 B with J = (), where every
# point is also returned as a cell.
DEFAULT_ELEMENT_CAP = 1_000_000


def is_positive_root_vector(v) -> bool:
    return all(c >= 0 for c in v) and any(c > 0 for c in v)


def is_negative_root_vector(v) -> bool:
    return all(c <= 0 for c in v) and any(c < 0 for c in v)


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

    def _strip(self, heights) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Right-multiply by the least right descent until the identity
        remains.  The letters i_1, ..., i_r give w = s_{i_r} ... s_{i_1}, and
        the same letters fired from the identity give w^{-1}: returns the
        letters and the heights of w^{-1}."""
        neighbours = self.cartan.neighbours
        c = list(heights)
        inverse = list(self._one)
        letters = []
        while True:
            for i, ci in enumerate(c):
                if ci < 0:
                    break
            else:
                return tuple(letters), tuple(inverse)
            letters.append(i)
            vi = inverse[i]
            c[i] = -ci
            inverse[i] = -vi
            for j, a in neighbours[i]:
                c[j] -= a * ci
                inverse[j] -= a * vi

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
        word, n = tuple(word), self.n
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

    def _walk(self, start, length: int, cap: int, count_last: bool = False):
        """Yield ``(size, layer)`` for each layer of the numbers game from
        ``start``, firing only coordinates > 0, up to ``length`` firings.

        Each position is reached once, so no layer is deduplicated.  A
        position y one firing up has a least negative coordinate i, and
        firing i again is y's one parent (Bjorner & Brenti, ch. 4): so
        firing i at c is kept only when every k < i with c[k] < 0 is lifted
        to c[k] - a[i][k] * c[i] >= 0, a test on c before anything is built
        (reverse search; Avis & Fukuda, Discrete Appl. Math. 65, 1996).
        With ``count_last`` the last layer's kept firings are counted and
        not built, and its layer is None.  ``visited`` counts every kept
        firing, so ResourceLimitError comes past ``cap`` positions at the
        level where the total first exceeds it, built or counted.  The
        bounds are checked here, for both callers, before the first layer."""
        length, cap = _checked_int(length, "length bound"), _checked_cap(cap, "element cap")
        if length < 0:
            raise ValueError("length bound must be >= 0")
        neighbours, rows = self.cartan.neighbours, self.cartan.entries
        layer = [start]
        visited = 1
        yield 1, layer
        for level in range(1, length + 1):
            build = not (count_last and level == length)
            grown_layer = []
            before = visited
            for c in layer:
                descents = []  # the k < i with c[k] < 0
                for i, ci in enumerate(c):
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
        return [
            WeylElement(self, c, _length=level)
            for level, (_, layer) in enumerate(self._walk(self._one, length, cap))
            for c in layer
        ]

    def cell_counts(self, parabolic, length: int, cap: int = DEFAULT_ELEMENT_CAP):
        """Histogram length -> number of cells of that dimension in G/P_J, i.e.
        of minimal representatives of W_J w (inverses of those of w W_J)."""
        J = vertex_subset(parabolic, self.n)
        start = tuple(0 if i in J else 1 for i in range(self.n))
        walk = self._walk(start, length, cap, count_last=True)
        return {level: size for level, (size, _) in enumerate(walk)}

    def closure_cells(self, w: "WeylElement", parabolic, cap: int = DEFAULT_ELEMENT_CAP):
        """The minimal representatives below ``w`` in the strong order, which
        index the cells in the closure of the cell of ``w``.  [e, w] is the
        set of subword products of a reduced word of w (Bjorner & Brenti,
        Thm 2.2.2), grown a letter at a time; ``cap`` bounds its size."""
        self.identity()._require_same_group(w)
        J = vertex_subset(parabolic, self.n)
        cap = _checked_cap(cap, "element cap")
        if not _no_descent_in(w.heights, J):
            raise InputError(
                "element is not a minimal coset representative for the parabolic"
            )
        neighbours = self.cartan.neighbours
        interval = {self._one: 0}  # heights -> length
        for level, i in enumerate(w.reduced_word(), 1):
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
        return [
            WeylElement(self, c, _length=length)
            for c, length in interval.items()
            if _no_descent_in(c, J)
        ]


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
        letters, _ = self.group._strip(self.heights)
        self._length = len(letters)
        return letters[::-1]

    def is_identity(self) -> bool:
        return self.heights == self.group._one

    def act(self, vector) -> tuple[int, ...]:
        if len(vector) != self.group.n:
            raise ValueError(
                f"vector of length {len(vector)} under a rank-{self.group.n} group"
            )
        vector = [_checked_int(x, "vector entry") for x in vector]
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
            self._length = len(self.group._strip(self.heights)[0])
        return self._length

    def inverse(self) -> "WeylElement":
        letters, heights = self.group._strip(self.heights)
        inverse = WeylElement(self.group, heights, _length=len(letters))
        # the least right descents of w are the least left descents of w^{-1}
        inverse._word = letters
        return inverse

    def reduced_word(self) -> tuple[int, ...]:
        """The lexicographically least reduced word: repeatedly take the
        least i whose generator shortens the element from the left.  The
        word is computed once and kept on the element."""
        if self._word is None:
            # i is a left descent of w exactly when w^{-1} has i as a right one
            _, inverse = self.group._strip(self.heights)
            self._word, _ = self.group._strip(inverse)
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
