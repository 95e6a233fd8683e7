"""Generalized Cartan matrices.

Construction and validation, the plain-text and JSON input formats, the
named families A..G (with an optional trailing ``~`` for the untwisted
affine extension), entry parities, and the hypothesis predicates
(irreducible, symmetrizable, two-spherical, spherical).  Symmetrizable or
two-spherical is the one hypothesis that gates the fundamental-group
formulas; irreducibility is only reported, since a reducible diagram's
answers are the products of its factors'.

A named diagram is its list of bonds (i, j, a[i][j], a[j][i]) (Kac,
*Infinite-dimensional Lie algebras*, Tables Fin and Aff 1): each finite
family is a path with one bond changed or moved (``_bonds``), and the
affine node's bonds are stated apart (``_affine_bonds``).  ``from_named``
writes them into rows of zeros with 2 on the diagonal.  A name is refused
by the rank bound first, then its family's rank rule, then the affine
rule.

The plain format is read in one pass: each line is cut at ``#`` and split
into words by ``str.split()``, and the words are converted by ``int``.  A
word's line and 1-based column are found only for the word that an error
names, by finding the words of its line in turn.
Construction reads each row of its input once, building ``neighbours``,
the nonzero off-diagonal entries of the row, and checks the diagonal, the
sign and the zero-symmetry rules on those: a zero-symmetry violation is
reported at its nonzero entry.  The analyses (the predicates here, the
parity graph in ``adm``, the Weyl group in ``coxeter``) read the diagram
only through ``neighbours``, so they cost time linear in its edges.

Indices are 0-based throughout the Python API; the text formats, the CLI
and all rendered reports use 1-based indices.

The argument rules of the library live here, each in one place.
``_checked_type`` refuses a matrix or parity graph argument of another
type, once per call of an entry point that takes one.
``_checked_tuple`` reads a container argument (a vertex set, a word, a
vector, a list of words) and refuses one that is not iterable.  ``_index``
is the integer rule (``operator.index`` with ``bool`` refused), and
``_checked_int`` applies it to a length bound or a vector entry.
``_checked_index`` adds the range check of a vertex (for
``vertex_subset``), a word letter, a simple root or a relator's
generator, and ``_checked_cap`` the lower bound 1 of a coset or element
cap.  The ``GeneralizedCartanMatrix`` constructor is the one check of a
matrix entry, and ``adm._checked_kappa`` that of a kappa value.  A loop
that checks a letter or an entry at a time tests for an exact ``int`` (in
range) inline and calls the helper only for anything else, so the rule
and its errors stay in one place.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd

from .errors import InputError, InvariantViolationError, MatrixFormatError, UnknownNameError

__all__ = [
    "GeneralizedCartanMatrix",
    "HypothesisReport",
    "parse_matrix",
    "from_named",
    "is_irreducible",
    "is_two_spherical",
    "is_symmetrizable",
    "is_spherical",
    "symmetrizer",
    "hypothesis_report",
]


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Integer matrix with 2 on the diagonal, entries <= 0 off it, and a
    symmetric zero pattern.  Immutable once constructed.

    ``neighbours`` holds, per vertex i, the pairs (j, a[i][j]) with j != i
    and a[i][j] != 0, by increasing j.  Construction builds it and checks
    the three invariants on it, and every analysis reads the diagram
    through it.  It is not a field: equality, hashing and repr read only
    ``entries``."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = _checked_tuple(self.entries, "matrix", MatrixFormatError)
        rows = [_checked_tuple(row, "matrix row", MatrixFormatError) for row in entries]
        n = len(rows)
        if n == 0:
            raise MatrixFormatError("matrix must have positive rank")
        for k, row in enumerate(rows):
            if len(row) != n:
                raise MatrixFormatError(
                    f"matrix is not square: rank {n}, row of length {len(row)}"
                )
            # a row of exact ints passes as it is; any other is converted or
            # refused entry by entry
            if {*map(type, row)} != {int}:
                rows[k] = tuple(map(_matrix_entry, row))
        a = tuple(rows)
        object.__setattr__(self, "entries", a)
        # the one read of each row: compress skips its zeros in C
        columns = range(n)
        neighbours = tuple(
            tuple([(j, row[j]) for j in compress(columns, row) if j != i])
            for i, row in enumerate(a)
        )
        object.__setattr__(self, "neighbours", neighbours)
        for i, row in enumerate(neighbours):
            if a[i][i] != 2:
                raise InvariantViolationError(
                    "diagonal",
                    (i + 1, i + 1),
                    f"a[{i + 1}][{i + 1}] must be 2, got {a[i][i]}",
                )
            for j, v in row:
                if v > 0:
                    raise InvariantViolationError(
                        "sign",
                        (i + 1, j + 1),
                        f"a[{i + 1}][{j + 1}] must be <= 0, got {v}",
                    )
                if not a[j][i]:
                    raise InvariantViolationError(
                        "zero-symmetry",
                        (i + 1, j + 1),
                        f"a[{i + 1}][{j + 1}] = {v} but a[{j + 1}][{i + 1}] = 0",
                    )

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def parity(self, i: int, j: int) -> int:
        """(-1) raised to the (i, j) entry; +1 or -1."""
        return -1 if self.entries[i][j] % 2 else 1

    def to_plain_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(str(v) for v in row) for row in self.entries)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"size": self.n, "entries": [list(row) for row in self.entries]}

    def __str__(self) -> str:
        return self.to_plain_text().rstrip("\n")

    # The analysis, computed on first use and kept on the matrix object.
    # cached_property writes the instance __dict__, which a frozen dataclass
    # without slots leaves open; equality and hashing read only ``entries``.

    @cached_property
    def _hypotheses(self) -> "HypothesisReport":
        d = symmetrizer(self)
        return HypothesisReport(
            irreducible=is_irreducible(self),
            symmetrizable=d is not None,
            two_spherical=is_two_spherical(self),
            spherical=d is not None and _positive_definite(self),
        )

    @cached_property
    def _parity_graph(self):
        from .adm import _build_graph  # adm imports this module

        return _build_graph(self)

    @cached_property
    def _two_skeleton(self):
        from .fpgroup import _two_skeleton_pairs  # fpgroup imports this module

        return _two_skeleton_pairs(self)


def _index(value) -> int:
    """``value`` as an int, the library's one integer rule: it goes through
    ``operator.index``, so 1.5 or "1" is refused with a TypeError rather
    than truncated; so is a bool, as in JSON matrix input."""
    if value.__class__ is bool:
        raise TypeError("a bool is not an integer here")
    return operator.index(value)


def _checked_int(value, what: str) -> int:
    """``value`` as an int by ``_index``, the one check of a length bound or
    a vector entry and the first of ``_checked_index`` and ``_checked_cap``;
    a ValueError names ``what``.  An exact int is returned as it is, with no
    call."""
    if value.__class__ is int:
        return value
    try:
        return _index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _checked_type(value, kind: type, what: str):
    """``value`` if it is a ``kind``, the one check of a matrix or parity
    graph argument; a ValueError names ``what`` and the type it got."""
    if not isinstance(value, kind):
        raise ValueError(f"expected {what} of type {kind.__name__}, got {type(value).__name__}")
    return value


def _checked_tuple(value, what: str, error=ValueError) -> tuple:
    """``value`` as a tuple, the one check of a container argument: a vertex
    set, a word, a vector, the generator names or relators of a
    presentation, or a matrix and its rows (with ``error``
    MatrixFormatError).  An ``error``, by default a ValueError, names
    ``what`` when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{what} {value!r} is not a sequence") from None


def _checked_index(value, n: int, what: str) -> int:
    """``value`` as an int in range(n) by ``_checked_int``, the one check of
    a vertex, a word letter, a simple root or a generator; a ValueError
    names ``what``."""
    value = _checked_int(value, what)
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} out of range")
    return value


def _checked_cap(value, what: str) -> int:
    """``value`` as an int >= 1 by ``_checked_int``, the one check of a
    coset or element cap; a ValueError names ``what``."""
    value = _checked_int(value, what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _matrix_entry(value) -> int:
    """A matrix entry as an int by ``_index``, for the constructor."""
    try:
        return _index(value)
    except TypeError:
        raise MatrixFormatError(f"non-integer entry {value!r}") from None


def vertex_subset(J, n: int) -> tuple[int, ...]:
    """The vertex set J of a rank-n diagram as a sorted tuple without
    repeats, each vertex checked by ``_checked_index``; a tuple is read as
    it is, anything else through ``_checked_tuple``."""
    if J.__class__ is not tuple:
        J = _checked_tuple(J, "vertex set")
    return tuple(sorted({_checked_index(v, n, "vertex") for v in J}))


@dataclass(frozen=True)
class HypothesisReport:
    irreducible: bool
    symmetrizable: bool
    two_spherical: bool
    spherical: bool

    def to_json_dict(self) -> dict:
        return {
            "irreducible": self.irreducible,
            "symmetrizable": self.symmetrizable,
            "two_spherical": self.two_spherical,
            "spherical": self.spherical,
        }


def _parse_plain(text: str) -> GeneralizedCartanMatrix:
    lines = []  # (line number, body, words) of each line that has words
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.partition("#")[0]
        words = body.split()
        if words:
            lines.append((lineno, body, words))
    words = [word for _, _, line_words in lines for word in line_words]
    if not words:
        raise MatrixFormatError("empty input")

    def at(index):
        """The (line, column) of word ``index``, found only for an error:
        a word starts at its first occurrence after the word before it."""
        for lineno, body, line_words in lines:
            if index < len(line_words):
                start = end = 0
                for word in line_words[: index + 1]:
                    start = body.index(word, end)
                    end = start + len(word)
                return lineno, start + 1
            index -= len(line_words)

    try:
        n = int(words[0])
    except ValueError:
        raise MatrixFormatError(f"expected the rank, got {words[0]!r}", *at(0)) from None
    if n <= 0:
        raise MatrixFormatError(f"rank must be positive, got {n}", *at(0))
    size = n * n
    try:
        values = list(map(int, words[1 : 1 + size]))
    except ValueError:
        for k, word in enumerate(words[1 : 1 + size], start=1):
            try:
                int(word)
            except ValueError:
                raise MatrixFormatError(
                    f"expected a matrix entry, got {word!r}", *at(k)
                ) from None
    if len(values) < size:
        raise MatrixFormatError("unexpected end of input, expected a matrix entry")
    if len(words) > 1 + size:
        raise MatrixFormatError(f"trailing token {words[1 + size]!r}", *at(1 + size))
    return GeneralizedCartanMatrix(tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n)))


def _parse_json(text: str) -> GeneralizedCartanMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise InputError("JSON input nested too deeply") from None
    for key in ("size", "entries"):
        if key not in data:
            raise MatrixFormatError(f"missing JSON field {key!r}")
    n = data["size"]
    entries = data["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise MatrixFormatError(f"'size' must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFormatError(f"'entries' must be a list of {n} rows")
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"each row must be a list of {n} integers")
    return GeneralizedCartanMatrix(tuple(entries))


def parse_matrix(text: str) -> GeneralizedCartanMatrix:
    """Parse either input format.

    Plain format: first token is the rank n, followed by n*n integers
    row-major, whitespace separated, with ``#`` comments running to end of
    line.  JSON format: an object ``{"size": n, "entries": [[...], ...]}``.
    """
    if text.lstrip()[:1] == "{":
        return _parse_json(text)
    return _parse_plain(text)


_NAME_RE = re.compile(r"([A-G])([0-9]+)(~?)\Z")
# the largest rank of a named diagram, its affine node included, checked
# before any matrix is built
_MAX_NAMED_RANK = 1000
# the least rank of each finite family; F and G have no other
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}


def _bonds(family: str, n: int) -> list[tuple[int, int, int, int]]:
    """The bonds (i, j, a[i][j], a[j][i]) of the rank-n diagram of a finite
    family (Kac, Table Fin), after its rank rule: the path 0 - 1 - ... -
    (n-1) with one bond changed.  B, C, F and G change its weights, and D
    and E move the start of the last bond back by one and two."""
    least = _LEAST_RANK[family]
    if family in "FG" and n != least:
        raise UnknownNameError(f"{family} requires rank {least}")
    if n < least:
        raise UnknownNameError(f"{family} requires rank >= {least}")
    bonds = [(i, i + 1, -1, -1) for i in range(n - 1)]
    if family == "B":
        bonds[-1] = (n - 2, n - 1, -1, -2)  # short-root node n: a[n][n-1] = -2 (1-based)
    elif family == "C":
        bonds[-1] = (n - 2, n - 1, -2, -1)
    elif family == "D":
        bonds[-1] = (n - 3, n - 1, -1, -1)
    elif family == "E":
        bonds[-1] = (n - 4, n - 1, -1, -1)
    elif family == "F":
        # nodes 1, 2 short, 3, 4 long (1-based); the double bond points at node 2
        bonds[1] = (1, 2, -2, -1)
    elif family == "G":
        bonds[0] = (0, 1, -1, -3)
    return bonds


def _affine_bonds(family: str, n: int) -> list[tuple[int, int, int, int]]:
    """The bonds of the affine node n (0-based, the last) of the untwisted
    extension of a rank-n finite diagram (Kac, Table Aff 1), after its rank
    rule."""
    if family == "A":
        return [(n, 0, -2, -2)] if n == 1 else [(n, 0, -1, -1), (n, n - 1, -1, -1)]
    if family == "B" and n < 3:
        raise UnknownNameError("affine B requires rank >= 3")
    if family == "C":
        # the affine node is long, attached to the short node 1 (1-based)
        return [(n, 0, -1, -2)]
    if family == "E":
        if n not in (6, 7, 8):
            raise UnknownNameError("affine E requires rank 6, 7 or 8")
        return [(n, 0 if n == 8 else 5, -1, -1)]
    return [(n, {"B": 1, "D": 1, "F": 3, "G": 0}[family], -1, -1)]


def from_named(name: str) -> GeneralizedCartanMatrix:
    """Standard matrix for a named diagram such as ``A5``, ``B3``, ``E10``,
    or ``C2~`` (untwisted affine)."""
    match = _NAME_RE.match(name.strip())
    if not match:
        raise UnknownNameError(
            f"cannot parse name {name!r}; expected a letter A-G, a rank, "
            "and an optional trailing '~'"
        )
    family, rank_str, affine = match.groups()
    n = int(rank_str)
    rank = n + len(affine)
    if rank > _MAX_NAMED_RANK:
        raise UnknownNameError(f"a named diagram has rank at most {_MAX_NAMED_RANK}, got {rank}")
    bonds = _bonds(family, n)
    if affine:
        bonds += _affine_bonds(family, n)
    a = [[0] * rank for _ in range(rank)]
    for i, row in enumerate(a):
        row[i] = 2
    for i, j, a_ij, a_ji in bonds:
        a[i][j] = a_ij
        a[j][i] = a_ji
    # the constructor reads each row once, into a tuple
    return GeneralizedCartanMatrix(a)


def is_irreducible(m: GeneralizedCartanMatrix) -> bool:
    """True iff the diagram is connected."""
    seen = {0}
    stack = [0]
    while stack:
        for j, _ in m.neighbours[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == m.n


def is_two_spherical(m: GeneralizedCartanMatrix) -> bool:
    """True iff every rank-2 subdiagram is spherical: a[i][j]*a[j][i] <= 3."""
    return all(v * m.entries[j][i] <= 3 for i, row in enumerate(m.neighbours) for j, v in row)


def symmetrizer(m: GeneralizedCartanMatrix):
    """The least positive integers d with d_i * a[i][j] = d_j * a[j][i], gcd 1
    on each diagram component, or None when there are none.

    The ratios d_j/d_i = a[i][j]/a[j][i] are propagated along a spanning
    tree of each component.  The d found so far are a component's least
    solution on the vertices reached; when the next ratio is not integral,
    that part is scaled by the least factor that makes it so, which keeps it
    least.  Every non-tree edge is then checked by cross-multiplication.  A
    symmetrizer exists exactly when every cycle's products agree (Kac,
    *Infinite Dimensional Lie Algebras*, Ex. 2.1).
    """
    a = m.entries
    d = [0] * m.n
    for root in range(m.n):
        if d[root]:
            continue
        d[root] = 1
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j, v in m.neighbours[i]:
                if not d[j]:
                    num, den = -d[i] * v, -a[j][i]
                    if num % den:
                        scale = den // gcd(num, den)
                        for k in component:
                            d[k] *= scale
                        num *= scale
                    d[j] = num // den
                    component.append(j)
                    stack.append(j)
                elif d[i] * v != d[j] * a[j][i]:
                    return None
    return tuple(d)


def is_symmetrizable(m: GeneralizedCartanMatrix) -> bool:
    return hypothesis_report(m).symmetrizable


def is_spherical(m: GeneralizedCartanMatrix) -> bool:
    """True iff the Weyl group is finite: the matrix is symmetrizable with a
    positive definite symmetrization."""
    return hypothesis_report(m).spherical


def _positive_definite(m: GeneralizedCartanMatrix) -> bool:
    """Whether diag(d) * A is positive definite, for the symmetrizer d, by
    LDL^T pivots in integers.

    Each row is kept as its nonzero entries and stands for a positive
    multiple of that row of the symmetric Schur complement, so a pivot's
    sign is the sign of an integer.  Row i of A is 1/d_i times row i of
    diag(d) * A, so the rows of A are the start.  Pivot row k, with pivot
    p > 0, turns each row i with entry f in column k into p * r_i - f * r_k,
    the fraction-free step (Bareiss, Math. Comp. 22, 1968), which is a
    positive multiple again, and divides it by the gcd of its entries.  A
    pivot touches only the rows of its row's nonzero tail, so a path or a
    tree in order costs time linear in its edges."""
    rows = [{i: 2, **dict(row)} for i, row in enumerate(m.neighbours)]
    for k, row in enumerate(rows):
        pivot = row.pop(k, 0)
        if pivot <= 0:
            return False
        # entries left of k were eliminated: the tail is the rest of the row
        for i in row:
            target = rows[i]
            factor = target.pop(k)
            target = {j: pivot * x for j, x in target.items()}
            for j, v in row.items():
                x = target.get(j, 0) - factor * v
                if x:
                    target[j] = x
                else:
                    target.pop(j, None)
            g = gcd(*target.values())
            if g > 1:
                target = {j: x // g for j, x in target.items()}
            rows[i] = target
    return True


def hypothesis_report(m: GeneralizedCartanMatrix) -> HypothesisReport:
    """The matrix's hypotheses, computed once and kept on it."""
    return _checked_type(m, GeneralizedCartanMatrix, "m")._hypotheses
