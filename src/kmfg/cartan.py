"""Generalized Cartan matrices.

Construction and validation, the plain-text and JSON input formats, the
named families A..G (with an optional trailing ``~`` for the untwisted
affine extension), entry parities, and the hypothesis predicates
(irreducible, symmetrizable, two-spherical, spherical) that gate the
fundamental-group formulas.

The plain format is read in one pass: each line is cut at ``#`` and split
into words by ``str.split()``, and the words are converted by ``int``.  A
word's line and 1-based column are found only for the word that an error
names, by finding the words of its line in turn.
Construction validates all n^2 entries of its input.  The analyses (the
predicates here, the parity graph in ``adm``, the Weyl group in
``coxeter``) read the diagram only through ``neighbours``, the nonzero
off-diagonal entries of each row, so they cost time linear in its edges.

Indices are 0-based throughout the Python API; the text formats, the CLI
and all rendered reports use 1-based indices.

The argument rules of the library live here, each in one place.
``_index`` is the integer rule (``operator.index`` with ``bool``
refused), and ``_checked_int`` applies it to a length bound or a vector
entry.  ``_checked_index`` adds the range check of a vertex (for
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
from dataclasses import asdict, dataclass
from functools import cached_property
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
    symmetric zero pattern.  Immutable once constructed."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise MatrixFormatError("matrix must have positive rank")
        rows = []
        for row in self.entries:
            row = tuple(row)
            if len(row) != n:
                raise MatrixFormatError(
                    f"matrix is not square: rank {n}, row of length {len(row)}"
                )
            # a row of exact ints passes as it is; any other is converted or
            # refused entry by entry
            for v in row:
                if v.__class__ is not int:
                    row = tuple(map(_matrix_entry, row))
                    break
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))
        a = self.entries
        for i in range(n):
            if a[i][i] != 2:
                raise InvariantViolationError(
                    "diagonal",
                    (i + 1, i + 1),
                    f"a[{i + 1}][{i + 1}] must be 2, got {a[i][i]}",
                )
            for j in range(n):
                if i == j:
                    continue
                if a[i][j] > 0:
                    raise InvariantViolationError(
                        "sign",
                        (i + 1, j + 1),
                        f"a[{i + 1}][{j + 1}] must be <= 0, got {a[i][j]}",
                    )
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvariantViolationError(
                        "zero-symmetry",
                        (i + 1, j + 1),
                        f"a[{i + 1}][{j + 1}] = {a[i][j]} but "
                        f"a[{j + 1}][{i + 1}] = {a[j][i]}",
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
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex i, the pairs (j, a[i][j]) with j != i and a[i][j] != 0,
        by increasing j.  Every analysis reads the diagram through these."""
        return tuple(
            tuple((j, v) for j, v in enumerate(row) if v and j != i)
            for i, row in enumerate(self.entries)
        )

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
    repeats, each vertex checked by ``_checked_index``."""
    return tuple(sorted({_checked_index(v, n, "vertex") for v in J}))


@dataclass(frozen=True)
class HypothesisReport:
    irreducible: bool
    symmetrizable: bool
    two_spherical: bool
    spherical: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    if not isinstance(data, dict):
        raise MatrixFormatError("JSON input must be an object")
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


def _empty(n):
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


def _join(a, i, j, weight_ij=-1, weight_ji=-1):
    a[i][j] = weight_ij
    a[j][i] = weight_ji


def _base_matrix(family: str, n: int) -> list[list[int]]:
    a = _empty(n)
    if family == "A":
        if n < 1:
            raise UnknownNameError("A requires rank >= 1")
        for i in range(n - 1):
            _join(a, i, i + 1)
    elif family in ("B", "C"):
        if n < 2:
            raise UnknownNameError(f"{family} requires rank >= 2")
        for i in range(n - 1):
            _join(a, i, i + 1)
        if family == "B":
            # short-root node n: a[n][n-1] = -2 (1-based)
            a[n - 1][n - 2] = -2
        else:
            a[n - 2][n - 1] = -2
    elif family == "D":
        if n < 4:
            raise UnknownNameError("D requires rank >= 4")
        for i in range(n - 3):
            _join(a, i, i + 1)
        _join(a, n - 3, n - 2)
        _join(a, n - 3, n - 1)
    elif family == "E":
        if n < 6:
            raise UnknownNameError("E requires rank >= 6")
        for i in range(n - 2):
            _join(a, i, i + 1)
        _join(a, n - 4, n - 1)
    elif family == "F":
        if n != 4:
            raise UnknownNameError("F requires rank 4")
        for i in range(3):
            _join(a, i, i + 1)
        # nodes 1, 2 short, 3, 4 long (1-based); the double bond points at node 2
        a[1][2] = -2
    elif family == "G":
        if n != 2:
            raise UnknownNameError("G requires rank 2")
        a[0][1] = -1
        a[1][0] = -3
    return a


def _affinize(family: str, n: int, a: list[list[int]]) -> list[list[int]]:
    """Append the affine node (last index) of the untwisted extended diagram."""
    aff = n
    for row in a:
        row.append(0)
    a.append([2 if j == aff else 0 for j in range(n + 1)])
    if family == "A":
        if n == 1:
            a[0][1] = a[1][0] = -2
        else:
            _join(a, aff, 0)
            _join(a, aff, n - 1)
    elif family == "B":
        if n < 3:
            raise UnknownNameError("affine B requires rank >= 3")
        _join(a, aff, 1)
    elif family == "C":
        # affine node is long, attached to the short node 1 (1-based)
        a[aff][0] = -1
        a[0][aff] = -2
    elif family == "D":
        _join(a, aff, 1)
    elif family == "E":
        if n not in (6, 7, 8):
            raise UnknownNameError("affine E requires rank 6, 7 or 8")
        attach = {6: 5, 7: 5, 8: 0}[n]
        _join(a, aff, attach)
    elif family == "F":
        _join(a, aff, 3)
    elif family == "G":
        _join(a, aff, 0)
    return a


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
    a = _base_matrix(family, n)
    if affine:
        a = _affinize(family, n, a)
    return GeneralizedCartanMatrix(tuple(tuple(row) for row in a))


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
    return m._hypotheses
