"""Finitely presented groups: presentations, abelianization, coset enumeration.

Words are tuples of (generator index, exponent) pairs with exponents +1 or
-1, freely reduced.  Relators and subgroup words pass one check
(``_checked_word``): each entry must be an integer by the library's one
rule, ``cartan._index``, so 1.5, "1" or True is a ValueError, never
truncated or converted, and each generator in range by
``cartan._checked_index``.
Abelianization goes through an exact integer Smith normal form:
diagonalize, then normalize the diagonal with C_a x C_b =
C_gcd(a,b) x C_lcm(a,b), the one rule ``verify``'s direct sums share.  A
presentation is abelianized once: it keeps its Smith normal form
diagonal, which ``abelianization`` and the index bound of ``todd_coxeter``
both read.
Coset enumeration has one entry, ``todd_coxeter``, which checks the cap
and the subgroup words, applies the index bound and picks one of two
strategies: the relator-scanning strategy with lookahead (default) or a
deduction-driven strategy as an independent alternate.  Each strategy
only fills a table and returns it complete, or None, and ``todd_coxeter``
alone makes the result: Finite(order) with that table attached, or an
explicit Exhausted, never a silent truncation.  Exhausted(cap) means the
cap prevents a conclusion: the table filled, or the order of G/HG', a
lower bound on the index read off one Smith normal form before any table
is built (the presentation's kept diagonal when there are no subgroup
words), is infinite or already above the cap.  Each relator is scanned
once up to inversion (the enumerator drops repeats and inverses from its
own working list; presentations keep them), and a relator is traced before
it is scanned.  ``todd_coxeter`` compacts the table a strategy returns
and certifies it once (``_closed``): the table gives each letter a
permutation of the cosets, and every relator closes at every coset
exactly when the composition of its letters' columns is the identity.
The columns cost one integer per coset per letter while the check runs.
Both strategies close every relator at every coset by construction, so a
table that fails the certificate is an InternalError, like a failed
normality test, and never a retry.  The relator-scanning strategy scans
every relator at each live coset in turn; its lookahead, when the table
fills, is a deduction-only pass over every relator at every coset
(``_scan_everywhere``) that frees the rows its coincidences kill.  The
deduction-driven strategy handles a deduction alpha.x = beta by scanning
the relator rotations that start with x at alpha.  Rotations of both r
and r^-1 are listed, so these cross the edge in every relator cycle
through it, each cycle once; the rotations that start with x^-1 at beta
would walk the same cycles backwards and are not scanned.  It resumes its
search for the next undefined entry at the last coset that had one.

The presentation builders turn a generalized Cartan matrix and a
parabolic J into the flag presentation, the pair relators
``x_i x_j^{eps(i,j)} x_i^-1 x_j^-1`` with eps the entry parity and then
the killers x_k = 1 for k in J, and into its two-skeleton counterpart,
whose pairs are built once per matrix.  Each pair relator says x_i x_j
x_i^-1 = x_j^eps, so <x_J> is normal in the full flag group G and the
flag group at J is G / <x_J>.  ``FlagGroups`` is the one way to a flag
group's presentation and order.  It enumerates G at most once, through
``todd_coxeter``, on the first request for G itself, and from then on
reads the order at every other J off the table of G's Finite result, as
the index of <x_J>; a normality test that fails there is an
InternalError.  Before G is asked for, or where G is not Finite under the
cap, each J is enumerated directly.
``_colour_group`` states what group each colour of parity-graph
component predicts, and ``check_flag`` compares a flag group of a
``FlagGroups`` with the product of its components' predictions, the one
check of that kind, and returns the one record of a checked flag group, a
``FlagCheck``: parabolic, invariants, order, checks and the closed form,
the predicted abelianization.  ``verify`` makes it for every component C
of ``build_adm(m)`` on the flag group with every vertex outside C killed,
the one kind of group it enumerates, and keeps the graph beside the
records; ``pi1.pi1_flag`` makes it for the components outside its
parabolic and returns the record.  ``verify`` and ``pi1.full_report`` ask
for G first, so each makes one enumeration per diagram;
``pi1.pi1_flag`` asks for its own J only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .adm import AdmGraph, build_adm
from .cartan import GeneralizedCartanMatrix, _checked_cap, _checked_index, _index, vertex_subset
from .coxeter import WeylGroup
from .errors import InternalError

__all__ = [
    "FpPresentation",
    "AbelianInvariants",
    "EnumerationResult",
    "FlagCheck",
    "Verification",
    "free_reduce",
    "smith_normal_form",
    "abelianization",
    "todd_coxeter",
    "flag_presentation",
    "FlagGroups",
    "check_flag",
    "cw_presentation",
    "verify",
]

Word = tuple  # of (generator, exponent) pairs

DEFAULT_MAX_COSETS = 100_000


def free_reduce(word) -> Word:
    out = []
    for gen, exp in word:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def _checked_word(word, count) -> Word:
    """``word`` as a tuple of (generator, exponent) pairs of ints, the one
    check of a relator or subgroup word.  An entry that is not an exact int
    goes through ``cartan._index``, so 1.5, "1" or True is refused rather
    than converted; a generator outside range(count), by
    ``cartan._checked_index``, or an exponent other than +1 or -1 is
    refused too, each with a ValueError."""
    checked = []
    try:
        for gen, exp in word:
            if gen.__class__ is not int or not 0 <= gen < count:
                gen = _checked_index(_index(gen), count, "generator index")
            if exp.__class__ is not int:
                exp = _index(exp)
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")
            checked.append((gen, exp))
    except TypeError:
        raise ValueError(f"word {word!r} is not a sequence of integer pairs") from None
    return tuple(checked)


@dataclass(frozen=True)
class FpPresentation:
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        relators = tuple(_checked_word(word, self.generator_count) for word in self.relators)
        for word in relators:
            if free_reduce(word) != word:
                raise ValueError(f"relator {word} is not freely reduced")
        object.__setattr__(self, "relators", relators)

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    # cached_property writes the instance __dict__, which a frozen dataclass
    # without slots leaves open; equality and hashing read only the fields.

    @cached_property
    def smith_diagonal(self) -> tuple[int, ...]:
        """The invariant factors of the relator exponent-sum matrix, 1s
        included, computed on first use.  Zero and repeated rows leave its
        row lattice, so the invariant factors, unchanged; only the distinct
        nonzero rows reach the Smith normal form."""
        return tuple(smith_normal_form(_exponent_rows(self.generator_count, self.relators)))


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus torsion in divisibility order d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} not in divisibility order")

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"C{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class EnumerationResult:
    """What a coset enumeration found.  A Finite result of ``todd_coxeter``
    carries the closed table that certifies its order: row 0 is the
    subgroup and entry [k][x] is coset k times letter x (letter 2*i is
    generator i, 2*i+1 its inverse).  Exhausted results, and orders read
    off another group's table, carry None.  Equality, hashing and repr
    ignore the table."""

    status: str  # "finite" | "exhausted"
    order: int | None = None
    limit: int | None = None
    table: list | None = field(default=None, compare=False, repr=False)

    @classmethod
    def finite(cls, order: int, table: list | None = None) -> "EnumerationResult":
        return cls("finite", order=order, table=table)

    @classmethod
    def exhausted(cls, limit: int) -> "EnumerationResult":
        return cls("exhausted", limit=limit)

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    def __str__(self):
        if self.is_finite:
            return f"Finite({self.order})"
        return f"Exhausted({self.limit})"


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def smith_normal_form(rows) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix, 1s included.

    Diagonalize over exact integers around a pivot of least absolute
    value, then put the diagonal in divisibility order; only the diagonal
    is tracked, transforms are not.
    """
    a = [list(row) for row in rows]
    diag = []
    # Each round either sets its pivot aside or leaves a remainder smaller
    # than |p| in p's row or column, lowering the least |entry|.
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            return _invariant_factors(diag)
        _, pi, pj = min(nonzero)
        p = a[pi][pj]
        for i, row in enumerate(a):
            if i != pi and row[pj]:
                q = row[pj] // p
                a[i] = [x - q * y for x, y in zip(row, a[pi])]
        column = [row for row in a if row[pj]]
        for j, v in enumerate(a[pi]):
            if j != pj and v:
                q = v // p
                for row in column:
                    row[j] -= q * row[pj]
        if len(column) > 1 or sum(1 for v in a[pi] if v) > 1:
            continue
        diag.append(abs(p))
        del a[pi]
        for row in a:
            del row[pj]


def _invariant_factors(diagonal) -> list[int]:
    """The diagonal of positive integers in divisibility order, by
    C_a x C_b = C_gcd(a,b) x C_lcm(a,b) on every pair."""
    d = list(diagonal)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def _exponent_rows(count, words) -> dict:
    """The distinct nonzero exponent-sum rows of ``words``, in first-seen
    order (a dict's keys)."""
    rows = {}
    for word in words:
        row = [0] * count
        for gen, exp in word:
            row[gen] += exp
        if any(row):
            rows[tuple(row)] = None
    return rows


def abelianization(presentation: FpPresentation) -> AbelianInvariants:
    """The abelian invariants read off the presentation's Smith normal
    form diagonal."""
    count = presentation.generator_count
    diag = presentation.smith_diagonal
    return AbelianInvariants(
        free_rank=count - len(diag),
        torsion=tuple(d for d in diag if d > 1),
    )


def _direct_sum(invariant_list) -> AbelianInvariants:
    free = 0
    torsion = []
    for inv in invariant_list:
        free += inv.free_rank
        torsion.extend(inv.torsion)
    return AbelianInvariants(free, tuple(d for d in _invariant_factors(torsion) if d > 1))


# ---------------------------------------------------------------------------
# Coset enumeration


class _TableFull(Exception):
    pass


class _CosetTable:
    """Coset table over the alphabet of generators and inverses.

    Letter 2*i stands for generator i, letter 2*i+1 for its inverse.
    Dead cosets are tracked by a union-find array; coset 0 (the subgroup)
    is always its own representative because merges keep the smaller index.
    """

    def __init__(self, ngens, max_cosets, record_deductions=False):
        self.width = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.width]
        self.p = [0]
        self.queue = deque()
        self.deductions = [] if record_deductions else None

    def rep(self, k):
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def define(self, alpha, x):
        if len(self.table) >= self.max_cosets:
            raise _TableFull
        beta = len(self.table)
        self.table.append([None] * self.width)
        self.p.append(beta)
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha
        if self.deductions is not None:
            self.deductions.append((alpha, x))
        return beta

    def _merge(self, k, l):
        k = self.rep(k)
        l = self.rep(l)
        if k != l:
            lo, hi = (k, l) if k < l else (l, k)
            self.p[hi] = lo
            self.queue.append(hi)

    def coincidence(self, alpha, beta):
        self._merge(alpha, beta)
        table = self.table
        while self.queue:
            gamma = self.queue.popleft()
            for x in range(self.width):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] is not None:
                    self._merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    self._merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
                    if self.deductions is not None:
                        self.deductions.append((mu, x))

    def scan(self, alpha, word, fill):
        """Scan ``word`` at coset ``alpha``; with ``fill`` new cosets are
        defined until the scan closes, otherwise an incomplete scan is left
        alone.  Closing scans record coincidences or deductions."""
        table = self.table
        f = alpha
        i = 0
        b = alpha
        j = len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                if self.deductions is not None:
                    self.deductions.append((f, word[i]))
                return
            if not fill:
                return
            self.define(f, word[i])

    def compact(self) -> int:
        """Renumber live cosets consecutively, dropping dead rows; returns
        how many rows were dropped."""
        live = [i for i, parent in enumerate(self.p) if parent == i]
        dropped = len(self.p) - len(live)
        if not dropped:
            return 0
        number = dict(zip(live, range(len(live))))
        # the new number of every coset, dead ones through their representative
        renumber = [number[self.rep(k)] for k in range(len(self.p))]
        self.table = [
            [None if entry is None else renumber[entry] for entry in self.table[i]]
            for i in live
        ]
        self.p = list(range(len(live)))
        return dropped


def _word_to_letters(word) -> tuple[int, ...]:
    return tuple(2 * gen + (0 if exp == 1 else 1) for gen, exp in word)


def _letters_inverse(letters) -> tuple[int, ...]:
    return tuple(x ^ 1 for x in reversed(letters))


def todd_coxeter(
    presentation: FpPresentation,
    subgroup_words=(),
    max_cosets: int = DEFAULT_MAX_COSETS,
    strategy: str = "hlt",
) -> EnumerationResult:
    """Enumerate the cosets of the subgroup generated by ``subgroup_words``,
    the one entry to the coset enumerator.

    Finite(k) is returned only once the table is complete and certified
    closed under every relator at every coset (``_closed``, run once on
    the compacted table), in which case k is the exact index (the group
    order for the trivial subgroup), and the result carries that table:
    for the trivial subgroup, the regular permutation representation.  A
    complete table that fails the certificate raises InternalError naming
    the strategy: both close every relator by construction, so the failure
    is a bug, not a property of the presentation.
    Exhausted(max_cosets) means the cap prevents a conclusion: either the
    table filled, or, before any table is built, the order of G/HG' (the
    abelianization of the group with the subgroup words added as relators)
    is infinite or above the cap.  That order bounds the index from below
    and a Finite(k) needs k rows, so no table of max_cosets rows could
    have closed.

    Each relator is scanned once up to inversion: one equal to an earlier
    relator or to the inverse of one is dropped from the working list,
    since on a consistent table r closes at a coset exactly when r^-1 does
    (r^-1 walks the same cycle backwards).
    """
    max_cosets = _checked_cap(max_cosets, "coset cap")
    count = presentation.generator_count
    subgroup_words = [_checked_word(word, count) for word in subgroup_words]
    if strategy == "hlt":
        enumerate_table = _hlt_table
    elif strategy == "felsch":
        enumerate_table = _felsch_table
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # [G:H] >= |G/HG'|, the product of the diagonal (infinite when short)
    diag = presentation.smith_diagonal
    if subgroup_words:
        diag = smith_normal_form(_exponent_rows(count, [*presentation.relators, *subgroup_words]))
    if len(diag) < count or math.prod(diag) > max_cosets:
        return EnumerationResult.exhausted(max_cosets)
    relators = []
    seen = set()
    for word in presentation.relators:
        letters = _word_to_letters(word)
        if letters not in seen:
            seen.add(letters)
            seen.add(_letters_inverse(letters))
            relators.append(letters)
    subgroup = [_word_to_letters(free_reduce(w)) for w in subgroup_words]
    ct = enumerate_table(count, relators, subgroup, max_cosets)
    if ct is None:
        return EnumerationResult.exhausted(max_cosets)
    ct.compact()
    if not _closed(ct.table, relators):
        raise InternalError(f"the {strategy} coset table does not close every relator at every coset")
    return EnumerationResult.finite(len(ct.table), ct.table)


def _closes(table, alpha, rel) -> bool:
    """Whether ``rel`` traced from ``alpha`` is defined throughout and
    returns to ``alpha``, so that scanning it there would change nothing."""
    f = alpha
    for x in rel:
        f = table[f][x]
        if f is None:
            return False
    return f == alpha


def _scan_everywhere(ct, relators):
    """The lookahead's pass: deductions only, over every relator at every
    live coset; coincidences may fire, definitions never happen."""
    table = ct.table
    p = ct.p
    for alpha in range(len(table)):
        if p[alpha] != alpha:
            continue
        for rel in relators:
            if p[alpha] != alpha:
                break
            if not _closes(table, alpha, rel):
                ct.scan(alpha, rel, fill=False)


def _closed(table, relators) -> bool:
    """Whether a compacted table is complete and every relator closes at
    every coset; the table is only read.  A complete table is one
    permutation per letter, so each letter's column is built once and a
    relator closes everywhere exactly when the composition of its letters'
    columns is the identity; reading whole columns keeps the accesses
    sequential."""
    if any(None in row for row in table):
        return False
    identity = list(range(len(table)))
    columns = [[row[x] for row in table] for x in range(len(table[0]))]
    for rel in relators:
        image = identity
        for x in rel:
            image = list(map(columns[x].__getitem__, image))
        if image != identity:
            return False
    return True


def _hlt_table(ngens, relators, subgroup, max_cosets):
    """HLT with lookahead: the complete table, every relator closed at
    every live coset, or None when the cap prevents one.  Each live coset
    has every relator scanned at it before the next, and coincidences map
    closed relator cycles to closed ones."""
    ct = _CosetTable(ngens, max_cosets)
    while True:
        try:
            for word in subgroup:
                ct.scan(0, word, fill=True)
            table = ct.table
            p = ct.p
            alpha = 0
            while alpha < len(table):
                if p[alpha] == alpha:
                    for rel in relators:
                        if p[alpha] != alpha:
                            break
                        # trace first; scan only where the trace does not close
                        f = alpha
                        for x in rel:
                            f = table[f][x]
                            if f is None:
                                break
                        if f != alpha:
                            ct.scan(alpha, rel, fill=True)
                    if p[alpha] == alpha:
                        for x in range(ct.width):
                            if table[alpha][x] is None:
                                ct.define(alpha, x)
                alpha += 1
            return ct
        except _TableFull:
            # lookahead: collapse what can be collapsed, then reclaim the
            # dead rows; with none dead there is nothing to reclaim
            _scan_everywhere(ct, relators)
            if not ct.compact():
                return None
            # rescan from the start (already-closed scans cost one trace)


def _felsch_table(ngens, relators, subgroup, max_cosets):
    """Felsch: the complete table, every relator closed at every live
    coset, or None when the table fills.  Every entry it sets is a
    deduction, and processing one scans every relator cycle through it."""
    ct = _CosetTable(ngens, max_cosets, record_deductions=True)
    by_letter = {x: [] for x in range(2 * ngens)}
    seen_rotations = set()
    for rel in relators:
        for base in (rel, _letters_inverse(rel)):
            for k in range(len(base)):
                rotation = base[k:] + base[:k]
                if rotation and rotation not in seen_rotations:
                    seen_rotations.add(rotation)
                    by_letter[rotation[0]].append(rotation)

    def process_deductions():
        # by_letter holds the rotations of r and of r^-1, so the words that
        # start with x at alpha cross the edge alpha.x = beta in every relator
        # cycle through it, in one direction or the other; the words that
        # start with x^-1 at beta would walk the same cycles backwards
        while ct.deductions:
            alpha, x = ct.deductions.pop()
            alpha = ct.rep(alpha)
            for word in by_letter[x]:
                if ct.p[alpha] != alpha:
                    break
                ct.scan(alpha, word, fill=False)

    table = ct.table
    p = ct.p
    try:
        for word in subgroup:
            ct.scan(0, word, fill=True)
            process_deductions()
        # next-definition pointer: the search for an undefined entry resumes
        # at the last coset that had one; when it finds none from there, one
        # sweep from coset 0 must confirm the table complete before it is
        # returned, so a Finite result never rests on the pointer
        start = 0
        while True:
            target = None
            for alpha in range(start, len(table)):
                if p[alpha] != alpha:
                    continue
                row = table[alpha]
                for x in range(ct.width):
                    if row[x] is None:
                        target = (alpha, x)
                        break
                if target:
                    break
            if target is None:
                if start:
                    start = 0
                    continue
                return ct
            start = target[0]
            ct.define(*target)
            process_deductions()
    except _TableFull:
        return None


# ---------------------------------------------------------------------------
# Quotients read off a group's coset table


def _subgroup_orbit(table, J) -> set:
    """The subgroup <x_j : j in J> of a group given by its regular table:
    the orbit of row 0 under the letters x_j.  The group is finite, so
    the generators alone reach their inverses."""
    letters = [2 * j for j in J]
    orbit = {0}
    stack = [0]
    while stack:
        g = stack.pop()
        for x in letters:
            h = table[g][x]
            if h not in orbit:
                orbit.add(h)
                stack.append(h)
    return orbit


def _is_normal(table, subgroup, J) -> bool:
    """Whether ``subgroup`` = <x_J> is normal: x_i^-1 x_j x_i lies in it
    for every generator i and every j in J.  Conjugation by x_i is then a
    bijection of the finite subgroup onto itself, and the x_i generate."""
    for i in range(len(table[0]) // 2):
        inverse = table[0][2 * i + 1]
        for j in J:
            if table[table[inverse][2 * j]][2 * i] not in subgroup:
                return False
    return True


def _quotient_order(table, J) -> int:
    """|G / <x_J>| for the group G of a regular table, where <x_J> must be
    normal, so that killing x_J is the quotient by it.  A <x_J> that is
    not normal raises InternalError: its index is not the order of G with
    x_J killed, and callers only ask where the relators make it normal."""
    subgroup = _subgroup_orbit(table, J)
    if not _is_normal(table, subgroup, J):
        names = ", ".join(f"x{j + 1}" for j in J)
        raise InternalError(f"the subgroup generated by {names} is not normal in the enumerated group")
    return len(table) // len(subgroup)


# ---------------------------------------------------------------------------
# Presentations attached to a generalized Cartan matrix


def _pair_relator(i, j, parity) -> Word:
    return ((i, 1), (j, parity), (i, -1), (j, -1))


def flag_presentation(m: GeneralizedCartanMatrix, J) -> FpPresentation:
    """Fundamental-group presentation of the flag variety for the parabolic
    subset J: all pair relators over the whole vertex set, plus x_k = 1
    for k in J."""
    J = vertex_subset(J, m.n)
    names = tuple(f"x{v + 1}" for v in range(m.n))
    relators = [
        _pair_relator(a, b, m.parity(a, b))
        for a in range(m.n)
        for b in range(m.n)
        if a != b
    ]
    relators.extend(((k, 1),) for k in J)
    return FpPresentation(names, tuple(relators))


def cw_presentation(m: GeneralizedCartanMatrix, J) -> FpPresentation:
    """The presentation read off the two-skeleton: one killer relator per
    k in J, and a pair relator for (i, j) only when sigma_i sigma_j is a
    minimal coset representative for the parabolic (no right descent in J).
    The pairs and their descents are built once per matrix
    (``_two_skeleton_pairs``); each J only filters them."""
    J = vertex_subset(J, m.n)
    names = tuple(f"x{v + 1}" for v in range(m.n))
    relators = [((k, 1),) for k in J]
    relators.extend(rel for descents, rel in m._two_skeleton if descents.isdisjoint(J))
    return FpPresentation(names, tuple(relators))


def _two_skeleton_pairs(m: GeneralizedCartanMatrix) -> tuple:
    """Per ordered pair (a, b) with a != b, the right descents of the cell
    sigma_a sigma_b and the pair relator it contributes.  The right
    descents of a Weyl group element lie in its support, here {a, b}."""
    weyl = WeylGroup(m)
    pairs = []
    for a in range(m.n):
        for b in range(m.n):
            if a == b:
                continue
            w = weyl.from_word((a, b))
            descents = frozenset(v for v in (a, b) if not w.is_minimal_rep((v,)))
            pairs.append((descents, _pair_relator(a, b, m.parity(a, b))))
    return tuple(pairs)


class FlagGroups:
    """The flag groups ``flag_presentation(m, J)`` of one diagram under one
    coset cap, the one way to a flag group's presentation and order: each
    presentation is built once, and the full flag group G (J empty) is
    enumerated at most once, by ``todd_coxeter``, its result kept.

    G is enumerated lazily, on the first ``order(())``, so a caller that
    needs many J asks for G first, and a caller that needs one nonempty J
    never enumerates G.  Each pair relator x_i x_j^eps x_i^-1 x_j^-1 says
    x_i x_j x_i^-1 = x_j^eps, so <x_J> is normal in G and killing x_J is
    the quotient by it: once G is Finite, the order at J is |G| / |<x_J>|,
    read off the table that comes with G's result (``_quotient_order``) at
    a cost of O(|<x_J>| |J| + n |J|) lookups.  Before that, or where G is
    not Finite under the cap, each nonempty J is enumerated directly."""

    def __init__(self, m: GeneralizedCartanMatrix, max_cosets: int = DEFAULT_MAX_COSETS):
        self.m = m
        self.max_cosets = _checked_cap(max_cosets, "coset cap")
        self._presentations = {}
        self._full = None  # G's result, set by the first order(())

    def presentation(self, J) -> FpPresentation:
        J = vertex_subset(J, self.m.n)
        if J not in self._presentations:
            self._presentations[J] = flag_presentation(self.m, J)
        return self._presentations[J]

    def order(self, J) -> EnumerationResult:
        J = vertex_subset(J, self.m.n)
        if not J:
            if self._full is None:
                self._full = todd_coxeter(self.presentation(()), max_cosets=self.max_cosets)
            return self._full
        if self._full is not None and self._full.is_finite:
            return EnumerationResult.finite(_quotient_order(self._full.table, J))
        return todd_coxeter(self.presentation(J), max_cosets=self.max_cosets)


# ---------------------------------------------------------------------------
# Flag-group checks


@dataclass
class FlagCheck:
    """What ``check_flag`` found for the flag group at ``parabolic``: its
    abelian invariants, its order (Exhausted when the cap or a positive
    free rank left it open), the (name, status, detail) checks, and the
    closed form, the abelianization the components' colours predict (None
    when a component is blue)."""

    parabolic: tuple[int, ...]
    invariants: AbelianInvariants
    order: EnumerationResult
    checks: list
    closed_form: AbelianInvariants | None

    @property
    def passed(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(status == "inconclusive" for _, status, _ in self.checks)


def _colour_group(colour: str, size: int):
    """(order, abelianization) that a parity component of this colour and
    size predicts: C2^size for r; Z for g (a single vertex), order None;
    for b a 2-group of order 2^(size+1), abelianization None (not
    predicted)."""
    if colour == "r":
        return 2**size, AbelianInvariants(0, (2,) * size)
    if colour == "g":
        if size != 1:
            raise ValueError("a g-coloured component must be a single vertex")
        return None, AbelianInvariants(1, ())
    if colour == "b":
        return 2 ** (size + 1), None
    raise ValueError(f"unknown colour {colour!r}")


def check_flag(groups: FlagGroups, J, components) -> FlagCheck:
    """Abelianize and enumerate the flag group at J of ``groups`` and
    compare both against the product of what its parity components
    predict, given as (colour, size) pairs (``_colour_group``): a green one
    predicts an infinite group, a blue one no abelianization.  The closed
    form is the predicted abelianization, the direct sum of the
    components'; with a blue component there is none, and no
    abelianization check is made.  An exhausted enumeration yields an
    inconclusive order check, not a failure."""
    predictions = [_colour_group(colour, size) for colour, size in components]
    orders = [o for o, _ in predictions]
    predicted = [inv for _, inv in predictions]
    J = vertex_subset(J, groups.m.n)
    order = groups.order(J)
    invariants = abelianization(groups.presentation(J))
    if None in orders:
        status = "inconclusive" if not order.is_finite else "fail"
        detail = f"infinite group predicted; enumeration gave {order}"
    elif order.is_finite:
        expected_order = math.prod(orders)
        status = "pass" if order.order == expected_order else "fail"
        detail = f"expected {expected_order}, got {order.order}"
    else:
        status, detail = "inconclusive", f"expected {math.prod(orders)}, got {order}"
    checks = [("order", status, detail)]
    expected = None
    if None not in predicted:
        expected = _direct_sum(predicted)
        status = "pass" if invariants == expected else "fail"
        checks.append(("abelianization", status, f"expected {expected}, got {invariants}"))
    return FlagCheck(J, invariants, order, checks, expected)


@dataclass
class Verification:
    """What ``verify`` found: the parity graph it checked, one
    ``FlagCheck`` per component of it, aligned with ``graph.components``,
    then the whole-diagram checks, each a (name, status, detail) record
    like a component's; an empty detail means the check has none."""

    graph: AdmGraph
    components: list[FlagCheck]
    checks: list

    @property
    def result(self) -> str:
        """FAIL when a check failed, INCONCLUSIVE when a coset cap left one
        open, PASS otherwise."""
        statuses = [status for _, status, _ in self.checks]
        if "fail" in statuses or not all(v.passed for v in self.components):
            return "FAIL"
        # a green component's capped order check leaves nothing open
        colours = self.graph.colours
        if "inconclusive" in statuses or any(
            v.inconclusive for v, colour in zip(self.components, colours) if colour != "g"
        ):
            return "INCONCLUSIVE"
        return "PASS"


def verify(m: GeneralizedCartanMatrix, max_cosets: int = DEFAULT_MAX_COSETS) -> Verification:
    """The enumeration-side counterpart of ``pi1.full_report``:
    ``check_flag`` on the group of every parity component C of
    ``build_adm(m)``, the flag group at S - C, every vertex outside C
    killed, so the relators are the pair relators and killers alone; then
    the whole-diagram checks ``product_law_abelian`` (the full flag group
    abelianizes to the direct sum of the components'),
    ``presentation_routes`` (the all-pairs and two-skeleton presentations
    abelianize alike for the empty and every singleton parabolic) and,
    with no green component, ``product_law_order`` (the full flag group's
    order is the product of the components').

    Every flag group comes from one ``FlagGroups``, and the full flag
    group is asked for first: it is enumerated once, and each component's
    order is read off its table where it is Finite under the cap."""
    groups = FlagGroups(m, max_cosets)
    total = groups.order(())
    graph = build_adm(m)
    vertices = set(range(m.n))
    components = [
        check_flag(groups, vertices.difference(comp), [(colour, len(comp))])
        for comp, colour in zip(graph.components, graph.colours)
    ]
    observed = abelianization(groups.presentation(()))
    combined = _direct_sum(v.invariants for v in components)
    status = "pass" if observed == combined else "fail"
    checks = [("product_law_abelian", status, f"{observed} vs {combined}")]
    routes_agree = observed == abelianization(cw_presentation(m, ())) and all(
        abelianization(groups.presentation((k,)))
        == abelianization(cw_presentation(m, (k,)))
        for k in range(m.n)
    )
    checks.append(("presentation_routes", "pass" if routes_agree else "fail", ""))
    if "g" not in graph.colours:
        # a Finite total makes every component's order Finite; with the
        # total open there is no product to compare against
        if not total.is_finite:
            checks.append(("product_law_order", "inconclusive", "cap exhausted"))
        else:
            product = math.prod(v.order.order for v in components)
            status = "pass" if total.order == product else "fail"
            checks.append(("product_law_order", status, f"{total.order} vs {product}"))
    return Verification(graph, components, checks)
