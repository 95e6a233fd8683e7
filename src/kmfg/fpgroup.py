"""Finitely presented groups: presentations, abelianization, coset enumeration.

Words are tuples of (generator index, exponent) pairs with exponents +1 or
-1, freely reduced.  Relators pass one check (``_checked_word``): each
entry must be an integer by the library's one rule, ``cartan._index``, so
1.5, "1" or True is a ValueError, never truncated or converted, and each
generator in range by ``cartan._checked_index``.
Abelianization goes through an exact integer Smith normal form:
diagonalize, then normalize the diagonal with C_a x C_b =
C_gcd(a,b) x C_lcm(a,b), the one rule ``verify``'s direct sums share.
Every abelian group kmfg answers with, pi1's closed forms included, is an
``AbelianInvariants``: ``str`` gathers equal factors (Z^2 x C2^3), and
``flat`` writes each torsion factor out, the text of the check details
here and of the CLI's abelianization lines.  The groups the colours
predict, Z^a x C2^b, have one constructor, ``_z_c2``, which builds each
distinct value once.  A presentation is abelianized once: it keeps its
Smith normal form diagonal, which ``abelianization`` and the index bound
of ``todd_coxeter`` both read.
Coset enumeration has one entry, ``todd_coxeter``, which enumerates the
elements of the presented group G, the cosets of its trivial subgroup, so
a complete table is G's regular permutation representation.  It checks
the cap, applies the index bound and picks one of two strategies: HLT
with lookahead (default) or a deduction-driven strategy as an independent
alternate.  Each strategy only fills a table and returns it complete, or
None, and ``todd_coxeter`` alone makes the result: Finite(order) with that
table attached, or an explicit Exhausted, never a silent truncation.
Exhausted(cap) means the cap prevents a conclusion: the table filled, or
the order of G's abelianization, a lower bound on |G| read off the
presentation's kept Smith normal form diagonal before any table is built,
is infinite or already above the cap.  Each relator is scanned
once up to inversion (the enumerator drops repeats and inverses from its
own working list; presentations keep them), and a relator is traced before
it is scanned.  A trace from alpha stops one letter short, at f, and
closes on alpha's own row: a defined entry has its inverse beside it, so
f.last = alpha exactly when alpha.last^-1 = f.  ``todd_coxeter`` compacts
the table a strategy returns (one renumbering maps each kept row) and
certifies it once (``_closed``): every letter's column must be defined
throughout, and each generator's inverse column must undo its column, so
each letter acts as a permutation of the cosets.  A relator r = uv then
closes at every coset exactly when u and v^-1 induce the same
permutation, which composes about half as many columns as the whole of
r, each composition one ``operator.itemgetter`` call.  The columns cost
one tuple slot per coset per letter while the check runs.
Both strategies close every relator at every coset by construction, so a
table that fails the certificate is an InternalError, like a failed
normality test, and never a retry.  HLT makes one pass over the live
cosets (``_hlt_pass``), scanning every relator at each in turn and
defining every entry still open there before the next; its lookahead,
when the table fills, is the same pass with definitions switched off,
after which the rows its coincidences killed are freed.  The
deduction-driven strategy handles a deduction alpha.x = beta by tracing
the relator rotations that start with x at alpha, forward from beta and
closing on alpha's row, then back from alpha, and scanning one only where
its trace ends in a deduction or a coincidence.  Rotations of both r and
r^-1 are listed, so these cross the edge in every relator cycle through
it, each cycle once; the rotations that start with x^-1 at beta would
walk the same cycles backwards and are not traced.  It resumes its search
for the next undefined entry at the last coset that had one.

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
cap, each J is enumerated directly.  Where G's presentation is built and
J's is not, J is abelianized from G's distinct exponent rows plus the
unit rows of J, so J's relators are built only when J is enumerated.
``check_flag`` compares a flag group of a ``FlagGroups`` with what the
colours of the parity components outside its parabolic predict, which
depends only on how many components have each colour, the one check of
that kind, and returns the one record of a checked flag group, a
``FlagCheck``: parabolic, invariants, order, checks and the closed form,
the predicted abelianization.  Its ``order_status`` is the one rule for
what is known of the group's order, read off the group and not the
colours: "infinite" with a positive free rank, else the enumeration's
"finite" or "exhausted".  An order left open is an inconclusive check
only where the free rank is the green count; otherwise the check fails.
``verify`` makes a ``FlagCheck`` for every component C of
``build_adm(m)``, with C's colour there, on the flag group with every
vertex outside C killed, the one kind of group it enumerates, and keeps
the graph beside the records; ``pi1.pi1_flag`` makes one with the colours
of ``build_adm(m, J)`` and returns the record.  ``verify`` and
``pi1.full_report`` ask for G first, so each makes one enumeration per
diagram; ``pi1.pi1_flag`` asks for its own J only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter

from .adm import AdmGraph, build_adm
from .cartan import GeneralizedCartanMatrix, _checked_cap, _checked_index, _checked_int
from .cartan import _checked_tuple, _index, vertex_subset
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
    check of a relator.  An entry that is not an exact int
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
        # a string iterates as its characters, strings too, but is one name
        if isinstance(self.generator_names, str):
            raise ValueError(f"generator names {self.generator_names!r} is one string, not names")
        names = _checked_tuple(self.generator_names, "generator names")
        for name in names:
            if name.__class__ is not str:
                raise ValueError(f"generator name {name!r} is not a string")
        object.__setattr__(self, "generator_names", names)
        words = _checked_tuple(self.relators, "relators")
        relators = tuple(_checked_word(word, self.generator_count) for word in words)
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
        return tuple(smith_normal_form(self._exponent_rows))

    @cached_property
    def _exponent_rows(self) -> dict:
        """The distinct nonzero exponent-sum rows of the relators, in
        first-seen order (a dict's keys)."""
        rows = {}
        for word in self.relators:
            row = [0] * self.generator_count
            for gen, exp in word:
                row[gen] += exp
            if any(row):
                rows[tuple(row)] = None
        return rows


@dataclass(frozen=True)
class AbelianInvariants:
    """The finitely generated abelian group Z^free_rank x C_d1 x C_d2 x ...:
    a free rank, an int >= 0, plus torsion, a tuple of ints >= 2 in
    divisibility order d1 | d2 | ..., each by ``cartan._index``.  ``str``
    gathers equal factors (Z^2 x C2^3 x C4); ``flat`` writes each torsion
    factor out."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if _checked_int(self.free_rank, "free rank") < 0:
            raise ValueError(f"free rank must be >= 0, got {self.free_rank}")
        if self.torsion.__class__ is not tuple:
            raise ValueError(f"torsion {self.torsion!r} is not a tuple")
        for d in self.torsion:
            if _checked_int(d, "torsion entry") < 2:
                raise ValueError(f"torsion entry must be >= 2, got {d}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} not in divisibility order")

    def __str__(self):
        return self._text

    @cached_property
    def _text(self) -> str:
        """``str``'s text, built on first use and kept on the instance; not a
        field, so equality, hashing and repr ignore it."""
        t = self.torsion
        parts = self._free_part()
        for d in dict.fromkeys(t):
            k = t.count(d)
            parts.append(f"C{d}^{k}" if k > 1 else f"C{d}")
        return " x ".join(parts) or "1"

    def flat(self) -> str:
        """The group with each torsion factor written out: Z^2 x C2 x C2 x C4."""
        return " x ".join(self._free_part() + [f"C{d}" for d in self.torsion]) or "1"

    def _free_part(self) -> list[str]:
        free = self.free_rank
        return ["Z" if free == 1 else f"Z^{free}"] if free else []


@lru_cache(maxsize=1024)
def _z_c2(free_rank: int, c2_count: int) -> AbelianInvariants:
    """Z^free_rank x C2^c2_count, the one constructor of the groups the
    colours predict: pi1(G), the spin covers and each flag group's closed
    form.  A spin listing makes one per colouring, so each distinct value is
    built once, and the cache is bounded for a process that meets many
    ranks."""
    return AbelianInvariants(free_rank, (2,) * c2_count)


@dataclass(frozen=True)
class EnumerationResult:
    """What a coset enumeration found.  A Finite result of ``todd_coxeter``
    carries the closed table that certifies its order: row 0 is the
    identity and entry [k][x] is coset k times letter x (letter 2*i is
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


def abelianization(presentation: FpPresentation) -> AbelianInvariants:
    """The abelian invariants read off the presentation's Smith normal
    form diagonal."""
    return _invariants(presentation.generator_count, presentation.smith_diagonal)


def _invariants(count, diag) -> AbelianInvariants:
    return AbelianInvariants(free_rank=count - len(diag), torsion=tuple(d for d in diag if d > 1))


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
    Dead cosets are tracked by a union-find array; coset 0 (the identity)
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
            while i <= j:
                g = table[f][word[i]]
                if g is None:
                    break
                f = g
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                g = table[b][word[j] ^ 1]
                if g is None:
                    break
                b = g
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
        how many rows were dropped.  One renumbering, which also keeps an
        undefined entry undefined, maps each kept row in one C-level map."""
        live = [i for i, parent in enumerate(self.p) if parent == i]
        dropped = len(self.p) - len(live)
        if not dropped:
            return 0
        # the new number of every coset, dead ones through their representative
        renumber = dict(zip(live, range(len(live))))
        for k, parent in enumerate(self.p):
            if parent != k:
                renumber[k] = renumber[self.rep(k)]
        renumber[None] = None
        table = self.table
        self.table = [list(map(renumber.__getitem__, table[i])) for i in live]
        self.p = list(range(len(live)))
        return dropped


def _word_to_letters(word) -> tuple[int, ...]:
    return tuple(2 * gen + (0 if exp == 1 else 1) for gen, exp in word)


def _letters_inverse(letters) -> tuple[int, ...]:
    return tuple(x ^ 1 for x in reversed(letters))


def todd_coxeter(
    presentation: FpPresentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    strategy: str = "hlt",
) -> EnumerationResult:
    """Enumerate the elements of the presented group G, the one entry to
    the coset enumerator.

    Finite(k) is returned only once the table is complete and certified
    closed under every relator at every coset (``_closed``, run once on
    the compacted table), in which case k is the exact order of G, and the
    result carries that table, G's regular permutation representation.  A
    complete table that fails the certificate raises InternalError naming
    the strategy: both close every relator by construction, so the failure
    is a bug, not a property of the presentation.
    Exhausted(max_cosets) means the cap prevents a conclusion: either the
    table filled, or, before any table is built, the order of G's
    abelianization, read off the presentation's kept Smith normal form
    diagonal, is infinite or above the cap.  That order bounds |G| from
    below and a Finite(k) needs k rows, so no table of max_cosets rows
    could have closed.

    Each relator is scanned once up to inversion: one equal to an earlier
    relator or to the inverse of one is dropped from the working list,
    since on a consistent table r closes at a coset exactly when r^-1 does
    (r^-1 walks the same cycle backwards).
    """
    max_cosets = _checked_cap(max_cosets, "coset cap")
    count = presentation.generator_count
    if strategy == "hlt":
        enumerate_table = _hlt_table
    elif strategy == "felsch":
        enumerate_table = _felsch_table
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # |G| >= |G^ab|, the product of the diagonal (infinite when short)
    diag = presentation.smith_diagonal
    if len(diag) < count or math.prod(diag) > max_cosets:
        return EnumerationResult.exhausted(max_cosets)
    relators = []
    seen = set()
    for word in presentation.relators:
        letters = _word_to_letters(word)
        if letters and letters not in seen:
            seen.add(letters)
            seen.add(_letters_inverse(letters))
            relators.append(letters)
    ct = enumerate_table(count, relators, max_cosets)
    if ct is None:
        return EnumerationResult.exhausted(max_cosets)
    ct.compact()
    if not _closed(ct.table, relators):
        raise InternalError(f"the {strategy} coset table does not close every relator at every coset")
    return EnumerationResult.finite(len(ct.table), ct.table)


def _closed(table, relators) -> bool:
    """Whether a compacted table is complete and every relator closes at
    every coset; the table is only read.  Each letter's column is built
    once, as a tuple (reading whole columns keeps the accesses sequential).
    Every column must be defined throughout, and each generator's inverse
    column must undo its column, which makes every column a permutation
    with its inverse beside it.  A relator r = uv then closes at coset k
    exactly when k.u = k.v^-1, so each relator is checked by composing its
    two halves, a half's first letter read straight off its column.
    Columns compose by ``operator.itemgetter``, which returns a bare item,
    not a tuple, for one index, so a one-row table is checked apart: every
    letter must fix its one coset, and then every relator closes."""
    if len(table) == 1:
        return all(entry == 0 for entry in table[0])
    columns = list(zip(*table))
    if any(None in column for column in columns):
        return False
    identity = tuple(range(len(table)))
    for x in range(0, len(columns), 2):
        if itemgetter(*columns[x])(columns[x + 1]) != identity:
            return False
    for rel in relators:
        half = len(rel) // 2
        if _image(columns, identity, rel[:half]) != _image(
            columns, identity, _letters_inverse(rel[half:])
        ):
            return False
    return True


def _image(columns, identity, letters) -> tuple:
    """The coset each coset reaches along ``letters``, as a tuple."""
    if not letters:
        return identity
    image = columns[letters[0]]
    for x in letters[1:]:
        image = itemgetter(*image)(columns[x])
    return image


def _hlt_pass(ct, relators, fill):
    """One HLT pass over the live cosets in order: every relator is traced
    at each and scanned where its trace does not close, and with ``fill``
    the scans define cosets and every entry still open at a live coset is
    defined before the next.  Without ``fill`` the pass is the lookahead:
    only deductions and coincidences, so the table does not grow.  A trace
    stops one letter short, at f, and closes on alpha's row, read once."""
    table = ct.table
    p = ct.p
    traces = [(rel, rel[:-1], rel[-1] ^ 1) for rel in relators]
    alpha = 0
    while alpha < len(table):
        if p[alpha] == alpha:
            row = table[alpha]
            for rel, body, back in traces:
                # trace first; scan only where the trace does not close,
                # and only a scan can kill alpha
                f = alpha
                for x in body:
                    f = table[f][x]
                    if f is None:
                        break
                else:
                    if f == row[back]:
                        continue
                ct.scan(alpha, rel, fill)
                if p[alpha] != alpha:
                    break
            if fill and p[alpha] == alpha:
                for x in range(ct.width):
                    if row[x] is None:
                        ct.define(alpha, x)
        alpha += 1


def _hlt_table(ngens, relators, max_cosets):
    """HLT with lookahead: the complete table, every relator closed at
    every live coset, or None when the cap prevents one.  Each live coset
    has every relator scanned at it before the next, and coincidences map
    closed relator cycles to closed ones."""
    ct = _CosetTable(ngens, max_cosets)
    while True:
        try:
            _hlt_pass(ct, relators, fill=True)
            return ct
        except _TableFull:
            # lookahead: collapse what can be collapsed, then reclaim the
            # dead rows; with none dead there is nothing to reclaim
            _hlt_pass(ct, relators, fill=False)
            if not ct.compact():
                return None
            # rescan from the start (already-closed scans cost one trace)


def _rotations_by_letter(ngens, relators) -> dict:
    """The distinct nonempty rotations of every relator and of its inverse,
    listed under their first letter."""
    by_letter = {x: [] for x in range(2 * ngens)}
    seen = set()
    for rel in relators:
        for base in (rel, _letters_inverse(rel)):
            for k in range(len(base)):
                rotation = base[k:] + base[:k]
                if rotation not in seen:
                    seen.add(rotation)
                    by_letter[rotation[0]].append(rotation)
    return by_letter


def _felsch_table(ngens, relators, max_cosets):
    """Felsch: the complete table, every relator closed at every live
    coset, or None when the table fills.  Every entry it sets is a
    deduction, and processing one traces every relator cycle through it."""
    ct = _CosetTable(ngens, max_cosets, record_deductions=True)
    by_letter = _rotations_by_letter(ngens, relators)
    table = ct.table
    p = ct.p

    def process_deductions():
        # by_letter holds the rotations of r and of r^-1, so the words that
        # start with x at alpha cross the edge alpha.x = beta in every relator
        # cycle through it, in one direction or the other; the words that
        # start with x^-1 at beta would walk the same cycles backwards.  Each
        # is traced forward, then back; it is scanned only where the trace
        # closes on another coset (a coincidence) or leaves a gap of one
        # letter (a deduction), the scans that change the table
        while ct.deductions:
            alpha, x = ct.deductions.pop()
            alpha = ct.rep(alpha)
            row = table[alpha]
            for word in by_letter[x]:
                # every word starts with x, so its trace starts at beta =
                # alpha.x; a killer closes exactly when beta is alpha
                f = row[x]
                i = 1
                j = len(word) - 1
                while i < j:
                    g = table[f][word[i]]
                    if g is None:
                        break
                    f = g
                    i += 1
                if i >= j:
                    if f == (row[word[j] ^ 1] if j else alpha):
                        continue
                else:
                    b = alpha
                    while j > i:
                        g = table[b][word[j] ^ 1]
                        if g is None:
                            break
                        b = g
                        j -= 1
                    if j > i:
                        continue
                ct.scan(alpha, word, fill=False)
                # only a scan can kill alpha
                if p[alpha] != alpha:
                    break

    try:
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
    coset cap, the one way to a flag group's presentation, order and
    abelianization: each presentation is built once, and the full flag
    group G (J empty) is enumerated at most once, by ``todd_coxeter``, its
    result kept.

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
        self._abelianizations = {}
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

    def abelianization(self, J) -> AbelianInvariants:
        """The abelian invariants at J, kept per J.  Where G's presentation
        is built and J's is not, J's exponent rows are G's distinct rows
        plus the unit rows e_k for k in J, so J's relators are neither built
        nor checked; otherwise J's presentation reads its own kept diagonal."""
        J = vertex_subset(J, self.m.n)
        if J not in self._abelianizations:
            n = self.m.n
            if () in self._presentations and J not in self._presentations:
                rows = dict(self._presentations[()]._exponent_rows)
                rows.update((tuple(int(v == k) for v in range(n)), None) for k in J)
                self._abelianizations[J] = _invariants(n, smith_normal_form(rows))
            else:
                self._abelianizations[J] = abelianization(self.presentation(J))
        return self._abelianizations[J]


# ---------------------------------------------------------------------------
# Flag-group checks


@dataclass
class FlagCheck:
    """What ``check_flag`` found for the flag group at ``parabolic``: its
    abelian invariants, its order (Exhausted when the cap or a positive
    free rank left it open), the (name, status, detail) checks, and the
    closed form, the abelianization the components' colours predict (None
    when a component is blue).  ``order_status`` is kmfg's one definition
    of what is known of a flag group's order, and it reads no colour."""

    parabolic: tuple[int, ...]
    invariants: AbelianInvariants
    order: EnumerationResult
    checks: list
    closed_form: AbelianInvariants | None

    @property
    def passed(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    @property
    def order_status(self) -> str:
        """What is known of the group's order, read off the group alone:
        "infinite" with a positive free rank, else the enumeration's
        "finite" or "exhausted"."""
        return "infinite" if self.invariants.free_rank else self.order.status


def check_flag(groups: FlagGroups, J, colours) -> FlagCheck:
    """Abelianize and enumerate the flag group at J of ``groups`` and
    compare both against what the colours of the parity components on the
    vertices outside J predict.  A red component predicts C2 per vertex, a
    blue one a 2-group of order 2^(size+1) and no abelianization, a green
    one (a single vertex) Z, so only the number of each colour counts: with
    no green component the order is 2^(n - |J| + #blue), and with no blue
    one the abelianization, the closed form, is Z^#green x C2^(n - |J| -
    #green).  With a green component the group is infinite, and with a blue
    one there is no closed form and no abelianization check.  An order the
    enumeration leaves open makes the order check inconclusive when the
    computed free rank is the number of green components, and fails it,
    naming the free rank, otherwise: every green component gives a Z, and
    red and blue ones finite 2-groups."""
    colours = _checked_tuple(colours, "colours")
    for colour in colours:
        if colour not in ("r", "g", "b"):
            raise ValueError(f"unknown colour {colour!r}")
    J = vertex_subset(J, groups.m.n)
    order = groups.order(J)
    invariants = groups.abelianization(J)
    outside, green, blue = groups.m.n - len(J), colours.count("g"), colours.count("b")
    if green:
        expected_order, detail = None, f"infinite group predicted; enumeration gave {order}"
    else:
        expected_order = 2 ** (outside + blue)
        detail = f"expected {expected_order}, got {order.order if order.is_finite else order}"
    if order.is_finite:
        status = "pass" if order.order == expected_order else "fail"
    elif invariants.free_rank == green:
        status = "inconclusive"
    else:
        status, detail = "fail", f"{detail}; free rank {invariants.free_rank}"
    checks = [("order", status, detail)]
    expected = None
    if not blue:
        expected = _z_c2(green, outside - green)
        status = "pass" if invariants == expected else "fail"
        detail = f"expected {expected.flat()}, got {invariants.flat()}"
        checks.append(("abelianization", status, detail))
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
        """FAIL when a check failed, INCONCLUSIVE when a coset cap left a
        check or a component's ``order_status`` open, PASS otherwise."""
        statuses = [status for _, status, _ in self.checks]
        if "fail" in statuses or not all(v.passed for v in self.components):
            return "FAIL"
        exhausted = any(v.order_status == "exhausted" for v in self.components)
        if "inconclusive" in statuses or exhausted:
            return "INCONCLUSIVE"
        return "PASS"


def verify(m: GeneralizedCartanMatrix, max_cosets: int = DEFAULT_MAX_COSETS) -> Verification:
    """The enumeration-side counterpart of ``pi1.full_report``:
    ``check_flag`` on the group of every parity component C of
    ``build_adm(m)``, with C's colour there, the flag group at S - C,
    every vertex outside C killed, so the relators are the pair relators
    and killers alone; then the whole-diagram checks
    ``product_law_abelian`` (the full flag group abelianizes to the direct
    sum of the components'), ``presentation_routes`` (the all-pairs and
    two-skeleton presentations abelianize alike for the empty and every
    singleton parabolic) and, with no green component,
    ``product_law_order`` (the full flag group's order is the product of
    the components').

    Every flag group comes from one ``FlagGroups``, and the full flag
    group is asked for first: it is enumerated once, and each component's
    order is read off its table where it is Finite under the cap."""
    groups = FlagGroups(m, max_cosets)
    total = groups.order(())
    graph = build_adm(m)
    vertices = set(range(m.n))
    components = [
        check_flag(groups, vertices.difference(comp), (colour,))
        for comp, colour in zip(graph.components, graph.colours)
    ]
    observed = groups.abelianization(())
    combined = _direct_sum(v.invariants for v in components)
    status = "pass" if observed == combined else "fail"
    checks = [("product_law_abelian", status, f"{observed.flat()} vs {combined.flat()}")]
    routes_agree = observed == abelianization(cw_presentation(m, ())) and all(
        groups.abelianization((k,)) == abelianization(cw_presentation(m, (k,)))
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
