import itertools
import random

import pytest

import kmfg.adm
import kmfg.fpgroup
from kmfg import (
    AbelianInvariants,
    EnumerationResult,
    FpPresentation,
    GeneralizedCartanMatrix,
    WeylGroup,
    abelianization,
    build_adm,
    check_flag,
    cw_presentation,
    flag_presentation,
    from_named,
    full_report,
    pi1_flag,
    smith_normal_form,
    todd_coxeter,
    verify,
)
from kmfg.cartan import vertex_subset
from kmfg.errors import InternalError
from kmfg.fpgroup import (
    FlagGroups,
    _closed,
    _CosetTable,
    _hlt_pass,
    _quotient_order,
    _subgroup_orbit,
    _word_to_letters,
    free_reduce,
)

from oracles import minors_gcd_invariant_factors, relator_closes


CORPUS_RANK_LE_5 = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5", "D4", "D5", "F4", "G2",
]

# every named diagram of rank at most 8, finite and affine
NAMED_RANK_LE_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
    + [f"A{n}~" for n in range(1, 8)] + [f"B{n}~" for n in range(3, 8)]
    + [f"C{n}~" for n in range(2, 8)] + [f"D{n}~" for n in range(4, 8)]
    + ["E6~", "E7~", "F4~", "G2~"]
)


class TestPresentation:
    def test_free_reduce(self):
        assert free_reduce(((0, 1), (0, -1), (1, 1))) == ((1, 1),)
        assert free_reduce(((0, 1), (1, 1), (1, -1), (0, -1))) == ()

    def test_rejects_unreduced_relator(self):
        with pytest.raises(ValueError):
            FpPresentation(("x",), (((0, 1), (0, -1)),))
        # a cancellation past the first letter is found too
        message = r"^relator \(\(0, 1\), \(1, 1\), \(1, -1\)\) is not freely reduced$"
        with pytest.raises(ValueError, match=message):
            FpPresentation(("a", "b"), (((0, 1), (1, 1), (1, -1)),))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            FpPresentation(("x",), (((1, 1),),))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            FpPresentation(("x",), (((0, 2),),))

    @pytest.mark.parametrize(
        "pair", [(0, 1.5), (0.5, 1), (0.0, 1), ("0", 1), (0, "1"), (0, True), (False, 1)]
    )
    def test_rejects_non_integer_entries(self, pair):
        # entries follow the library's one integer rule: 1.5 is refused, not
        # truncated to 1, the string "1" is refused, not converted, and a
        # bool is refused as a vertex or a cap is
        with pytest.raises(ValueError, match="not a sequence of integer pairs"):
            FpPresentation(("a",), ((pair,),))

    def test_keeps_integer_entries(self):
        assert FpPresentation(("a",), ([[0, -1]],)).relators == (((0, -1),),)


class TestSmithNormalForm:
    def test_known_small_cases(self):
        assert smith_normal_form([[0, -2], [-2, 0]]) == [2, 2]
        assert smith_normal_form([[2]]) == [2]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[2, 4], [4, 8]]) == [2]
        assert smith_normal_form([]) == []
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([[6, 0], [0, 4]]) == [2, 12]

    def test_divisibility_chain(self):
        rng = random.Random(31)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            diag = smith_normal_form(mat)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_against_determinant_divisor_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(mat) == minors_gcd_invariant_factors(mat)


class TestAbelianization:
    def test_free_group(self):
        p = FpPresentation(("x",), ())
        assert abelianization(p) == AbelianInvariants(1, ())

    def test_c2(self):
        p = FpPresentation(("x",), (((0, 1), (0, 1)),))
        assert abelianization(p) == AbelianInvariants(0, (2,))

    def test_h_a2(self):
        p = flag_presentation(from_named("A2"), ())
        assert abelianization(p) == AbelianInvariants(0, (2, 2))

    def test_invariant_under_relator_shuffles(self):
        rng = random.Random(53)
        base = flag_presentation(from_named("B3"), (0,))
        reference = abelianization(base)
        for _ in range(10):
            relators = list(base.relators)
            rng.shuffle(relators)
            relators = [
                tuple((g, -e) for g, e in reversed(word)) if rng.random() < 0.5 else word
                for word in relators
            ]
            shuffled = FpPresentation(base.generator_names, tuple(relators))
            assert abelianization(shuffled) == reference

    def test_rejects_broken_torsion_order(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 2))

    @pytest.mark.parametrize(
        "free_rank, torsion",
        [(0, (1,)), (-1, ()), (1.5, ()), (True, ()), (0, (2, -2)), (0, [2]), (0, (2.0,))],
    )
    def test_rejects_values_that_are_not_invariants(self, free_rank, torsion):
        # C1 would print "C1" and differ from the trivial group; Z^-1, Z^1.5
        # and C-2 name no group, and True is not taken for 1
        with pytest.raises(ValueError):
            AbelianInvariants(free_rank, torsion)

    @pytest.mark.parametrize(
        "free_rank, torsion, gathered, flat",
        [
            (2, (2, 2, 4, 12), "Z^2 x C2^2 x C4 x C12", "Z^2 x C2 x C2 x C4 x C12"),
            (1, (2,) * 3, "Z x C2^3", "Z x C2 x C2 x C2"),
            (0, (3,), "C3", "C3"),
            (0, (), "1", "1"),
        ],
    )
    def test_text_forms(self, free_rank, torsion, gathered, flat):
        value = AbelianInvariants(free_rank, torsion)
        assert str(value) == gathered
        assert value.flat() == flat

    @pytest.mark.parametrize("free_rank", range(4))
    @pytest.mark.parametrize("c2_count", [0, 1, 2, 5])
    def test_kept_text_is_the_fresh_text(self, free_rank, c2_count):
        # _z_c2's shared value keeps its str text once built; a fresh value
        # has none until asked, and equality, hashing and repr read only
        # the fields
        shared = kmfg.fpgroup._z_c2(free_rank, c2_count)
        text = str(shared)
        fresh = AbelianInvariants(free_rank, (2,) * c2_count)
        assert "_text" in vars(shared) and "_text" not in vars(fresh)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert repr(shared) == repr(fresh) == (
            f"AbelianInvariants(free_rank={free_rank}, torsion={(2,) * c2_count!r})"
        )
        assert text == str(fresh) and shared.flat() == fresh.flat()
        assert str(shared) is text


class TestToddCoxeter:
    def test_cyclic_two(self):
        p = FpPresentation(("x",), (((0, 1), (0, 1)),))
        assert todd_coxeter(p) == EnumerationResult.finite(2)

    def test_h_a2_order_eight(self):
        p = flag_presentation(from_named("A2"), ())
        assert todd_coxeter(p) == EnumerationResult.finite(8)

    def test_free_group_exhausts(self):
        p = FpPresentation(("x",), ())
        result = todd_coxeter(p, max_cosets=1000)
        assert result == EnumerationResult.exhausted(1000)

    @pytest.mark.parametrize("strategy", ["hlt", "felsch"])
    def test_finite_result_carries_its_table(self, strategy):
        # S3 = <a, b | a^2, b^2, (ab)^3>; equality, hashing and repr read
        # the order alone, and the table is the closed one that certifies it
        a, b = (0, 1), (1, 1)
        s3 = FpPresentation(("a", "b"), ((a, a), (b, b), (a, b) * 3))
        result = todd_coxeter(s3, strategy=strategy)
        assert result == EnumerationResult.finite(6)
        assert hash(result) == hash(EnumerationResult.finite(6))
        assert repr(result) == "EnumerationResult(status='finite', order=6, limit=None)"
        assert len(result.table) == 6
        assert all(
            relator_closes(result.table, alpha, _word_to_letters(w))
            for alpha in range(6)
            for w in s3.relators
        )
        # the table fills at 5 rows; the free group stops at the guard
        filled = todd_coxeter(s3, max_cosets=5, strategy=strategy)
        assert filled == EnumerationResult.exhausted(5)
        assert filled.table is None
        assert todd_coxeter(FpPresentation(("x",), ()), strategy=strategy).table is None

    def test_strategies_agree(self):
        # the group of each parity component, every vertex outside it killed
        presentations = [
            flag_presentation(m, set(range(m.n)).difference(comp))
            for m in map(from_named, ("A2", "A3", "B3", "F4"))
            for comp in build_adm(m).components
        ] + [
            flag_presentation(from_named("B3"), ()),
            flag_presentation(from_named("A4"), (1, 3)),
        ]
        for p in presentations:
            hlt = todd_coxeter(p, strategy="hlt")
            felsch = todd_coxeter(p, strategy="felsch")
            assert hlt.is_finite and felsch.is_finite
            assert hlt.order == felsch.order

    def test_unknown_strategy(self):
        p = FpPresentation(("x",), ())
        with pytest.raises(ValueError):
            todd_coxeter(p, strategy="ace")

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_dihedral_family(self, n):
        a, b = (0, 1), (1, 1)
        p = FpPresentation(("a", "b"), ((a, a), (b, b), (a, b) * n))
        for strategy in ("hlt", "felsch"):
            assert todd_coxeter(p, strategy=strategy).order == 2 * n

    def test_icosahedral_group(self):
        # <a, b | a^2, b^3, (ab)^5> has order 60
        a, b = (0, 1), (1, 1)
        p = FpPresentation(("a", "b"), ((a, a), (b, b, b), (a, b) * 5))
        for strategy in ("hlt", "felsch"):
            assert todd_coxeter(p, strategy=strategy).order == 60

    def test_quaternion_like_collapse(self):
        # <a, b | abab^-1, a^2 b^-2> is order 8 (quaternion); both of its
        # visible relators overlap heavily, a good coincidence workout
        a, b = (0, 1), (1, 1)
        ai, bi = (0, -1), (1, -1)
        p = FpPresentation(("a", "b"), ((a, b, a, bi), (a, a, bi, bi)))
        for strategy in ("hlt", "felsch"):
            assert todd_coxeter(p, strategy=strategy).order == 8

    def test_lookahead_recovers_space(self):
        # collapses to the trivial group; tiny caps force the lookahead path
        p = FpPresentation(("x",), (((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 1))))
        assert todd_coxeter(p, max_cosets=4) == EnumerationResult.finite(1)

    def test_lookahead_reclaims_dead_cosets(self, monkeypatch):
        # S3 needs 7 rows before its coincidences; at cap 7 it finishes
        # only because the lookahead reclaims the dead rows
        a, b = (0, 1), (1, 1)
        p = FpPresentation(("a", "b"), ((a, a), (b, b), (a, b) * 3))
        assert todd_coxeter(p, max_cosets=7) == EnumerationResult.finite(6)
        # the full flag groups of A3, A5 and A8, of order 2^(n+1), one row
        # above their order: each fills its table and finishes only after
        # 2, 3 and 7 lookahead passes, the HLT passes made without fill
        lookaheads = []

        def counting(ct, relators, fill):
            lookaheads.append(fill)
            _hlt_pass(ct, relators, fill)

        monkeypatch.setattr(kmfg.fpgroup, "_hlt_pass", counting)
        for n, passes in ((3, 2), (5, 3), (8, 7)):
            lookaheads.clear()
            p = flag_presentation(from_named(f"A{n}"), ())
            order = 2 ** (n + 1)
            assert todd_coxeter(p, max_cosets=order + 1) == EnumerationResult.finite(order)
            assert lookaheads.count(False) == passes

    def test_lookahead_exhausts_without_dead_cosets(self):
        # the infinite dihedral group abelianizes to C2 x C2, so the table
        # fills; the lookahead finds nothing to reclaim and reports the cap
        a, b = (0, 1), (1, 1)
        p = FpPresentation(("a", "b"), ((a, a), (b, b)))
        assert todd_coxeter(p, max_cosets=50_000) == EnumerationResult.exhausted(50_000)

    def test_free_abelianization_stops_before_any_table(self, coset_tables):
        # <x, y | > abelianizes to Z^2: no index is finite, so no strategy runs
        p = FpPresentation(("x", "y"), ())
        for strategy in ("hlt", "felsch"):
            assert todd_coxeter(
                p, max_cosets=50_000, strategy=strategy
            ) == EnumerationResult.exhausted(50_000)
        assert coset_tables == []

    def test_infinite_full_flag_stops_at_once(self):
        # C4~ has a green vertex, so its full flag group abelianizes with a
        # free factor; the HLT lookahead used to take a dozen rounds here
        p = flag_presentation(from_named("C4~"), ())
        assert todd_coxeter(p) == EnumerationResult.exhausted(100_000)

    def test_felsch_a8_full_flag(self):
        m = from_named("A8")
        perm = list(range(m.n))
        random.Random(8).shuffle(perm)
        moved = GeneralizedCartanMatrix(
            tuple(
                tuple(m.entry(perm[i], perm[j]) for j in range(m.n))
                for i in range(m.n)
            )
        )
        for gcm in (m, moved):
            p = flag_presentation(gcm, ())
            felsch = todd_coxeter(p, strategy="felsch")
            assert felsch == EnumerationResult.finite(512)
            assert todd_coxeter(p, strategy="hlt") == felsch

    def test_felsch_scans_each_cycle_once(self, monkeypatch):
        # a work count, not a timing: each deduction traces the relator
        # cycles through its edge once, from one end, and scans only the
        # traces that end in a deduction or a coincidence.  Counted here:
        # every rotation traced plus every scan, 73,144 + 3,585 on A8;
        # tracing or scanning the cycles again from the other end as well
        # made 146,288 scans when each rotation was scanned
        scans = []
        traced = []

        class Counting(kmfg.fpgroup._CosetTable):
            def scan(self, alpha, word, fill):
                scans.append(None)
                return super().scan(alpha, word, fill)

        class Traced(list):
            def __iter__(self):
                for word in super().__iter__():
                    traced.append(None)
                    yield word

        rotations = kmfg.fpgroup._rotations_by_letter
        monkeypatch.setattr(kmfg.fpgroup, "_CosetTable", Counting)
        monkeypatch.setattr(
            kmfg.fpgroup,
            "_rotations_by_letter",
            lambda ngens, relators: {
                x: Traced(words) for x, words in rotations(ngens, relators).items()
            },
        )
        p = flag_presentation(from_named("A8"), ())
        assert todd_coxeter(p, strategy="felsch") == EnumerationResult.finite(512)
        assert len(traced) + len(scans) <= 76_729


def _hand_table(rows) -> _CosetTable:
    """A coset table with the given rows, every one of them live."""
    ct = _CosetTable(len(rows[0]) // 2, 100)
    ct.table = [list(row) for row in rows]
    ct.p = list(range(len(rows)))
    return ct


class TestClosureCertificate:
    """``_closed`` certifies a complete compacted table by checking that
    each inverse column undoes its column, then comparing, per relator, the
    permutations its two halves induce on the cosets; ``todd_coxeter`` runs
    it once per Finite result, and a table that fails it is an
    InternalError."""

    A, B = (0, 1), (1, 1)
    S3 = FpPresentation(("a", "b"), ((A, A), (B, B), (A, B) * 3))
    S3_RELATORS = [_word_to_letters(w) for w in S3.relators]
    # S3 on the cosets of <a>: a = (1 2), b = (0 1); columns a, a^-1, b, b^-1
    S3_ON_THREE = [[0, 0, 1, 1], [2, 2, 0, 0], [1, 1, 2, 2]]

    def test_closed_permutation_table(self):
        assert _closed(self.S3_ON_THREE, self.S3_RELATORS)

    # a = (0 1 2) and b the identity; columns a, a^-1, b, b^-1
    CYCLE_AND_IDENTITY = [[1, 2, 0, 0], [2, 0, 1, 1], [0, 1, 2, 2]]
    A_INV = (0, -1)

    @pytest.mark.parametrize(
        "word, closes",
        [
            ((B,), True),
            ((A,), False),
            ((A, A, A), True),
            ((A_INV, B, A), True),
            ((A, B, A), False),
            ((A, A, B), False),
            ((A, B, A, B, A), True),
            ((A, A, A, B, B), True),
            ((A, B, B, B, B), False),
            ((A, A, B, A, A), False),
        ],
    )
    def test_odd_length_relators(self, word, closes):
        # the halves of an odd relator differ in length by one letter
        rows = self.CYCLE_AND_IDENTITY
        letters = _word_to_letters(word)
        traced = all(relator_closes(rows, g, letters) for g in range(3))
        assert _closed(rows, [letters]) == traced == closes

    def test_inverse_column_must_undo_its_column(self):
        # <a | a^3> on three cosets with a = (0 1 2), but the a^-1 column a
        # copy of the a column: tracing a^3 closes at every coset and so does
        # the composition of its letters, yet a^-1 a moves every coset
        rows = [[1, 1], [2, 2], [0, 0]]
        cube = _word_to_letters((self.A,) * 3)
        assert all(relator_closes(rows, g, cube) for g in range(3))
        assert not _closed(rows, [cube])
        assert _closed([[1, 2], [2, 0], [0, 1]], [cube])

    def test_undefined_entry_at_a_live_coset(self):
        rows = [list(row) for row in self.S3_ON_THREE]
        rows[2][3] = None
        assert not _closed(rows, self.S3_RELATORS)

    def test_one_relator_open_at_the_fewest_cosets(self):
        # a relator of a complete table acts as a permutation, so one that
        # moves any coset moves at least two; the killer a moves exactly
        # cosets 1 and 2 while every relator of S3 closes everywhere
        rows = self.S3_ON_THREE
        killer = _word_to_letters((self.A,))
        assert [relator_closes(rows, g, killer) for g in range(3)] == [True, False, False]
        assert not _closed(rows, self.S3_RELATORS + [killer])

    @pytest.mark.parametrize("strategy", ["hlt", "felsch"])
    @pytest.mark.parametrize(
        "names, relators", [(("a",), ((A,),)), (("a", "b"), ((A,), (B,)))], ids=["a|a", "ab|a,b"]
    )
    def test_trivial_group_certifies_its_one_row(self, strategy, names, relators):
        # itemgetter of one index returns a bare item, not a tuple, so the
        # certificate checks a one-row table apart
        result = todd_coxeter(FpPresentation(names, relators), strategy=strategy)
        assert result == EnumerationResult.finite(1)
        assert result.table == [[0] * (2 * len(names))]

    @pytest.mark.parametrize(
        "rows", [[[0, 0, None, None]], [[0, 0, 0, None]], [[1, 1, 0, 0]]], ids=repr
    )
    def test_one_row_table_that_does_not_close(self, rows):
        # b undefined, b^-1 undefined, or a leading out of the one coset
        relators = [_word_to_letters((self.A,)), _word_to_letters((self.B,))]
        assert not _closed(rows, relators)
        assert _closed([[0, 0, 0, 0]], relators)

    @pytest.mark.parametrize("strategy", ["hlt", "felsch"])
    def test_no_generators(self, strategy):
        result = todd_coxeter(FpPresentation((), ()), strategy=strategy)
        assert result == EnumerationResult.finite(1)
        assert result.table == [[]]

    @pytest.mark.parametrize("strategy", ["hlt", "felsch"])
    def test_empty_relator_closes_everywhere(self, strategy):
        # the empty relator has no last letter to close on; it closes at
        # every coset and is left out of the working list
        square = FpPresentation(("a",), ((self.A, self.A),))
        padded = FpPresentation(("a",), ((), (self.A, self.A), ()))
        expected = todd_coxeter(square, strategy=strategy)
        result = todd_coxeter(padded, strategy=strategy)
        assert result == expected == EnumerationResult.finite(2)
        assert result.table == expected.table

    def test_certifies_a_table_with_dead_rows(self, monkeypatch):
        # at the default cap HLT completes S3 in 8 rows, 2 of them dead;
        # todd_coxeter compacts them away, then certifies the 6 left
        seen = []

        class Spy(_CosetTable):
            def compact(self):
                rows = len(self.table)
                dropped = super().compact()
                seen.append(("compact", rows, dropped, len(self.table)))
                return dropped

        def closed(table, relators):
            seen.append(("closed", len(table), _closed(table, relators)))
            return seen[-1][2]

        monkeypatch.setattr(kmfg.fpgroup, "_CosetTable", Spy)
        monkeypatch.setattr(kmfg.fpgroup, "_closed", closed)
        assert todd_coxeter(self.S3) == EnumerationResult.finite(6)
        assert seen == [("compact", 8, 2, 6), ("closed", 6, True)]

    @pytest.mark.parametrize("strategy", ["hlt", "felsch"])
    def test_failed_certificate_is_an_internal_error(self, monkeypatch, strategy):
        # both strategies close every relator by construction, so a table
        # that fails the certificate is a bug: no retry, no lookahead pass
        lookaheads = []

        def counting(ct, relators, fill):
            if not fill:
                lookaheads.append(None)
            _hlt_pass(ct, relators, fill)

        monkeypatch.setattr(kmfg.fpgroup, "_closed", lambda table, relators: False)
        monkeypatch.setattr(kmfg.fpgroup, "_hlt_pass", counting)
        icosahedral = FpPresentation(
            ("a", "b"), ((self.A, self.A), (self.B, self.B, self.B), (self.A, self.B) * 5)
        )
        with pytest.raises(InternalError, match=f"the {strategy} coset table"):
            todd_coxeter(icosahedral, strategy=strategy)
        assert lookaheads == []

    def test_lookahead_pass_fires_the_coincidences(self):
        # a complete two-coset table with a = (0 1) and b the identity:
        # a^2 and b^2 close, (ab)^3 = a^3 does not, and the HLT pass
        # without fill merges the two cosets into a table that closes
        rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
        ct = _hand_table(rows)
        assert not _closed(ct.table, self.S3_RELATORS)
        _hlt_pass(ct, self.S3_RELATORS, fill=False)
        assert ct.compact() == 1
        assert _closed(ct.table, self.S3_RELATORS)


@pytest.mark.slow
class TestAgainstSympy:
    """Cross-validate enumerated orders with an unrelated implementation."""

    @pytest.fixture(autouse=True)
    def _sympy(self):
        pytest.importorskip("sympy")

    def _sympy_order(self, presentation):
        from sympy.combinatorics.free_groups import free_group
        from sympy.combinatorics.fp_groups import FpGroup

        symbols = free_group(", ".join(presentation.generator_names))
        gens = symbols[1:]
        relators = []
        for word in presentation.relators:
            expr = symbols[0].identity
            for g, e in word:
                expr = expr * gens[g] ** e
            relators.append(expr)
        return FpGroup(symbols[0], relators).order()

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4"])
    def test_blue_component_orders(self, name):
        # one blue component: its group is the full flag group
        p = flag_presentation(from_named(name), ())
        assert todd_coxeter(p).order == self._sympy_order(p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_red_component_orders(self, n):
        # the red component {1..n-1} of C_n: vertex n killed
        p = flag_presentation(from_named(f"C{n}"), (n - 1,))
        assert todd_coxeter(p).order == self._sympy_order(p)

    X, Y, Z = (0, 1), (1, 1), (2, 1)
    XI, YI, ZI = (0, -1), (1, -1), (2, -1)

    @pytest.mark.parametrize(
        "relators",
        [
            ((X, X, X), (Y, Y, Y), (X, Y) * 2),  # (2,3,3): A4
            ((X, X), (Y, Y, Y), (X, Y) * 4),  # (2,3,4): S4
            ((X, Y, X, YI), (Y, X, Y, XI)),  # Q8
            ((X, X, X, X, X), (Y, Y), (X, Y) * 2),  # D5
            ((X, Y, ZI), (Z, Z, Z, YI, YI, ZI, XI), (YI, YI, YI, YI)),
            ((X, Y, X), (Y, X, X, Y, X, X), (X,) * 8),
            ((X, X), (Y, Y), (Z, Z), (X, Y) * 3, (Y, Z) * 3, (X, Z) * 2),  # S4
        ],
    )
    def test_short_presentation_orders(self, relators):
        # relator cycles that cross one edge more than once, which Felsch
        # scans from one end of each deduction only
        ngens = 1 + max(gen for word in relators for gen, _ in word)
        p = FpPresentation(("x", "y", "z")[:ngens], relators)
        order = self._sympy_order(p)
        for strategy in ("hlt", "felsch"):
            assert todd_coxeter(p, strategy=strategy) == EnumerationResult.finite(order)


class TestHJPresentation:
    """The flag presentation with every vertex outside J killed; for J a
    parity component it presents H_J, the component's group."""

    def test_a2_matches_stated_relators(self):
        p = flag_presentation(from_named("A2"), ())
        assert p.generator_names == ("x1", "x2")
        assert p.relators == (
            ((0, 1), (1, -1), (0, -1), (1, -1)),
            ((1, 1), (0, -1), (1, -1), (0, -1)),
        )

    def test_witnessed_singleton_gains_square(self):
        # vertex 1 of C2 commutes against vertex 2 with asymmetric parities,
        # so with vertex 2 killed the pair relators force x1^2 = 1
        p = flag_presentation(from_named("C2"), (1,))
        assert abelianization(p) == AbelianInvariants(0, (2,))
        assert todd_coxeter(p) == EnumerationResult.finite(2)

    def test_asymmetric_pair_is_infinite(self):
        # both vertices of a B2-shaped diagram, J = S: the relators force one
        # square and commutation, leaving Z x C2; the enumeration can only
        # exhaust and the abelianization is decisive
        m = GeneralizedCartanMatrix(((2, -1), (-2, 2)))
        p = flag_presentation(m, ())
        assert abelianization(p) == AbelianInvariants(1, (2,))
        assert not todd_coxeter(p, max_cosets=2000).is_finite


class TestFlagPresentation:
    def test_a2_one_killed(self):
        p = flag_presentation(from_named("A2"), (0,))
        assert abelianization(p) == AbelianInvariants(0, (2,))
        assert todd_coxeter(p) == EnumerationResult.finite(2)

    @pytest.mark.parametrize("name", ["A3", "B3", "G2"])
    def test_full_parabolic_is_trivial(self, name):
        m = from_named(name)
        p = flag_presentation(m, range(m.n))
        assert todd_coxeter(p) == EnumerationResult.finite(1)

    def test_a3_empty_parabolic(self):
        p = flag_presentation(from_named("A3"), ())
        assert todd_coxeter(p) == EnumerationResult.finite(16)

    def test_b3_product_order(self):
        p = flag_presentation(from_named("B3"), ())
        assert todd_coxeter(p) == EnumerationResult.finite(16)
        assert abelianization(p) == AbelianInvariants(0, (2, 2, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simply_laced_closed_form(self, n):
        m = from_named(f"A{n}")
        for r in range(1, n + 1):
            for J in itertools.combinations(range(n), r):
                p = flag_presentation(m, J)
                assert abelianization(p) == AbelianInvariants(0, (2,) * (n - r))
                assert todd_coxeter(p).order == 2 ** (n - r)


class TestCwPresentation:
    def test_empty_parabolic_keeps_all_pairs(self):
        m = from_named("A2")
        assert set(cw_presentation(m, ()).relators) == set(
            flag_presentation(m, ()).relators
        )

    def test_full_parabolic_trivial(self):
        m = from_named("A2")
        p = cw_presentation(m, (0, 1))
        assert todd_coxeter(p) == EnumerationResult.finite(1)

    def test_a2_one_parabolic_keeps_one_pair(self):
        # with J = {2} (1-based) only sigma_2 sigma_1 stays a minimal
        # representative, so only the (2, 1) relator survives
        m = from_named("A2")
        p = cw_presentation(m, (1,))
        assert p.relators == (
            ((1, 1),),
            ((1, 1), (0, -1), (1, -1), (0, -1)),
        )
        assert abelianization(p) == abelianization(flag_presentation(m, (1,)))

    @pytest.mark.parametrize("name", CORPUS_RANK_LE_5 + ["E8", "A1~", "C4~", "G2~"])
    def test_a_weyl_group_per_parabolic_agrees(self, name):
        # the pairs are built once per matrix and filtered per J; at every J
        # that is the presentation a fresh Weyl group reads off the cells
        m = from_named(name)
        names = tuple(f"x{v + 1}" for v in range(m.n))
        weyl = WeylGroup(m)
        for r in range(m.n + 1):
            for J in itertools.combinations(range(m.n), r):
                relators = [((k, 1),) for k in J] + [
                    ((a, 1), (b, m.parity(a, b)), (a, -1), (b, -1))
                    for a in range(m.n)
                    for b in range(m.n)
                    if a != b and weyl.from_word((a, b)).is_minimal_rep(J)
                ]
                assert cw_presentation(m, J) == FpPresentation(names, tuple(relators))

    def test_pairs_built_once_per_matrix(self, monkeypatch):
        # verify reads the two-skeleton at J empty and at every singleton
        words = []
        from_word = WeylGroup.from_word

        def counting(self, word):
            words.append(tuple(word))
            return from_word(self, word)

        monkeypatch.setattr(WeylGroup, "from_word", counting)
        m = from_named("E8")
        assert verify(m).result == "PASS"
        assert len(words) == len(set(words)) == m.n * (m.n - 1)

    @pytest.mark.parametrize("name", CORPUS_RANK_LE_5)
    def test_invariants_match_flag_everywhere(self, name):
        m = from_named(name)
        for r in range(m.n + 1):
            for J in itertools.combinations(range(m.n), r):
                assert abelianization(cw_presentation(m, J)) == abelianization(
                    flag_presentation(m, J)
                )


def _component_check(groups, comp, colour):
    """``check_flag`` on the group of the parity component ``comp``, the
    flag group with every vertex outside it killed, as ``verify`` makes it."""
    outside = set(range(groups.m.n)).difference(comp)
    return check_flag(groups, outside, (colour,))


def _corpus_components(colour):
    """(diagram, component) for every corpus component of this colour."""
    for name in CORPUS_RANK_LE_5 + ["E10", "A1~"]:
        m = from_named(name)
        graph = build_adm(m)
        for comp, c in zip(graph.components, graph.colours):
            if c == colour:
                yield m, comp


class TestClassify:
    """The group ``check_flag`` predicts for each colour of component, read
    from the expectations its checks report on every corpus component."""

    def test_red(self):
        sizes = set()
        for m, comp in _corpus_components("r"):
            size = len(comp)
            sizes.add(size)
            v = _component_check(FlagGroups(m, 5000), comp, "r")
            c2s = AbelianInvariants(0, (2,) * size)
            assert v.checks == [
                ("order", "pass", f"expected {2**size}, got {2**size}"),
                ("abelianization", "pass", f"expected {c2s.flat()}, got {c2s.flat()}"),
            ]
        assert sizes == {1, 2, 3, 4}

    def test_green(self):
        seen = 0
        for m, comp in _corpus_components("g"):
            seen += 1
            v = _component_check(FlagGroups(m, 500), comp, "g")
            assert v.checks == [
                ("order", "inconclusive", "infinite group predicted; enumeration gave "
                 "Exhausted(500)"),
                ("abelianization", "pass", "expected Z, got Z"),
            ]
        assert seen == 8

    def test_blue(self):
        sizes = set()
        for m, comp in _corpus_components("b"):
            size = len(comp)
            sizes.add(size)
            v = _component_check(FlagGroups(m, 5000), comp, "b")
            order = 2 ** (size + 1)
            assert v.checks == [("order", "pass", f"expected {order}, got {order}")]
        assert sizes == {2, 3, 4, 5, 10}


class TestVerifyComponent:
    def test_a2_blue(self):
        v = _component_check(FlagGroups(from_named("A2")), (0, 1), "b")
        assert v.passed
        assert v.parabolic == ()
        assert v.order == EnumerationResult.finite(8)
        # no abelianization is predicted for a blue component
        assert v.checks == [("order", "pass", "expected 8, got 8")]
        assert v.closed_form is None

    def test_c4_red(self):
        v = _component_check(FlagGroups(from_named("C4")), (0, 1, 2), "r")
        assert v.passed
        assert v.parabolic == (3,)
        assert v.order == EnumerationResult.finite(8)
        assert v.invariants == v.closed_form == AbelianInvariants(0, (2, 2, 2))
        assert v.checks == [
            ("order", "pass", "expected 8, got 8"),
            ("abelianization", "pass", "expected C2 x C2 x C2, got C2 x C2 x C2"),
        ]

    def test_c4_red_capped_order_inconclusive(self):
        # |G^ab| = 8 is above the cap, so the order is left open, not failed
        v = _component_check(FlagGroups(from_named("C4"), 4), (0, 1, 2), "r")
        assert v.passed
        assert v.order_status == "exhausted"
        assert v.checks[0] == ("order", "inconclusive", "expected 8, got Exhausted(4)")

    def test_a1_green_inconclusive_order(self):
        v = _component_check(FlagGroups(from_named("A1"), 500), (0,), "g")
        assert v.passed
        assert v.order_status == "infinite"
        assert v.invariants == v.closed_form == AbelianInvariants(1, ())
        assert v.checks == [
            ("order", "inconclusive", "infinite group predicted; enumeration gave "
             "Exhausted(500)"),
            ("abelianization", "pass", "expected Z, got Z"),
        ]

    def test_green_on_two_vertices_fails(self):
        # a green component is a single vertex, so one green colour on A2's
        # two vertices predicts Z x C2 and an infinite group, and both fail
        v = check_flag(FlagGroups(from_named("A2")), (), ("g",))
        assert not v.passed
        assert v.checks == [
            ("order", "fail", "infinite group predicted; enumeration gave Finite(8)"),
            ("abelianization", "fail", "expected Z x C2, got C2 x C2"),
        ]

    def test_blue_on_an_infinite_group_fails(self):
        # A1's flag group is Z: its order is left open, but its free rank 1
        # is not the green count 0
        v = check_flag(FlagGroups(from_named("A1")), (), ("b",))
        assert not v.passed
        assert v.order_status == "infinite"
        assert v.checks == [
            ("order", "fail", "expected 4, got Exhausted(100000); free rank 1"),
        ]

    def test_green_on_a_capped_finite_group_fails(self):
        # C4's red component at cap 4 has free rank 0, not the green count 1
        v = _component_check(FlagGroups(from_named("C4"), 4), (0, 1, 2), "g")
        assert not v.passed
        assert v.order_status == "exhausted"
        assert v.checks == [
            ("order", "fail", "infinite group predicted; enumeration gave Exhausted(4); "
             "free rank 0"),
            ("abelianization", "fail", "expected Z x C2 x C2, got C2 x C2 x C2"),
        ]

    def test_unknown_colour(self):
        groups = FlagGroups(from_named("A2"))
        with pytest.raises(ValueError, match="^unknown colour 'x'$"):
            check_flag(groups, (), ("x",))
        # a (colour, size) pair is not a colour
        with pytest.raises(ValueError, match=r"^unknown colour \('r', 2\)$"):
            check_flag(groups, (0,), [("r", 2)])

    @pytest.mark.parametrize("name", CORPUS_RANK_LE_5 + ["E10", "A1~"])
    def test_whole_corpus_verifies(self, name):
        report = verify(from_named(name), 5000)
        for comp, v in zip(report.graph.components, report.components, strict=True):
            assert v.passed, (name, comp, v.checks)


class TestVerify:
    def test_c3_red_and_green(self):
        report = verify(from_named("C3"), max_cosets=2000)
        assert report.result == "PASS"
        # the green component's capped order check leaves nothing open
        assert [v.order_status for v in report.components] == ["finite", "infinite"]
        assert [name for name, _, _ in report.checks] == [
            "product_law_abelian",
            "presentation_routes",
        ]

    def test_b3_order_product_law(self):
        report = verify(from_named("B3"))
        assert report.result == "PASS"
        assert report.checks[-1] == ("product_law_order", "pass", "16 vs 16")

    def test_a4_capped(self):
        report = verify(from_named("A4"), max_cosets=8)
        assert report.result == "INCONCLUSIVE"
        assert report.checks[-1] == ("product_law_order", "inconclusive", "cap exhausted")

    @pytest.mark.parametrize("name, cap", [("B3", 100_000), ("A4", 8)])
    def test_disagreeing_routes_fail(self, monkeypatch, name, cap):
        def relator_free(m, J):
            return FpPresentation(tuple(f"x{v + 1}" for v in range(m.n)), ())

        monkeypatch.setattr(kmfg.fpgroup, "cw_presentation", relator_free)
        report = verify(from_named(name), max_cosets=cap)
        assert ("presentation_routes", "fail", "") in report.checks
        # a failure outranks a check the cap left open
        assert report.result == "FAIL"

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_witness_rule_checked_not_restated(self, monkeypatch, n):
        # without the witness rule the red component {1..n-1} of C_n is
        # coloured blue; its group is still C2^(n-1), so the order check fails
        def never(m, i):
            return False

        monkeypatch.setattr(kmfg.adm, "has_witness", never)
        monkeypatch.setattr(kmfg.fpgroup, "has_witness", never, raising=False)
        report = verify(from_named(f"C{n}"))
        assert report.graph.colours[0] == "b"
        assert report.components[0].checks[0] == (
            "order", "fail", f"expected {2**n}, got {2 ** (n - 1)}"
        )
        assert report.result == "FAIL"

    @pytest.mark.parametrize("name, tables", [("E8", 1), ("B5", 1)])
    def test_each_flag_group_enumerated_once(self, coset_tables, name, tables):
        # E8 is one component, its group the full flag group; B5 has two,
        # and both orders are read off the full flag group's one table
        assert verify(from_named(name)).result == "PASS"
        assert len(coset_tables) == tables

    @pytest.mark.parametrize("name", NAMED_RANK_LE_8)
    def test_component_checks_are_pi1_flags(self, name):
        # verify checks each component C on the flag group at S - C with
        # C's colour in build_adm(m), and pi1_flag colours that group by
        # build_adm(m, S - C): both make one check and return one record
        m = from_named(name)
        report = verify(m)
        for comp, check in zip(report.graph.components, report.components, strict=True):
            outside = tuple(v for v in range(m.n) if v not in comp)
            assert check == pi1_flag(m, outside, force=True)

    def test_e8_smith_normal_forms(self, monkeypatch):
        # one per distinct presentation: the full flag group's, shared by
        # the component check, the product law and the enumeration, its
        # eight singletons', and the two-skeleton route's nine
        calls = []
        smith_normal_form = kmfg.fpgroup.smith_normal_form

        def counting(rows):
            calls.append(rows)
            return smith_normal_form(rows)

        monkeypatch.setattr(kmfg.fpgroup, "smith_normal_form", counting)
        assert verify(from_named("E8")).result == "PASS"
        assert len(calls) == 18


class TestFlagGroups:
    """Orders read off the full flag group's one coset table."""

    def test_full_report_enumerates_once(self, coset_tables):
        # E10's full flag group has 2,048 elements; the ten singleton orders
        # are indices in its table
        report = full_report(from_named("E10"))
        assert len(coset_tables) == 1
        assert report.flags[()].order == EnumerationResult.finite(2048)
        assert all(info.order.is_finite for info in report.flags.values())

    def test_non_normal_subgroup_refused(self):
        # S3 = <a, b | a^2, b^2, (ab)^3>: <a> has index 3 but is not normal,
        # and killing a kills b too, so |G / <<a>>| = 1
        a, b = (0, 1), (1, 1)
        s3 = FpPresentation(("a", "b"), ((a, a), (b, b), (a, b) * 3))
        table = todd_coxeter(s3, max_cosets=100).table
        assert len(table) == 6
        assert len(table) // len(_subgroup_orbit(table, (0,))) == 3
        killed = FpPresentation(s3.generator_names, s3.relators + ((a,),))
        assert todd_coxeter(killed) == EnumerationResult.finite(1)
        with pytest.raises(InternalError, match="generated by x1 is not normal"):
            _quotient_order(table, (0,))
        assert _quotient_order(table, (0, 1)) == 1

    @pytest.mark.parametrize("name, cap", [("C4~", 100_000), ("A3", 8)])
    def test_each_parabolic_enumerated_where_the_full_group_is_open(
        self, coset_tables, name, cap
    ):
        # C4~'s full flag group is infinite, so no table is built for it;
        # A3's has order 16, so a table of 8 rows fills
        m = from_named(name)
        groups = FlagGroups(m, cap)
        assert coset_tables == []
        assert groups.order(()) == EnumerationResult.exhausted(cap)
        assert len(coset_tables) == (name == "A3")
        for k in range(m.n):
            direct = todd_coxeter(flag_presentation(m, (k,)), max_cosets=cap)
            assert groups.order((k,)) == direct

    @pytest.mark.parametrize("name", ["A1", "A2"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: verify(m, 0),
            lambda m: full_report(m, 0),
            lambda m: pi1_flag(m, (), 0),
            lambda m: pi1_flag(m, (0,), 0),
        ],
    )
    def test_cap_checked_on_every_path(self, name, call):
        # the full flag group is enumerated through todd_coxeter, which
        # checks the cap, like every other flag group
        with pytest.raises(ValueError, match=r"^coset cap must be >= 1, got 0$"):
            call(from_named(name))

    @pytest.mark.parametrize("cap", [2.5, 20.5, True, "100"], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, cap: todd_coxeter(flag_presentation(m, ()), max_cosets=cap),
            lambda m, cap: FlagGroups(m, cap).order(()),
            lambda m, cap: verify(m, cap),
            lambda m, cap: pi1_flag(m, (), cap),
            lambda m, cap: full_report(m, cap),
        ],
        ids=["todd_coxeter", "FlagGroups", "verify", "pi1_flag", "full_report"],
    )
    def test_cap_is_an_integer(self, cap, call):
        # a float cap is not truncated or compared as it stands, and True is
        # not read as 1
        with pytest.raises(ValueError, match=r"^coset cap .* is not an integer$"):
            call(from_named("A3"), cap)

    @pytest.mark.parametrize("run", [verify, full_report])
    def test_full_flag_group_through_todd_coxeter(self, monkeypatch, run):
        # E10's full flag group is the one enumeration, and its result
        # carries the regular table: one row per element, and each letter's
        # column a permutation of the rows
        calls = []
        todd_coxeter = kmfg.fpgroup.todd_coxeter

        def counting(presentation, *args, **kwargs):
            result = todd_coxeter(presentation, *args, **kwargs)
            calls.append((presentation, result))
            return result

        monkeypatch.setattr(kmfg.fpgroup, "todd_coxeter", counting)
        m = from_named("E10")
        run(m)
        assert len(calls) == 1
        presentation, result = calls[0]
        assert presentation == flag_presentation(m, ())
        assert result == EnumerationResult.finite(2048)
        assert len(result.table) == 2048
        for x in range(2 * m.n):
            assert sorted(row[x] for row in result.table) == list(range(2048))

    @pytest.mark.parametrize("run", [verify, full_report])
    def test_e10_builds_one_presentation(self, monkeypatch, run):
        # every other flag group's order is read off G's table and its
        # abelianization off G's exponent rows, so only G's relators are built
        built = []
        build = kmfg.fpgroup.flag_presentation

        def counting(m, J):
            built.append(J)
            return build(m, J)

        monkeypatch.setattr(kmfg.fpgroup, "flag_presentation", counting)
        run(from_named("E10"))
        assert built == [()]

    def test_single_parabolic_analysed_alone(self, monkeypatch):
        # pi1_flag at one J builds J's presentation and abelianizes it once,
        # for the index bound and the check alike, and never builds G's
        built, diagonals = [], []
        build, smith = kmfg.fpgroup.flag_presentation, kmfg.fpgroup.smith_normal_form

        def building(m, J):
            built.append(J)
            return build(m, J)

        def diagonalizing(rows):
            diagonals.append(rows)
            return smith(rows)

        monkeypatch.setattr(kmfg.fpgroup, "flag_presentation", building)
        monkeypatch.setattr(kmfg.fpgroup, "smith_normal_form", diagonalizing)
        check = pi1_flag(from_named("C20"), (0,))
        assert check.invariants == AbelianInvariants(1, (2,) * 18)
        assert built == [(0,)]
        assert len(diagonals) == 1

    @pytest.mark.parametrize("name", ["E8", "C4~", "B5"])
    @pytest.mark.parametrize("cap", [100_000, 8])
    def test_abelianization_from_full_rows(self, name, cap):
        # J's invariants from G's rows plus the unit rows of J are those of
        # J's own presentation
        m = from_named(name)
        groups = FlagGroups(m, cap)
        groups.order(())
        for J in [()] + [(k,) for k in range(m.n)] + [tuple(range(0, m.n, 2))]:
            assert groups.abelianization(J) == abelianization(flag_presentation(m, J))
            assert groups.abelianization(J) is groups.abelianization(J)

    def test_presentations_built_once(self):
        groups = FlagGroups(from_named("B3"))
        assert groups.presentation((2,)) is groups.presentation([2, 2])
        assert groups.presentation(()) == flag_presentation(from_named("B3"), ())


class TestVertexSubset:
    """Every builder that takes a vertex set checks it the same way."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: check_flag(FlagGroups(m), (5,), ("r",)),
            lambda m: flag_presentation(m, (5,)),
            lambda m: cw_presentation(m, (5,)),
            lambda m: WeylGroup(m).cell_counts((5,), 2),
        ],
    )
    def test_out_of_range(self, call):
        with pytest.raises(ValueError, match=r"^vertex 5 out of range$"):
            call(from_named("A3"))

    def test_sorted_without_repeats(self):
        assert vertex_subset((2, 0, 2), 3) == (0, 2)
        assert vertex_subset((), 1) == ()

    def test_bool_is_not_a_vertex(self):
        with pytest.raises(ValueError, match=r"^vertex True is not an integer$"):
            vertex_subset([True], 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: vertex_subset((1.5,), 3),
            lambda m: build_adm(m, (1.5,)),
            lambda m: flag_presentation(m, (0, 1.5)),
            # a float in J must not be read as "no vertex", J = ()
            lambda m: WeylGroup(m).cell_counts((0.5,), 2),
            lambda m: WeylGroup(m).closure_cells(WeylGroup(m).identity(), (1.5,)),
        ],
        ids=["vertex_subset", "build_adm", "flag_presentation", "cell_counts", "closure_cells"],
    )
    def test_not_an_integer(self, call):
        with pytest.raises(ValueError, match=r"^vertex (1\.5|0\.5) is not an integer$"):
            call(from_named("A3"))
