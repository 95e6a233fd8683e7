import random

import pytest

from kmfg import WeylGroup, coxeter, from_named
from kmfg.coxeter import is_negative_root_vector, is_positive_root_vector
from kmfg.errors import InputError, ResourceLimitError

from oracles import (
    MatrixWeylGroup,
    all_permutations,
    all_reduced_words,
    bruhat_oracle,
    degree_product_coeffs,
    inversions,
    perm_from_word,
    q_factorial_coeffs,
)


@pytest.fixture(scope="module")
def a2():
    return WeylGroup(from_named("A2"))


@pytest.fixture(scope="module")
def a3():
    return WeylGroup(from_named("A3"))


@pytest.fixture(scope="module")
def affine():
    return WeylGroup(from_named("A1~"))


class TestAction:
    def test_identity(self, a2):
        alpha1 = a2.simple_root(0)
        assert a2.identity().act(alpha1) == alpha1

    def test_reflection_of_other_root(self, a2):
        # sigma_1(alpha_2) = alpha_1 + alpha_2
        assert a2.generator(0).act(a2.simple_root(1)) == (1, 1)

    def test_reflection_negates_own_root(self, a2):
        assert a2.generator(0).act(a2.simple_root(0)) == (-1, 0)

    def test_dimension_mismatch(self, a2):
        with pytest.raises(ValueError):
            a2.identity().act((1, 0, 0))

    def test_generators_are_involutions(self, a3):
        for i in range(a3.n):
            s = a3.generator(i)
            assert (s * s).is_identity()


class TestMultiply:
    def test_braid_relation(self, a2):
        s1, s2 = a2.generator(0), a2.generator(1)
        assert s1 * s2 * s1 == s2 * s1 * s2

    def test_inverse_of_product(self, a2):
        s1, s2 = a2.generator(0), a2.generator(1)
        assert (s1 * s2).inverse() == s2 * s1

    def test_cross_group_rejected(self, a2, a3):
        with pytest.raises(ValueError):
            a2.generator(0) * a3.generator(0)

    def test_inverse_round_trip(self, a3):
        for w in a3.elements_up_to(4):
            assert (w * w.inverse()).is_identity()
            assert w.inverse().length == w.length


class TestLength:
    def test_identity(self, a2):
        assert a2.identity().length == 0

    def test_longest_a2(self, a2):
        assert a2.from_word((0, 1, 0)).length == 3

    @pytest.mark.parametrize("k", range(1, 11))
    def test_infinite_dihedral_powers(self, affine, k):
        assert affine.from_word((0, 1) * k).length == 2 * k

    def test_matches_inversions_s4(self, a3):
        cache = {}
        for p in all_permutations(4):
            word = all_reduced_words(p, cache)[0]
            assert a3.from_word(word).length == inversions(p)

    def test_triangle_inequality_and_step(self, a3):
        elements = a3.elements_up_to(6)
        rng = random.Random(5)
        sample = rng.sample(elements, 12)
        for u in sample:
            for v in sample:
                assert (u * v).length <= u.length + v.length
        for w in sample:
            for i in range(a3.n):
                expected = 1 if w.heights[i] > 0 else -1
                assert (w * a3.generator(i)).length == w.length + expected


class TestReducedWord:
    def test_identity_empty(self, a2):
        assert a2.identity().reduced_word() == ()

    def test_longest_a2_lex_least(self, a2):
        assert a2.from_word((1, 0, 1)).reduced_word() == (0, 1, 0)

    def test_single_generator(self, a2):
        assert a2.generator(1).reduced_word() == (1,)

    def test_commuting_generators(self, a3):
        # the word for s3 s1 must start with the smaller letter
        assert a3.from_word((2, 0)).reduced_word() == (0, 2)

    def test_lex_least_on_s4(self, a3):
        cache = {}
        for p in all_permutations(4):
            words = all_reduced_words(p, cache)
            w = a3.from_word(words[0])
            assert w.reduced_word() == min(words)

    def test_word_is_reduced(self, affine):
        for w in affine.elements_up_to(6):
            word = w.reduced_word()
            assert len(word) == w.length
            assert affine.from_word(word) == w


class TestReadingKernel:
    """Words, inverses and closures are read by stripping in place: the
    work is pinned by counts, not by a time."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        method = getattr(WeylGroup, name)

        def counted(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(WeylGroup, name, counted)
        return calls

    def test_reduced_word_is_two_strips(self, monkeypatch):
        group = WeylGroup(from_named("E8"))
        w = group.from_word((0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6))
        steps = self._count_calls(monkeypatch, "_step")
        strips = self._count_calls(monkeypatch, "_strip")
        assert len(w.reduced_word()) == 14
        assert (len(steps), len(strips)) == (0, 2)

    def test_inverse_is_one_strip(self, monkeypatch, a3):
        w = a3.from_word((0, 1, 2, 0))
        steps = self._count_calls(monkeypatch, "_step")
        strips = self._count_calls(monkeypatch, "_strip")
        inverse = w.inverse()
        assert (len(steps), len(strips)) == (0, 1)
        # the strip's letters are the inverse's lexicographically least
        # word, kept on it, so reading that word strips nothing more
        assert inverse.reduced_word() == (0, 2, 1, 0)
        assert len(strips) == 1
        assert inverse == a3.from_word((2, 0, 1, 0))

    def test_product_is_one_strip(self, monkeypatch):
        # the reversed letters of one strip of a fresh y are a reduced word;
        # reading y's canonical word would cost two strips
        group = WeylGroup(from_named("E8"))
        word = (0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6)
        x, y = group.from_word(word[:5]), group.from_word(word)
        strips = self._count_calls(monkeypatch, "_strip")
        product = x * y
        assert len(strips) == 1
        expected = group.from_word(word[:5] + word)
        assert (product, product.length) == (expected, expected.length)
        assert len(strips) == 1

    def test_action_and_matrix_are_one_strip(self, monkeypatch, a3):
        word = (0, 1, 2, 0, 1)
        oracle = MatrixWeylGroup(a3.cartan).from_word(word)
        strips = self._count_calls(monkeypatch, "_strip")
        assert a3.from_word(word).act((1, -2, 3)) == MatrixWeylGroup.act(oracle, (1, -2, 3))
        assert len(strips) == 1
        assert a3.from_word(word).matrix == oracle
        assert len(strips) == 2

    def test_closure_cells_carry_their_lengths(self):
        group = WeylGroup(from_named("D5"))
        w = group.from_word((0, 1, 2, 3, 4, 2, 1, 0))
        cells = group.closure_cells(w, (3,))
        assert cells
        # each length comes with the interval, and it is the stripped one
        for x in cells:
            assert x._length == len(group._strip(x.heights)[0])

    def test_cap_one_below_the_interval(self):
        # the interval below w has 2,916 elements, and J = () keeps them all
        group = WeylGroup(from_named("E8"))
        w = group.from_word((0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6))
        assert len(group.closure_cells(w, (), cap=2916)) == 2916
        with pytest.raises(ResourceLimitError, match=r"^element cap 2915 exceeded at length 14$"):
            group.closure_cells(w, (), cap=2915)


class TestRootSequence:
    def test_single_letter(self, a2):
        assert a2.root_sequence((0,)) == [(1, 0)]

    def test_longest_word(self, a2):
        assert a2.root_sequence((0, 1, 0)) == [(1, 0), (1, 1), (0, 1)]

    def test_repeated_letter(self, a2):
        assert a2.root_sequence((0, 0)) == [(1, 0), (-1, 0)]

    def test_matches_act(self, a3):
        word = (0, 2, 1, 0, 2)
        seq = a3.root_sequence(word)
        prefix = a3.identity()
        for k, letter in enumerate(word):
            assert seq[k] == prefix.act(a3.simple_root(letter))
            prefix = prefix * a3.generator(letter)

    def test_reduced_words_give_distinct_positive_roots(self, a3):
        cache = {}
        for p in all_permutations(4):
            for word in all_reduced_words(p, cache):
                seq = a3.root_sequence(word)
                assert all(is_positive_root_vector(v) for v in seq)
                assert len(set(seq)) == len(seq)

    def test_non_reduced_words_have_a_negative_root(self, a2):
        rng = random.Random(17)
        found = 0
        while found < 100:
            word = tuple(rng.randrange(2) for _ in range(rng.randint(2, 9)))
            if a2.is_reduced(word):
                continue
            found += 1
            seq = a2.root_sequence(word)
            assert any(is_negative_root_vector(v) for v in seq)


class TestIsReduced:
    def test_examples(self, a2):
        assert a2.is_reduced((0, 1, 0))
        assert not a2.is_reduced((0, 1, 0, 1))
        assert a2.is_reduced(())

    def test_agrees_with_root_positivity(self, affine):
        # a word is reduced exactly when every root in its sequence is positive
        rng = random.Random(23)
        for _ in range(200):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 10)))
            by_length = affine.is_reduced(word)
            by_roots = all(
                is_positive_root_vector(v) for v in affine.root_sequence(word)
            )
            assert by_length == by_roots


class TestWordLetters:
    """A letter that is no vertex index is refused, by name, wherever a word
    enters the group."""

    @pytest.mark.parametrize("letter", [-1, 2, 5])
    def test_rejected(self, a2, letter):
        for call in (a2.from_word, a2.is_reduced, a2.root_sequence):
            with pytest.raises(ValueError, match=f"letter {letter} out of range"):
                call((0, letter))

    def test_generator(self, a2):
        with pytest.raises(ValueError, match="letter -1 out of range"):
            a2.generator(-1)

    @pytest.mark.parametrize("letter", [0.0, 1.5, "1"])
    def test_not_an_integer(self, a2, letter):
        for call in (a2.from_word, a2.is_reduced, a2.root_sequence):
            with pytest.raises(ValueError, match="^word letter .* is not an integer$"):
                call((letter, 1))


class TestIntegerBounds:
    """A length bound or a cap that is not an integer is a ValueError."""

    def test_length_bound(self, a3):
        with pytest.raises(ValueError, match=r"^length bound 2\.5 is not an integer$"):
            a3.cell_counts((), 2.5)
        with pytest.raises(ValueError, match=r"^length bound 2\.5 is not an integer$"):
            a3.elements_up_to(2.5)

    def test_cap(self, a3):
        w = a3.from_word((0, 1, 2))
        for call in (
            lambda: a3.cell_counts((), 2, cap=7.5),
            lambda: a3.elements_up_to(2, cap=7.5),
            lambda: a3.closure_cells(w, (), cap=7.5),
        ):
            with pytest.raises(ValueError, match=r"^element cap 7\.5 is not an integer$"):
                call()


class TestBruhatOrder:
    def test_identity_below_everything(self, a3):
        e = a3.identity()
        for w in a3.elements_up_to(6):
            assert e.bruhat_leq(w)

    def test_examples(self, a2):
        s1, s2 = a2.generator(0), a2.generator(1)
        w0 = s1 * s2 * s1
        assert s2.bruhat_leq(w0)
        assert not (s1 * s2).bruhat_leq(s2 * s1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_exhaustive_subword_search(self, n):
        group = WeylGroup(from_named(f"A{n - 1}"))
        cache = {}
        perms = all_permutations(n)
        elements = {p: group.from_word(all_reduced_words(p, cache)[0]) for p in perms}
        for u in perms:
            for w in perms:
                assert elements[u].bruhat_leq(elements[w]) == bruhat_oracle(u, w, cache)


class TestWeakOrder:
    def test_reflexive(self, a3):
        for w in a3.elements_up_to(3):
            assert w.weak_leq(w)

    def test_examples(self, a2):
        s1, s2 = a2.generator(0), a2.generator(1)
        assert s1.weak_leq(s1 * s2)
        assert not s2.weak_leq(s1 * s2)
        assert s2.bruhat_leq(s1 * s2)  # weak is strictly finer

    @pytest.mark.parametrize("name", ["A3", "A1~"])
    def test_weak_implies_strong(self, name):
        group = WeylGroup(from_named(name))
        elements = group.elements_up_to(4)
        for u in elements:
            for w in elements:
                if u.weak_leq(w):
                    assert u.bruhat_leq(w)


class TestEnumeration:
    def test_a2_full(self, a2):
        assert len(a2.elements_up_to(3)) == 6
        assert len(a2.elements_up_to(10)) == 6  # saturates

    def test_affine_eleven(self, affine):
        assert len(affine.elements_up_to(5)) == 11

    def test_length_zero(self, a3):
        assert a3.elements_up_to(0) == [a3.identity()]

    @pytest.mark.parametrize(
        "name,order,longest",
        [("A2", 6, 3), ("A3", 24, 6), ("A4", 120, 10), ("B2", 8, 4),
         ("C2", 8, 4), ("B3", 48, 9), ("C3", 48, 9), ("B4", 384, 16),
         ("C4", 384, 16), ("G2", 12, 6), ("D4", 192, 12), ("F4", 1152, 24)],
    )
    def test_faithful_on_finite_types(self, name, order, longest):
        group = WeylGroup(from_named(name))
        elements = group.elements_up_to(longest)
        assert len(elements) == order
        assert len({w.matrix for w in elements}) == order

    def test_cap_raises(self, affine):
        with pytest.raises(ResourceLimitError):
            affine.elements_up_to(100, cap=10)

    def test_cap_boundary(self):
        # W(E8) has 2,508 elements of length <= 6; the cap counts all of them
        group = WeylGroup(from_named("E8"))
        assert len(group.elements_up_to(6, cap=2508)) == 2508
        assert sum(group.cell_counts((), 6, cap=2508).values()) == 2508
        with pytest.raises(ResourceLimitError, match=r"^element cap 2507 exceeded at length 6$"):
            group.elements_up_to(6, cap=2507)
        with pytest.raises(ResourceLimitError, match=r"^element cap 2507 exceeded at length 6$"):
            group.cell_counts((), 6, cap=2507)

    def test_each_position_built_once(self, monkeypatch):
        # the walk builds a position only for a firing it keeps, and
        # cell_counts builds none on its last level: W(E8) has 2,507
        # non-identity elements of length <= 6, where building one position
        # per ascent of each element would build 6,336
        built = []

        def counting_tuple(iterable=()):
            built.append(None)
            return tuple(iterable)

        group = WeylGroup(from_named("E8"))
        monkeypatch.setattr(coxeter, "tuple", counting_tuple, raising=False)
        elements = group.elements_up_to(6)
        assert (len(elements), len(built)) == (2508, 2507)
        built.clear()
        histogram = group.cell_counts((), 6)
        # the start and the positions of lengths 1 to 5
        assert len(built) == sum(histogram[level] for level in range(6))


class TestCellCountCap:
    """The cap counts every position, the counted last level's included, so
    it raises at the level where the total first exceeds it.  A6~ with
    J = {3} has 4,159 cells to length 8, 2,268 of them to length 7."""

    @pytest.fixture(scope="class")
    def a6_affine(self):
        return WeylGroup(from_named("A6~"))

    def test_cap_equal_to_the_total(self, a6_affine):
        assert a6_affine.cell_counts((3,), 8, cap=4159) == {
            0: 1, 1: 6, 2: 22, 3: 62, 4: 148, 5: 314, 6: 610, 7: 1105, 8: 1891
        }

    @pytest.mark.parametrize("cap,level", [(4158, 8), (2268, 8), (2267, 7), (1, 1), (0, 1)])
    def test_cap_exceeded(self, a6_affine, cap, level):
        if cap < 1:
            # refused as a bad argument before the walk, not at any level
            error, message = ValueError, rf"^element cap must be >= 1, got {cap}$"
        else:
            error, message = ResourceLimitError, rf"^element cap {cap} exceeded at length {level}$"
        with pytest.raises(error, match=message):
            a6_affine.cell_counts((3,), 8, cap=cap)

    @pytest.mark.parametrize("cap", [0, 1, 4159])
    def test_length_zero(self, a6_affine, cap):
        if cap < 1:
            # not ignored at length 0: the cap is checked before the walk
            with pytest.raises(ValueError, match=rf"^element cap must be >= 1, got {cap}$"):
                a6_affine.cell_counts((3,), 0, cap=cap)
        else:
            assert a6_affine.cell_counts((3,), 0, cap=cap) == {0: 1}

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one(self, a6_affine, cap):
        # a cap below 1 is a bad argument, as for todd_coxeter, not a
        # resource limit, and not ignored at length 0
        w = a6_affine.from_word((0,))
        for call in (
            lambda: a6_affine.cell_counts((3,), 0, cap=cap),
            lambda: a6_affine.cell_counts((3,), 8, cap=cap),
            lambda: a6_affine.elements_up_to(2, cap=cap),
            lambda: a6_affine.closure_cells(w, (), cap=cap),
        ):
            with pytest.raises(ValueError, match=rf"^element cap must be >= 1, got {cap}$"):
                call()


def minimal_reps(group, J, length):
    """The definition: the elements up to ``length`` with no right descent
    in J."""
    return [w for w in group.elements_up_to(length) if w.is_minimal_rep(J)]


class TestMinimalReps:
    def test_full_parabolic(self, a2):
        assert minimal_reps(a2, (0, 1), 10) == [a2.identity()]
        assert a2.cell_counts((0, 1), 10) == {0: 1}

    def test_a2_one_generator(self, a2):
        reps = minimal_reps(a2, (1,), 3)
        assert sorted(w.length for w in reps) == [0, 1, 2]
        assert a2.cell_counts((1,), 3) == {0: 1, 1: 1, 2: 1}

    def test_a3_cosets(self, a3):
        assert len(minimal_reps(a3, (1, 2), 6)) == 4
        assert a3.cell_counts((1, 2), 6) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_out_of_range(self, a2):
        with pytest.raises(ValueError):
            a2.cell_counts((5,), 3)

    def test_is_minimal_rep_by_lengths(self):
        # w is minimal in w W_J exactly when every w * s_j, j in J, is longer
        group = WeylGroup(from_named("B3"))
        for w in group.elements_up_to(4):
            for J in [(), (0,), (1, 2), (0, 1, 2)]:
                longer = all((w * group.generator(j)).length > w.length for j in J)
                assert w.is_minimal_rep(J) == longer


class TestCellCounts:
    def test_a2_full_flag(self, a2):
        assert a2.cell_counts((), 3) == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_a2_parabolic(self, a2):
        assert a2.cell_counts((1,), 3) == {0: 1, 1: 1, 2: 1}

    def test_a1_panel(self):
        group = WeylGroup(from_named("A1"))
        assert group.cell_counts((), 1) == {0: 1, 1: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_n_poincare_polynomial(self, n):
        group = WeylGroup(from_named(f"A{n}"))
        longest = n * (n + 1) // 2
        coeffs = q_factorial_coeffs(n)
        hist = group.cell_counts((), longest)
        assert hist == {k: c for k, c in enumerate(coeffs)}

    @pytest.mark.parametrize(
        "name,degrees",
        [("B2", [2, 4]), ("B3", [2, 4, 6]), ("G2", [2, 6])],
    )
    def test_poincare_polynomial_by_degrees(self, name, degrees):
        group = WeylGroup(from_named(name))
        longest = sum(degrees) - len(degrees)
        coeffs = degree_product_coeffs(degrees)
        assert group.cell_counts((), longest) == {
            k: c for k, c in enumerate(coeffs)
        }


class TestClosure:
    def test_identity(self, a2):
        assert a2.closure_cells(a2.identity(), ()) == [a2.identity()]

    def test_a2_product(self, a2):
        s1, s2 = a2.generator(0), a2.generator(1)
        cells = a2.closure_cells(s1 * s2, ())
        assert {w.reduced_word() for w in cells} == {(), (0,), (1,), (0, 1)}

    def test_restricted_to_parabolic(self, a2):
        s1 = a2.generator(0)
        cells = a2.closure_cells(s1, (1,))
        assert {w.reduced_word() for w in cells} == {(), (0,)}

    def test_rejects_non_minimal(self, a2):
        with pytest.raises(InputError):
            a2.closure_cells(a2.generator(1), (1,))

    def test_rejects_an_element_of_another_group(self, a3):
        # stepping the B3 reduced word s3 s2 s3 s2 in A3 would give six
        # elements of A3, not the eight of B3's interval
        b3 = WeylGroup(from_named("B3"))
        w = b3.from_word((2, 1, 2, 1))
        assert len(b3.closure_cells(w, ())) == 8
        with pytest.raises(ValueError, match="different Weyl groups"):
            a3.closure_cells(w, ())
