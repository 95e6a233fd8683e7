import dataclasses
import random

import pytest

from kmfg import (
    GeneralizedCartanMatrix,
    from_named,
    hypothesis_report,
    is_irreducible,
    is_spherical,
    is_symmetrizable,
    is_two_spherical,
    parse_matrix,
)
from kmfg.cartan import symmetrizer
from kmfg.errors import InvariantViolationError, MatrixFormatError, UnknownNameError

from oracles import diagram_x, direct_sum, exact_det, gcm_from_edges, symmetrizer_rational

NAMED_FINITE = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5", "D4", "D5", "E6", "E7", "E8", "F4", "G2",
]
NAMED_AFFINE = [
    "A1~", "A2~", "A5~", "B3~", "B4~", "C2~", "C3~", "D4~", "D5~",
    "E6~", "E7~", "E8~", "F4~", "G2~",
]
NAMED_INDEFINITE = ["E10"]
ALL_NAMED = NAMED_FINITE + NAMED_AFFINE + NAMED_INDEFINITE


class TestParsing:
    def test_plain_a2(self):
        m = parse_matrix("2\n2 -1\n-1 2")
        assert m.entries == ((2, -1), (-1, 2))

    def test_plain_g2(self):
        m = parse_matrix("2\n2 -1\n-3 2")
        assert m == from_named("G2")

    def test_comments_and_whitespace(self):
        m = parse_matrix("# rank\n2  # the rank\n2 -1 # first row\n-1 2\n")
        assert m == from_named("A2")

    def test_zero_symmetry_violation(self):
        with pytest.raises(InvariantViolationError) as info:
            parse_matrix("2\n2 -1\n0 2")
        assert info.value.invariant == "zero-symmetry"
        assert info.value.entry == (1, 2)

    def test_zero_symmetry_reported_at_the_nonzero_entry(self):
        # the zero a[1][2] comes first in row-major order, but the rule is
        # read off the nonzero entries, so the violation is a[2][1]
        with pytest.raises(InvariantViolationError) as info:
            parse_matrix("2\n2 0\n-1 2")
        assert (info.value.invariant, info.value.entry, str(info.value)) == (
            "zero-symmetry",
            (2, 1),
            "a[2][1] = -1 but a[1][2] = 0",
        )

    def test_diagonal_violation(self):
        with pytest.raises(InvariantViolationError) as info:
            parse_matrix("2\n1 -1\n-1 2")
        assert info.value.invariant == "diagonal"
        assert info.value.entry == (1, 1)

    def test_sign_violation(self):
        with pytest.raises(InvariantViolationError) as info:
            parse_matrix("2\n2 1\n1 2")
        assert info.value.invariant == "sign"

    def test_syntax_error_reports_position(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("2\n2 -1\n-1 x")
        assert info.value.line == 3
        assert info.value.column == 4

    def test_truncated_input(self):
        with pytest.raises(MatrixFormatError, match="unexpected end"):
            parse_matrix("2\n2 -1\n-1")

    def test_trailing_token(self):
        with pytest.raises(MatrixFormatError, match="trailing"):
            parse_matrix("1\n2 7")

    def test_json_format(self):
        m = parse_matrix('{"size": 2, "entries": [[2, -1], [-3, 2]]}')
        assert m == from_named("G2")

    def test_json_bad_shape(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix('{"size": 2, "entries": [[2, -1]]}')
        with pytest.raises(MatrixFormatError):
            parse_matrix('{"entries": [[2]]}')
        with pytest.raises(MatrixFormatError):
            parse_matrix("{not json")

    def test_only_an_object_is_read_as_json(self):
        # a JSON array is not the JSON format: the plain parser reads it
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("[2]")
        assert str(info.value) == "line 1, column 1: expected the rank, got '[2]'"

    @pytest.mark.parametrize("name", ALL_NAMED)
    def test_round_trip_plain(self, name):
        m = from_named(name)
        assert parse_matrix(m.to_plain_text()) == m

    @pytest.mark.parametrize("name", ["A3", "B4", "F4", "E10", "C3~"])
    def test_round_trip_json(self, name):
        import json

        m = from_named(name)
        assert parse_matrix(json.dumps(m.to_json_dict())) == m


class TestConstruction:
    def test_empty_matrix(self):
        with pytest.raises(MatrixFormatError, match="^matrix must have positive rank$"):
            GeneralizedCartanMatrix(())

    def test_not_square(self):
        with pytest.raises(
            MatrixFormatError, match="^matrix is not square: rank 2, row of length 1$"
        ):
            GeneralizedCartanMatrix(((2, -1), (2,)))

    def test_index_entry_stored_as_int(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        m = GeneralizedCartanMatrix(((2, Index(-1)), (-1, 2)))
        assert m.entries == ((2, -1), (-1, 2))
        assert {type(v) for row in m.entries for v in row} == {int}
        assert m.neighbours == (((1, -1),), ((0, -1),))
        assert m == from_named("A2")

    def test_neighbours_is_not_a_field(self):
        m = from_named("A2")
        assert repr(m) == "GeneralizedCartanMatrix(entries=((2, -1), (-1, 2)))"
        assert hash(m) == hash(GeneralizedCartanMatrix(((2, -1), (-1, 2))))

    def test_str_is_the_plain_format(self):
        assert str(from_named("G2")) == "2\n2 -1\n-3 2"


class TestNamed:
    def test_g2_matrix(self):
        assert from_named("G2").entries == ((2, -1), (-3, 2))

    def test_b3_matrix(self):
        # short-root node 3 has a[3][2] = -2 under the pinned orientation
        assert from_named("B3").entries == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))

    def test_c_is_b_transpose(self):
        for n in range(2, 7):
            b = from_named(f"B{n}")
            c = from_named(f"C{n}")
            assert c.entries == tuple(zip(*b.entries))

    def test_e10_shape(self):
        # a chain of nine vertices with a tenth attached to vertex 7
        expected = gcm_from_edges(
            10, singles=[(k, k + 1) for k in range(1, 9)] + [(7, 10)]
        )
        assert from_named("E10") == expected

    def test_affine_a1(self):
        assert from_named("A1~").entries == ((2, -2), (-2, 2))

    @pytest.mark.parametrize("name", ALL_NAMED)
    def test_named_are_valid(self, name):
        from_named(name)  # the constructor enforces all three invariants

    CANNOT_PARSE = (
        "cannot parse name {!r}; expected a letter A-G, a rank, and an optional trailing '~'"
    )
    # the rank bound first, then the family's rank rule, then the affine rule
    REJECTED = {
        "H3": CANNOT_PARSE.format("H3"),
        "A0": "A requires rank >= 1",
        "B1": "B requires rank >= 2",
        "C1": "C requires rank >= 2",
        "D3": "D requires rank >= 4",
        "E5": "E requires rank >= 6",
        "F5": "F requires rank 4",
        "G3": "G requires rank 2",
        "B2~": "affine B requires rank >= 3",
        "E9~": "affine E requires rank 6, 7 or 8",
        "X4": CANNOT_PARSE.format("X4"),
        "A": CANNOT_PARSE.format("A"),
        "3": CANNOT_PARSE.format("3"),
        "B1~": "B requires rank >= 2",
        "F5~": "F requires rank 4",
        "G0": "G requires rank 2",
        "E999~": "affine E requires rank 6, 7 or 8",
        "F1000~": "a named diagram has rank at most 1000, got 1001",
        "A1001": "a named diagram has rank at most 1000, got 1001",
    }

    @pytest.mark.parametrize("name", list(REJECTED))
    def test_rejected_names(self, name):
        with pytest.raises(UnknownNameError) as caught:
            from_named(name)
        assert str(caught.value) == self.REJECTED[name]

    def test_rank_bound_counts_the_affine_node(self):
        with pytest.raises(UnknownNameError, match="at most 1000, got 1001"):
            from_named("A1000~")
        assert from_named("A999~").n == 1000

    @pytest.mark.parametrize("name", NAMED_AFFINE)
    def test_affine_matrices_are_singular_and_symmetrizable(self, name):
        m = from_named(name)
        assert is_symmetrizable(m)
        assert not is_spherical(m)
        assert exact_det(m.entries) == 0

    @pytest.mark.parametrize("name", NAMED_FINITE)
    def test_finite_types_are_spherical(self, name):
        m = from_named(name)
        assert is_spherical(m)
        assert exact_det(m.entries) > 0

    # Kac, Table Fin: the determinant of each finite family by rank
    DETERMINANTS = {
        **{f"A{n}": n + 1 for n in range(1, 31)},
        **{f"{family}{n}": 2 for family in "BC" for n in range(2, 31)},
        **{f"D{n}": 4 for n in range(4, 31)},
        **{f"E{n}": 9 - n for n in range(6, 31)},
        "F4": 1,
        "G2": 1,
    }

    @pytest.mark.parametrize("name", list(DETERMINANTS))
    def test_finite_determinant(self, name):
        assert exact_det(from_named(name).entries) == self.DETERMINANTS[name]

    AFFINE_UP_TO_RANK_10 = (
        [f"A{n}~" for n in range(1, 10)]
        + [f"B{n}~" for n in range(3, 10)]
        + [f"C{n}~" for n in range(2, 10)]
        + [f"D{n}~" for n in range(4, 10)]
        + ["E6~", "E7~", "E8~", "F4~", "G2~"]
    )

    @pytest.mark.parametrize("name", AFFINE_UP_TO_RANK_10)
    def test_affine_minus_a_vertex_is_spherical(self, name):
        # every proper subdiagram of an affine diagram is of finite type
        # (Kac, Lemma 4.5); a symmetrizable matrix is, exactly when its
        # leading principal minors are positive (Sylvester on diag(d) A)
        entries = from_named(name).entries
        for v in range(len(entries)):
            kept = [k for k in range(len(entries)) if k != v]
            rows = [[entries[i][j] for j in kept] for i in kept]
            assert symmetrizer_rational(GeneralizedCartanMatrix(rows)) is not None
            for size in range(1, len(rows) + 1):
                assert exact_det([row[:size] for row in rows[:size]]) > 0, (name, v + 1, size)

    def test_e10_not_spherical(self):
        assert not is_spherical(from_named("E10"))

    @pytest.mark.parametrize("name, spherical", [("A300", True), ("D300", True), ("A300~", False)])
    def test_high_rank_spherical(self, name, spherical):
        assert is_spherical(from_named(name)) is spherical


class TestParity:
    def test_a2_off_diagonal(self):
        assert from_named("A2").parity(0, 1) == -1

    def test_b3_double_bond(self):
        # a[3][2] = -2 (1-based), even, so the parity is +1
        m = from_named("B3")
        assert m.parity(2, 1) == 1
        assert m.parity(1, 2) == -1

    @pytest.mark.parametrize("name", ["A3", "B4", "G2", "E10"])
    def test_diagonal_parity(self, name):
        m = from_named(name)
        for i in range(m.n):
            assert m.parity(i, i) == 1

    @pytest.mark.parametrize("name", ALL_NAMED)
    def test_parity_product_matches_entry_sum(self, name):
        m = from_named(name)
        for i in range(m.n):
            for j in range(m.n):
                product = m.parity(i, j) * m.parity(j, i)
                assert (product == 1) == ((m.entry(i, j) + m.entry(j, i)) % 2 == 0)


class TestSymmetrizable:
    def test_symmetric_matrix(self):
        assert is_symmetrizable(from_named("A5"))
        assert is_symmetrizable(from_named("A1~"))

    def test_asymmetric_cycle(self):
        m = GeneralizedCartanMatrix(((2, -1, -2), (-2, 2, -1), (-1, -2, 2)))
        # cycle-product oracle: a12 a23 a31 != a21 a32 a13
        assert (-1) * (-1) * (-1) != (-2) * (-2) * (-2)
        assert not is_symmetrizable(m)

    def test_random_triangles_match_cycle_product(self):
        rng = random.Random(7)
        for _ in range(200):
            vals = [rng.choice([-1, -2, -3]) for _ in range(6)]
            a12, a21, a23, a32, a13, a31 = vals
            m = GeneralizedCartanMatrix(
                ((2, a12, a13), (a21, 2, a23), (a31, a32, 2))
            )
            expected = a12 * a23 * a31 == a21 * a32 * a13
            assert is_symmetrizable(m) == expected

    def test_random_symmetric_matrices_are_symmetrizable(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 6)
            a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = a[j][i] = rng.choice([0, 0, -1, -2, -3])
            assert is_symmetrizable(
                GeneralizedCartanMatrix(tuple(tuple(row) for row in a))
            )

    def test_random_trees_are_symmetrizable(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 7)
            a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for v in range(1, n):
                u = rng.randrange(v)
                a[u][v] = -rng.randint(1, 3)
                a[v][u] = -rng.randint(1, 3)
            m = GeneralizedCartanMatrix(tuple(tuple(row) for row in a))
            assert is_symmetrizable(m)

    @pytest.mark.parametrize("name", ALL_NAMED)
    def test_named_are_symmetrizable(self, name):
        assert is_symmetrizable(from_named(name))

    @pytest.mark.parametrize(
        "name, d",
        [("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("G2", (3, 1)), ("F4", (1, 1, 2, 2))],
    )
    def test_least_positive_integers(self, name, d):
        assert symmetrizer(from_named(name)) == d

    def test_gcd_one_per_component(self):
        # G2 + B2: each component is scaled on its own
        assert symmetrizer(direct_sum(from_named("G2"), from_named("B2"))) == (3, 1, 2, 1)


class TestTwoSpherical:
    def test_g2(self):
        assert is_two_spherical(from_named("G2"))

    def test_affine_a1(self):
        assert not is_two_spherical(from_named("A1~"))

    def test_e10(self):
        assert is_two_spherical(from_named("E10"))


class TestIrreducible:
    def test_a3(self):
        assert is_irreducible(from_named("A3"))

    def test_block_diagonal(self):
        m = GeneralizedCartanMatrix(((2, 0), (0, 2)))
        assert not is_irreducible(m)

    def test_e10(self):
        assert is_irreducible(from_named("E10"))


def test_hypothesis_report_is_reproducible():
    m = from_named("B3")
    assert hypothesis_report(m) == hypothesis_report(parse_matrix(m.to_plain_text()))
    report = hypothesis_report(m)
    assert (report.irreducible, report.symmetrizable, report.two_spherical, report.spherical) == (
        True,
        True,
        True,
        True,
    )


@pytest.mark.parametrize("name", ["B3", "A1~", "X", "A1+A2"])
def test_hypothesis_report_json_is_every_field_in_order(name):
    # the JSON dict is written out field by field; info and pi1 --full print
    # its keys in this order
    if name == "X":
        m = diagram_x()
    elif name == "A1+A2":
        m = direct_sum(from_named("A1"), from_named("A2"))
    else:
        m = from_named(name)
    report = hypothesis_report(m)
    assert list(report.to_json_dict().items()) == list(dataclasses.asdict(report).items())
