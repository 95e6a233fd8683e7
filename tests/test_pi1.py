import io
import json
import random

import pytest

import kmfg.fpgroup
import kmfg.pi1
from kmfg import (
    AbelianInvariants,
    GeneralizedCartanMatrix,
    build_adm,
    enumerate_kappa,
    flag_presentation,
    from_named,
    full_report,
    kappa_constant,
    pi1_flag,
    pi1_group,
    pi1_maximal_compact,
    pi1_spin,
    todd_coxeter,
)
from kmfg.adm import KappaColouring, kappa_bits
from kmfg.cli import run
from kmfg.errors import HypothesisError, InadmissibleKappaError
from kmfg.fpgroup import DEFAULT_MAX_COSETS, EnumerationResult
from kmfg.pi1 import spin_rows

from oracles import diagram_x, direct_sum, spin_rows_dense


def _cli_json(argv, tmp_path=None, m=None):
    """The JSON a successful ``kmfg`` run prints; ``m`` is passed as a
    matrix file."""
    if m is not None:
        path = tmp_path / "m.txt"
        path.write_text(m.to_plain_text())
        argv = [*argv, "--matrix", str(path)]
    out, err = io.StringIO(), io.StringIO()
    assert run([*argv, "--format", "json"], out, err) == 0, err.getvalue()
    return json.loads(out.getvalue())

# two-spherical (all products <= 3) but not symmetrizable (cycle products differ)
TWO_SPHERICAL_NOT_SYMMETRIZABLE = GeneralizedCartanMatrix(
    ((2, -1, -2), (-2, 2, -1), (-1, -2, 2))
)
# neither two-spherical (product 4) nor symmetrizable
NEITHER = GeneralizedCartanMatrix(((2, -2, -2), (-2, 2, -1), (-1, -2, 2)))


class TestPi1TypeRendering:
    """pi1 values print in exponent form.  ``kmfg.pi1.Pi1Type`` is the name
    perfbench's self-test patches to make that text wrong."""

    def test_patch_target_is_the_one_type(self):
        assert kmfg.pi1.Pi1Type is AbelianInvariants
        assert not hasattr(kmfg, "Pi1Type")

    @pytest.mark.parametrize(
        "z,c2,text",
        [
            (0, 0, "1"),
            (1, 0, "Z"),
            (0, 1, "C2"),
            (2, 0, "Z^2"),
            (0, 3, "C2^3"),
            (2, 2, "Z^2 x C2^2"),
            (1, 1, "Z x C2"),
        ],
    )
    def test_str(self, z, c2, text):
        assert str(AbelianInvariants(z, (2,) * c2)) == text

    def test_json(self, tmp_path):
        # A1 + A2 + A2 has pi1 = Z x C2^2, the product over its factors
        m = direct_sum(direct_sum(from_named("A1"), from_named("A2")), from_named("A2"))
        data = _cli_json(["pi1", "--force"], tmp_path, m)
        assert data["pi1_G"] == {"z": 1, "c2": 2}
        assert data["reducible"] is True


class TestAnswersAreAbelianInvariants:
    @pytest.mark.parametrize("name", ["A1", "B3", "C4", "F4", "E10", "A1~", "C2~", "X", "A1+A2"])
    def test_equal_to_the_colour_counts(self, name):
        if name == "X":
            m = diagram_x()
        elif name == "A1+A2":
            m = direct_sum(from_named("A1"), from_named("A2"))
        else:
            m = from_named(name)
        graph = build_adm(m)
        colours = graph.colours
        expected = AbelianInvariants(colours.count("g"), (2,) * colours.count("b"))
        report = full_report(m, max_cosets=500, force=True)
        for value in (
            pi1_group(m, force=True),
            pi1_maximal_compact(m, force=True).value,
            report.group,
            report.maximal_compact.value,
        ):
            assert type(value) is AbelianInvariants
            assert value == expected
        rows = list(spin_rows(graph))
        assert rows == report.spin
        for kappa, (_, value) in zip(enumerate_kappa(graph), rows):
            blue_ones = sum(c == "b" and v == 1 for c, v in zip(colours, kappa.values))
            assert type(value) is AbelianInvariants
            assert value == pi1_spin(m, kappa, force=True)
            assert value == AbelianInvariants(colours.count("g"), (2,) * blue_ones)
        for info in report.flags.values():
            assert info.closed_form is None or type(info.closed_form) is AbelianInvariants

    def test_each_value_built_once(self):
        # a spin listing makes one value per colouring, and equal values
        # are one object
        graph = build_adm(from_named("C2~"))
        values = [value for _, value in spin_rows(graph)]
        assert len(values) > len(set(values))
        for value in values:
            assert value is next(v for v in values if v == value)


class TestPi1Group:
    def test_a1(self):
        assert pi1_group(from_named("A1")) == AbelianInvariants(1, ())

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_c_n(self, n):
        assert pi1_group(from_named(f"C{n}")) == AbelianInvariants(1, ())

    def test_e10(self):
        assert pi1_group(from_named("E10")) == AbelianInvariants(0, (2,))

    def test_gate_rejects_neither(self):
        with pytest.raises(HypothesisError) as info:
            pi1_group(NEITHER)
        assert info.value.reason == "hypotheses"
        assert pi1_group(NEITHER, force=True) == AbelianInvariants(1, ())

    def test_gate_rejects_reducible(self):
        # irreducibility is not a hypothesis: A1 + A1 passes the gate, and
        # its pi1 is the product of its factors'
        m = direct_sum(from_named("A1"), from_named("A1"))
        assert pi1_group(m) == pi1_group(m, force=True) == AbelianInvariants(2, ())

    def test_two_spherical_without_symmetrizable_passes_gate(self):
        pi1_group(TWO_SPHERICAL_NOT_SYMMETRIZABLE)

    def test_symmetrizable_without_two_spherical_passes_gate(self):
        assert pi1_group(from_named("A1~")) == AbelianInvariants(2, ())

    def test_bounded_by_component_count(self):
        for name in ["A5", "B4", "C4", "F4", "G2", "E10", "C2~"]:
            m = from_named(name)
            value = pi1_group(m, force=True)
            graph = build_adm(m)
            n_r = graph.colours.count("r")
            assert value.free_rank + len(value.torsion) <= len(graph.components)
            assert (value.free_rank + len(value.torsion) == len(graph.components)) == (
                n_r == 0
            )

    def test_relabelling_invariance(self):
        rng = random.Random(9)
        for name in ["B3", "F4", "C4"]:
            m = from_named(name)
            reference = pi1_group(m)
            perm = list(range(m.n))
            rng.shuffle(perm)
            shuffled = GeneralizedCartanMatrix(
                tuple(
                    tuple(m.entry(perm[i], perm[j]) for j in range(m.n))
                    for i in range(m.n)
                )
            )
            assert pi1_group(shuffled) == reference


class TestPi1MaximalCompact:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_n(self, n):
        value, caveat = pi1_maximal_compact(from_named(f"A{n}"))
        assert value == AbelianInvariants(0, (2,))
        assert not caveat

    def test_b2(self):
        assert pi1_maximal_compact(from_named("B2")).value == AbelianInvariants(1, ())

    def test_f4(self):
        assert pi1_maximal_compact(from_named("F4")).value == AbelianInvariants(0, (2,))

    def test_caveat_outside_symmetrizable(self):
        value, caveat = pi1_maximal_compact(TWO_SPHERICAL_NOT_SYMMETRIZABLE)
        assert caveat
        assert value == pi1_group(TWO_SPHERICAL_NOT_SYMMETRIZABLE)

    def test_matches_group(self):
        for name in ["A3", "B3", "C3", "D4", "G2", "E10"]:
            m = from_named(name)
            assert pi1_maximal_compact(m).value == pi1_group(m)


class TestPi1Spin:
    @pytest.mark.parametrize("name", ["A2", "A4", "D4", "E6", "E10"])
    def test_simply_laced(self, name):
        m = from_named(name)
        g = build_adm(m)
        assert pi1_spin(m, kappa_constant(g, 2)) == AbelianInvariants(0, ())
        assert pi1_spin(m, kappa_constant(g, 1)) == AbelianInvariants(0, (2,))

    def test_c3_kappa_independent(self):
        m = from_named("C3")
        g = build_adm(m)
        for kappa in enumerate_kappa(g):
            assert pi1_spin(m, kappa) == AbelianInvariants(1, ())

    def test_inadmissible_rejected(self):
        m = from_named("C3")
        with pytest.raises(InadmissibleKappaError):
            pi1_spin(m, KappaColouring((2, 1)))

    def test_free_rank_is_kappa_independent(self):
        for name in ["B3", "C4", "F4", "C2~"]:
            m = from_named(name)
            g = build_adm(m)
            ranks = {pi1_spin(m, k, force=True).free_rank for k in enumerate_kappa(g)}
            assert len(ranks) == 1

    # A2 + A1 (reducible), C2~ (two blue components, rows whose groups
    # differ) and a rank-3 triangle whose one component is red, so that its
    # listing is the one row of empty bits
    LISTINGS = {
        "A2+A1": direct_sum(from_named("A2"), from_named("A1")),
        "C2~": from_named("C2~"),
        "red": GeneralizedCartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -2, 2))),
    }

    @pytest.mark.parametrize("name", sorted(LISTINGS))
    def test_listing_is_the_per_colouring_api(self, name):
        # every row, and each row as a one-row listing of its bits, is what
        # kappa_bits and pi1_spin give for the colouring
        m = self.LISTINGS[name]
        g = build_adm(m)
        rows = list(spin_rows(g))
        assert rows == [(kappa_bits(g, k), pi1_spin(m, k, force=True)) for k in enumerate_kappa(g)]
        assert rows == spin_rows_dense(m)
        for bits, value in rows:
            assert list(spin_rows(g, bits)) == [(bits, value)]

    @pytest.mark.parametrize("argv", [["--all"], ["--kappa", ""]], ids=["all", "kappa"])
    def test_no_free_component_lists_empty_bits(self, argv, monkeypatch):
        # the one colouring's bits are empty, printed as "-"
        m = self.LISTINGS["red"]
        assert list(spin_rows(build_adm(m))) == [("", AbelianInvariants(0, ()))]
        monkeypatch.setattr("sys.stdin", io.StringIO(m.to_plain_text()))
        out, err = io.StringIO(), io.StringIO()
        assert run(["spin", *argv, "--matrix", "-"], out, err) == 0, err.getvalue()
        assert out.getvalue() == "admissible colourings: 1\nkappa -: pi1(Spin) = 1\n"

    def test_extreme_kappas(self):
        for name in ["B3", "F4", "E10", "C2~"]:
            m = from_named(name)
            g = build_adm(m)
            n_b = g.colours.count("b")
            assert len(pi1_spin(m, kappa_constant(g, 1), force=True).torsion) == n_b
            assert len(pi1_spin(m, kappa_constant(g, 2), force=True).torsion) == 0


class TestBlueComponentOrder:
    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4"])
    def test_blue_component_order(self, name):
        # a blue component's group, the flag group with every vertex outside
        # it killed, has order 2^(|C|+1)
        m = from_named(name)
        graph = build_adm(m)
        for comp, colour in zip(graph.components, graph.colours):
            if colour != "b":
                continue
            outside = set(range(m.n)).difference(comp)
            order = todd_coxeter(flag_presentation(m, outside)).order
            assert order == 2 ** (len(comp) + 1)


class TestPi1Flag:
    def test_a3_singleton(self):
        info = pi1_flag(from_named("A3"), (0,))
        assert info.parabolic == (0,)
        assert info.closed_form == AbelianInvariants(0, (2, 2))
        assert info.order.order == 4
        assert str(info.invariants) == "C2^2"
        assert info.invariants.flat() == "C2 x C2"

    def test_full_parabolic_trivial(self):
        info = pi1_flag(from_named("B3"), (0, 1, 2))
        assert info.order.order == 1
        assert info.invariants.free_rank == 0
        assert info.invariants.torsion == ()

    def test_b3_empty(self):
        info = pi1_flag(from_named("B3"), ())
        assert info.order.order == 16

    def test_infinite_detected_without_enumeration(self, coset_tables):
        # a positive free rank fails the index bound before any table is built
        info = pi1_flag(from_named("C2"), ())
        assert info.order == EnumerationResult.exhausted(DEFAULT_MAX_COSETS)
        assert info.invariants.free_rank == 1
        assert coset_tables == []

    def test_one_parabolic_never_enumerates_the_full_group(self, coset_tables):
        # A8's flag group at J = {1} has order 2^7 and is enumerated alone:
        # one table, closed and compacted to its 128 cosets, where the full
        # flag group's would have 512
        info = pi1_flag(from_named("A8"), (0,))
        assert info.order == EnumerationResult.finite(128)
        assert [len(ct.table) for ct in coset_tables] == [128]

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "A2~", "C2~"])
    def test_closed_form_is_the_predicted_abelianization(self, name):
        # the closed form is Z per green component times C2 per red vertex,
        # the abelianization check_flag predicts from the colours; a blue
        # component leaves both the abelianization check and the closed form out
        m = from_named(name)
        groups = kmfg.fpgroup.FlagGroups(m)
        for J in [()] + [(k,) for k in range(m.n)]:
            graph = build_adm(m, J)
            check = kmfg.fpgroup.check_flag(groups, J, graph.colours)
            expected = check.closed_form
            blue = "b" in graph.colours
            names = [name for name, _, _ in check.checks]
            assert (expected is None) == blue == ("abelianization" not in names)
            closed_form = pi1_flag(m, J).closed_form
            if blue:
                assert closed_form is None
            else:
                assert expected == check.invariants
                red = sum(
                    len(comp)
                    for comp, colour in zip(graph.components, graph.colours)
                    if colour == "r"
                )
                assert closed_form == AbelianInvariants(graph.colours.count("g"), (2,) * red)

    def test_gate(self):
        with pytest.raises(HypothesisError):
            pi1_flag(NEITHER, ())


class TestFullReport:
    def test_d4(self):
        report = full_report(from_named("D4"))
        assert report.group == AbelianInvariants(0, (2,))
        spin = dict(report.spin)
        assert spin["1"] == AbelianInvariants(0, (2,))
        assert spin["2"] == AbelianInvariants(0, ())
        for J, info in report.flags.items():
            if J:
                assert info.closed_form == AbelianInvariants(0, (2,) * (4 - len(J)))

    def test_g2(self):
        assert full_report(from_named("G2")).group == AbelianInvariants(0, (2,))

    def test_diagram_x(self):
        report = full_report(diagram_x())
        assert report.group == AbelianInvariants(2, (2, 2))

    def test_contributions_sum(self):
        for name in ["B3", "C4", "F4", "E10"]:
            report = full_report(from_named(name))
            assert report.contributions.count("Z") == report.group.free_rank
            assert report.contributions.count("C2") == len(report.group.torsion)

    def test_reducible_reported_as_product(self):
        m = direct_sum(from_named("A1"), from_named("A2"))
        report = full_report(m)
        assert not report.hypotheses.irreducible
        assert report.group == AbelianInvariants(1, (2,))

    def test_json_schema(self):
        data = _cli_json(["pi1", "--full", "--type", "B3"])
        assert data["pi1_G"] == {"z": 0, "c2": 1}
        assert data["pi1_K"] == {"z": 0, "c2": 1}
        assert data["pi1_K_caveat"] is False
        assert data["components"] == [
            {"vertices": [1, 2], "colour": "b", "contribution": "C2"},
            {"vertices": [3], "colour": "r", "contribution": "1"},
        ]
        assert {entry["kappa"] for entry in data["spin"]} == {"1", "2"}
        assert set(data["flags"]) == {"", "1", "2", "3"}
        assert data["flags"][""]["order"] == {"status": "finite", "order": 16}
        assert data["flags"][""]["abelian"] == {"z": 0, "torsion": [2, 2, 2]}
