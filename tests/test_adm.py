import io
import json
import random

import pytest

from kmfg import (
    AbelianInvariants,
    GeneralizedCartanMatrix,
    build_adm,
    enumerate_kappa,
    from_named,
    kappa_constant,
    kappa_from_bits,
)
from kmfg.adm import kappa_bits, validate_kappa, KappaColouring
from kmfg.cli import run
from kmfg.errors import InadmissibleKappaError
from kmfg.pi1 import spin_rows

from oracles import diagram_x, direct_sum, kappa_brute_force

CORPUS = [
    "A1", "A2", "A5", "B2", "B3", "B5", "C2", "C3", "C5",
    "D4", "F4", "G2", "E6", "E10", "A1~", "C2~", "G2~",
]


def _cli(*argv) -> str:
    """stdout of a successful ``kmfg`` run."""
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), out, err) == 0, err.getvalue()
    return out.getvalue()


class TestBuild:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_a_n_single_blue(self, n):
        g = build_adm(from_named(f"A{n}"))
        assert g.components == (tuple(range(n)),)
        assert g.colours == ("b",)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_c_n_red_plus_green(self, n):
        g = build_adm(from_named(f"C{n}"))
        assert g.components == (tuple(range(n - 1)), (n - 1,))
        assert g.colours == ("r", "g")

    def test_b2(self):
        g = build_adm(from_named("B2"))
        assert g.components == ((0,), (1,))
        assert g.colours == ("g", "r")

    def test_f4_split(self):
        g = build_adm(from_named("F4"))
        assert g.components == ((0, 1), (2, 3))
        assert g.colours == ("r", "b")

    def test_diagram_x_components(self):
        g = build_adm(diagram_x())
        coloured = {comp: colour for comp, colour in zip(g.components, g.colours)}
        assert coloured == {
            (0, 1, 2): "r",
            (3, 6): "r",
            (4,): "r",
            (5,): "g",
            (7,): "g",
            (8, 11): "r",
            (9, 12, 15): "b",
            (10,): "r",
            (13, 14): "b",
        }

    @pytest.mark.parametrize("name", CORPUS)
    def test_partition_and_colour_classification(self, name):
        m = from_named(name)
        g = build_adm(m)
        seen = [v for comp in g.components for v in comp]
        assert sorted(seen) == list(range(m.n))
        assert len(seen) == m.n
        for comp, colour in zip(g.components, g.colours):
            assert colour in "rgb"
            if colour == "g":
                assert len(comp) == 1
            if colour == "b":
                assert len(comp) >= 2

    @pytest.mark.parametrize("name", ["A1", "A2", "A5", "D4", "E6", "E10"])
    def test_simply_laced_graph_is_the_diagram(self, name):
        m = from_named(name)
        g = build_adm(m)
        diagram = {(i, j) for i, row in enumerate(m.neighbours) for j, _ in row if i < j}
        assert set(g.edges) == diagram
        if m.n == 1:
            assert g.colours == ("g",)
        else:
            assert g.colours == ("b",)

    def test_relabelling_invariance(self):
        rng = random.Random(3)
        for name in ["B4", "C4", "F4", "G2~"]:
            m = from_named(name)
            base = build_adm(m)
            perm = list(range(m.n))
            rng.shuffle(perm)
            shuffled = GeneralizedCartanMatrix(
                tuple(
                    tuple(m.entry(perm[i], perm[j]) for j in range(m.n))
                    for i in range(m.n)
                )
            )
            g = build_adm(shuffled)
            # map the shuffled components back through the permutation
            mapped = {
                (tuple(sorted(perm[v] for v in comp)), colour)
                for comp, colour in zip(g.components, g.colours)
            }
            original = set(zip(base.components, base.colours))
            assert mapped == original


class TestKappa:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_n_two_colourings(self, n):
        g = build_adm(from_named(f"A{n}"))
        assert len(enumerate_kappa(g)) == 2

    def test_c_n_two_colourings(self):
        g = build_adm(from_named("C3"))
        ks = enumerate_kappa(g)
        assert [k.values for k in ks] == [(1, 1), (1, 2)]

    def test_three_colour_diagram_has_four(self):
        # components: b + r from F4, g from A1
        m = direct_sum(from_named("F4"), from_named("A1"))
        g = build_adm(m)
        assert sorted(zip(g.components, g.colours)) == [
            ((0, 1), "r"),
            ((2, 3), "b"),
            ((4,), "g"),
        ]
        assert len(enumerate_kappa(g)) == 4

    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_brute_force_oracle(self, name):
        m = from_named(name)
        g = build_adm(m)
        produced = {k.values for k in enumerate_kappa(g)}
        assert produced == kappa_brute_force(m)
        assert len(produced) == len(enumerate_kappa(g))  # no duplicates

    @pytest.mark.parametrize("name", CORPUS)
    def test_count_is_two_to_the_free(self, name):
        g = build_adm(from_named(name))
        free = g.colours.count("g") + g.colours.count("b")
        assert len(enumerate_kappa(g)) == 2**free

    def test_bit_order(self):
        m = direct_sum(from_named("A1"), from_named("A2"))  # g at 0, b at {1,2}
        g = build_adm(m)
        ks = enumerate_kappa(g)
        assert [k.values for k in ks] == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert [kappa_bits(g, k) for k in ks] == ["11", "21", "12", "22"]

    def test_from_bits_round_trip(self):
        g = build_adm(from_named("C3"))
        for k in enumerate_kappa(g):
            assert kappa_from_bits(g, kappa_bits(g, k)) == k

    def test_from_bits_errors(self):
        g = build_adm(from_named("C3"))
        with pytest.raises(InadmissibleKappaError):
            kappa_from_bits(g, "11")  # only one free component
        with pytest.raises(InadmissibleKappaError):
            kappa_from_bits(g, "3")

    @pytest.mark.parametrize("bits", [[2], ["2"], b"2", 2, None], ids=repr)
    def test_from_bits_must_be_a_string(self, bits):
        # a list of one value has the right length, and its item is not a
        # character to look up in "12"
        with pytest.raises(InadmissibleKappaError, match="^kappa bits must be a string"):
            kappa_from_bits(build_adm(from_named("C3")), bits)

    def test_inadmissible_rejected(self):
        g = build_adm(from_named("C3"))
        with pytest.raises(InadmissibleKappaError):
            validate_kappa(g, KappaColouring((2, 1)))  # 2 on the r component
        with pytest.raises(InadmissibleKappaError):
            validate_kappa(g, KappaColouring((1,)))

    def test_kappa_constant(self):
        g = build_adm(from_named("C3"))
        assert kappa_constant(g, 2).values == (1, 2)
        assert kappa_constant(g, 1).values == (1, 1)


class TestCounts:
    def test_e10(self):
        colours = build_adm(from_named("E10")).colours
        assert [colours.count(c) for c in "rgb"] == [0, 0, 1]

    def test_diagram_x(self):
        colours = build_adm(diagram_x()).colours
        assert (colours.count("g"), colours.count("b")) == (2, 2)
        assert colours.count("r") == 5

    def test_a2_with_kappa_2(self):
        g = build_adm(from_named("A2"))
        kappa = kappa_constant(g, 2)
        assert kappa.values.count(2) == 1
        # no blue component keeps kappa = 1, so the spin cover is simply connected
        assert list(spin_rows(g, kappa_bits(g, kappa))) == [("2", AbelianInvariants(0, ()))]

    def test_total(self):
        for name in CORPUS:
            g = build_adm(from_named(name))
            assert sum(g.colours.count(c) for c in "rgb") == len(g.components)


class TestDot:
    def test_a1_green(self):
        dot = _cli("adm", "--type", "A1", "--dot")
        assert "fillcolor=green" in dot
        assert "--" not in dot

    def test_a2_blue_edge(self):
        dot = _cli("adm", "--type", "A2", "--dot")
        assert dot.count("fillcolor=blue") == 2
        assert "v1 -- v2;" in dot

    def test_c3(self):
        dot = _cli("adm", "--type", "C3", "--dot")
        assert dot.count("fillcolor=red") == 2
        assert dot.count("fillcolor=green") == 1
        assert "v1 -- v2;" in dot
        assert dot.count("--") == 1

    def test_deterministic(self):
        assert _cli("adm", "--type", "F4", "--dot") == _cli("adm", "--type", "F4", "--dot")


def test_report_json_shape():
    data = json.loads(_cli("adm", "--type", "C3", "--format", "json"))
    assert data["components"] == [
        {"vertices": [1, 2], "colour": "r"},
        {"vertices": [3], "colour": "g"},
    ]
    assert data["counts"] == {"n_r": 1, "n_g": 1, "n_b": 0}
