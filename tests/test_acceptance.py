"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every comparison is exact; there are no tolerances.
"""

import itertools
import random
from contextlib import contextmanager

from kmfg import (
    AbelianInvariants,
    GeneralizedCartanMatrix,
    WeylGroup,
    abelianization,
    build_adm,
    cw_presentation,
    enumerate_kappa,
    flag_presentation,
    from_named,
    is_symmetrizable,
    is_two_spherical,
    kappa_constant,
    pi1_group,
    pi1_spin,
    todd_coxeter,
)
from kmfg.cli import run as cli_run
from kmfg.coxeter import is_positive_root_vector
import io

from oracles import (
    all_permutations,
    all_reduced_words,
    bruhat_oracle,
    degree_product_coeffs,
    diagram_x,
    q_factorial_coeffs,
)

CAP = 100_000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_spherical_table():
    with criterion(1, "spherical pi1 table"):
        table = [("A1", AbelianInvariants(1, ())), ("B2", AbelianInvariants(1, ())),
                 ("F4", AbelianInvariants(0, (2,))), ("G2", AbelianInvariants(0, (2,)))]
        table += [(f"A{n}", AbelianInvariants(0, (2,))) for n in range(2, 9)]
        table += [(f"B{n}", AbelianInvariants(0, (2,))) for n in range(3, 9)]
        table += [(f"C{n}", AbelianInvariants(1, ())) for n in range(2, 9)]
        table += [(f"D{n}", AbelianInvariants(0, (2,))) for n in range(4, 9)]
        for name, expected in table:
            assert pi1_group(from_named(name)) == expected, name


def test_criterion_2_indefinite_examples():
    with criterion(2, "indefinite examples E10 and the rank-16 diagram"):
        assert pi1_group(from_named("E10")) == AbelianInvariants(0, (2,))
        assert pi1_group(diagram_x()) == AbelianInvariants(2, (2, 2))


def test_criterion_3_spin_covers():
    with criterion(3, "spin covers of simply-laced diagrams"):
        for name in ["A2", "A3", "A4", "A5", "D4", "E6", "E10"]:
            m = from_named(name)
            graph = build_adm(m)
            assert len(enumerate_kappa(graph)) == 2, name
            assert pi1_spin(m, kappa_constant(graph, 2)) == AbelianInvariants(0, ()), name
            assert pi1_spin(m, kappa_constant(graph, 1)) == AbelianInvariants(0, (2,)), name


def test_criterion_4_component_group_orders():
    with criterion(4, "component-group orders by coset enumeration"):
        # a component's group is the flag group with the vertices outside
        # it killed: none for these single blue components
        for name, order in [("A2", 8), ("A3", 16), ("A4", 32), ("D4", 32)]:
            m = from_named(name)
            result = todd_coxeter(flag_presentation(m, ()), max_cosets=CAP)
            assert result.is_finite and result.order == order, name
        # and vertex n for the red component {1..n-1} of C_n
        for n in range(2, 6):
            m = from_named(f"C{n}")
            presentation = flag_presentation(m, (n - 1,))
            result = todd_coxeter(presentation, max_cosets=CAP)
            assert result.is_finite and result.order == 2 ** (n - 1), n
            assert abelianization(presentation) == AbelianInvariants(
                0, (2,) * (n - 1)
            ), n


def test_criterion_5_flag_varieties():
    with criterion(5, "flag-variety pi1 for A_n and the B3 product"):
        for n in range(1, 6):
            m = from_named(f"A{n}")
            for r in range(1, n + 1):
                for J in itertools.combinations(range(n), r):
                    presentation = flag_presentation(m, J)
                    expected = AbelianInvariants(0, (2,) * (n - r))
                    assert abelianization(presentation) == expected, (n, J)
                    result = todd_coxeter(presentation, max_cosets=CAP)
                    assert result.is_finite and result.order == 2 ** (n - r), (n, J)
        b3 = todd_coxeter(flag_presentation(from_named("B3"), ()), max_cosets=CAP)
        assert b3.is_finite and b3.order == 16


def _finite_expected(m, graph, J):
    green = [comp[0] for comp, col in zip(graph.components, graph.colours) if col == "g"]
    return all(v in J for v in green)


def test_criterion_6_presentation_cross_check():
    with criterion(6, "two-skeleton vs full presentation on the corpus"):
        small = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                 "C2", "C3", "C4", "C5", "D4", "D5", "F4", "G2", "A1~"]
        for name in small:
            m = from_named(name)
            graph = build_adm(m)
            for r in range(m.n + 1):
                for J in itertools.combinations(range(m.n), r):
                    full = flag_presentation(m, J)
                    skeleton = cw_presentation(m, J)
                    assert abelianization(full) == abelianization(skeleton), (name, J)
                    if _finite_expected(m, graph, J):
                        o1 = todd_coxeter(full, max_cosets=CAP)
                        o2 = todd_coxeter(skeleton, max_cosets=CAP)
                        assert o1.is_finite and o2.is_finite, (name, J)
                        assert o1.order == o2.order, (name, J)
        # rank 10: abelianizations over every subset, orders on a sample
        m = from_named("E10")
        for r in range(11):
            for J in itertools.combinations(range(10), r):
                assert abelianization(flag_presentation(m, J)) == abelianization(
                    cw_presentation(m, J)
                ), J
        rng = random.Random(2024)
        sampled = [(), tuple(range(10))] + [
            tuple(sorted(rng.sample(range(10), rng.randint(1, 9)))) for _ in range(20)
        ]
        for J in sampled:
            o1 = todd_coxeter(flag_presentation(m, J), max_cosets=CAP)
            o2 = todd_coxeter(cw_presentation(m, J), max_cosets=CAP)
            assert o1.is_finite and o2.is_finite and o1.order == o2.order, J


def test_criterion_7_weyl_engine_vs_brute_force():
    with criterion(7, "Weyl engine vs brute force"):
        for name, order in [("A2", 6), ("A3", 24), ("B2", 8), ("C2", 8),
                            ("B3", 48), ("G2", 12)]:
            group = WeylGroup(from_named(name))
            elements = group.elements_up_to(order)  # generous length bound
            assert len(elements) == order, name
        for n in (2, 3, 4):
            coeffs = q_factorial_coeffs(n)
            group = WeylGroup(from_named(f"A{n}"))
            assert group.cell_counts((), len(coeffs)) == dict(enumerate(coeffs))
        for name, degrees in [("B2", [2, 4]), ("C2", [2, 4]),
                              ("B3", [2, 4, 6]), ("G2", [2, 6])]:
            coeffs = degree_product_coeffs(degrees)
            group = WeylGroup(from_named(name))
            assert group.cell_counts((), len(coeffs)) == dict(enumerate(coeffs))
        for n in (3, 4):
            group = WeylGroup(from_named(f"A{n - 1}"))
            cache = {}
            elements = {
                p: group.from_word(all_reduced_words(p, cache)[0])
                for p in all_permutations(n)
            }
            for u, w in itertools.product(elements, repeat=2):
                assert elements[u].bruhat_leq(elements[w]) == bruhat_oracle(
                    u, w, cache
                ), (u, w)
        affine = WeylGroup(from_named("A1~"))
        short = affine.elements_up_to(4)
        for u in short:
            for w in short:
                if u.weak_leq(w):
                    assert u.bruhat_leq(w)


def test_criterion_8_root_sequences():
    with criterion(8, "root sequences of reduced and non-reduced words"):
        for n in (3, 4):
            group = WeylGroup(from_named(f"A{n - 1}"))
            cache = {}
            for p in all_permutations(n):
                for word in all_reduced_words(p, cache):
                    sequence = group.root_sequence(word)
                    assert all(is_positive_root_vector(v) for v in sequence), word
                    assert len(set(sequence)) == len(sequence), word
        group = WeylGroup(from_named("A2"))
        rng = random.Random(88)
        non_reduced = 0
        while non_reduced < 100:
            word = tuple(rng.randrange(2) for _ in range(rng.randint(2, 10)))
            product_length = group.from_word(word).length
            by_length = product_length == len(word)
            assert group.is_reduced(word) == by_length
            by_roots = all(
                is_positive_root_vector(v) for v in group.root_sequence(word)
            )
            assert by_roots == by_length
            if not by_length:
                non_reduced += 1


def test_criterion_9_cell_counts():
    with criterion(9, "flag-variety cell counts"):
        a2 = WeylGroup(from_named("A2"))
        assert a2.cell_counts((), 3) == {0: 1, 1: 2, 2: 2, 3: 1}
        a3 = WeylGroup(from_named("A3"))
        assert a3.cell_counts((1, 2), 6) == {0: 1, 1: 1, 2: 1, 3: 1}
        affine = WeylGroup(from_named("A1~"))
        for bound in range(1, 7):
            expected = {0: 1}
            expected.update({k: 2 for k in range(1, bound + 1)})
            assert affine.cell_counts((), bound) == expected


def test_criterion_10_hypothesis_gate():
    with criterion(10, "hypothesis gate"):
        affine = GeneralizedCartanMatrix(((2, -2), (-2, 2)))
        assert not is_two_spherical(affine)
        assert is_symmetrizable(affine)
        assert pi1_group(affine) == AbelianInvariants(2, ())  # proceeds, no force needed

        rows = "3\n2 -2 -2\n-2 2 -1\n-1 -2 2\n"
        refused = GeneralizedCartanMatrix(((2, -2, -2), (-2, 2, -1), (-1, -2, 2)))
        assert not is_two_spherical(refused)
        assert not is_symmetrizable(refused)
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rows)
            out, err = io.StringIO(), io.StringIO()
            assert cli_run(["pi1", "--matrix", path], out, err) == 3
            assert err.getvalue().startswith("error[E301]:")
            out, err = io.StringIO(), io.StringIO()
            assert cli_run(["pi1", "--matrix", path, "--force"], out, err) == 0
