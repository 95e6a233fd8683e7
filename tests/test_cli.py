import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import kmfg
import kmfg.adm
import kmfg.cli
import kmfg.coxeter
import kmfg.fpgroup
from kmfg.cli import build_parser, run

from oracles import poly_mul


def invoke(argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    err = io.StringIO()
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestPi1Command:
    def test_e10(self):
        code, out, err = invoke(["pi1", "--type", "E10"])
        assert code == 0
        assert "pi1(G) = C2" in out
        assert err == ""

    def test_a1_json(self):
        code, out, _ = invoke(["pi1", "--type", "A1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["pi1_G"] == {"z": 1, "c2": 0}
        assert data["pi1_K"] == {"z": 1, "c2": 0}

    def test_f4_text(self):
        code, out, _ = invoke(["pi1", "--type", "F4"])
        assert code == 0
        assert out.splitlines()[0] == "pi1(G) = C2"

    def test_full_report(self):
        code, out, _ = invoke(["pi1", "--type", "B3", "--full"])
        assert code == 0
        assert "pi1(G) = C2" in out
        assert "flag J={}" in out

    def test_full_report_json(self):
        code, out, _ = invoke(["pi1", "--type", "D4", "--full", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["pi1_G"] == {"z": 0, "c2": 1}
        assert len(data["spin"]) == 2

    FULL_CAPPED = ["pi1", "--type", "B3", "--full", "--max-cosets", "8"]
    CAP_8 = "error[E401]: coset enumeration exhausted the cap 8\n"

    def test_full_capped_text_exit_4(self):
        # the full report is still written; the open orders then give exit 4
        assert invoke(self.FULL_CAPPED) == (
            4,
            "hypotheses: irreducible=yes symmetrizable=yes two-spherical=yes spherical=yes\n"
            "component {1,2}: colour b, contributes C2\n"
            "component {3}: colour r, contributes 1\n"
            "pi1(G) = C2\n"
            "pi1(K) = C2\n"
            "spin kappa=1: pi1 = C2\n"
            "spin kappa=2: pi1 = 1\n"
            "flag J={}: abelianization C2 x C2 x C2, order Exhausted(8)\n"
            "flag J={1}: abelianization C2 x C2, order Finite(4)\n"
            "flag J={2}: abelianization C2 x C2, order Finite(4)\n"
            "flag J={3}: abelianization C2 x C2, order Exhausted(8)\n",
            self.CAP_8,
        )

    def test_full_capped_json_exit_4(self):
        code, out, err = invoke(self.FULL_CAPPED + ["--format", "json"])
        assert (code, err) == (4, self.CAP_8)
        orders = {J: flag["order"] for J, flag in json.loads(out)["flags"].items()}
        exhausted = {"status": "exhausted", "limit": 8}
        finite = {"status": "finite", "order": 4}
        assert orders == {"": exhausted, "1": finite, "2": finite, "3": exhausted}

    def test_caveat_json_exact(self, monkeypatch):
        expected = {
            "pi1_G": {"z": 0, "c2": 1},
            "pi1_K": {"z": 0, "c2": 1},
            "pi1_K_caveat": True,
        }
        assert invoke(
            ["pi1", "--matrix", "-", "--format", "json"],
            TestPi1FullExact.NOT_SYMMETRIZABLE,
            monkeypatch,
        ) == (0, json.dumps(expected, indent=2) + "\n", "")


class TestInfoCommand:
    def test_c3_json_exact(self):
        expected = {
            "rank": 3,
            "hypotheses": {
                "irreducible": True,
                "symmetrizable": True,
                "two_spherical": True,
                "spherical": True,
            },
            "adm": {
                "components": [
                    {"vertices": [1, 2], "colour": "r"},
                    {"vertices": [3], "colour": "g"},
                ],
                "counts": {"n_r": 1, "n_g": 1, "n_b": 0},
            },
        }
        assert invoke(["info", "--type", "C3", "--format", "json"]) == (
            0,
            json.dumps(expected, indent=2) + "\n",
            "",
        )


class TestPi1FullExact:
    """Exact ``pi1 --full`` output where the caveat and reducible fields
    show."""

    # two-spherical, not symmetrizable: pi1(K) carries the caveat
    NOT_SYMMETRIZABLE = "3\n2 -1 -1\n-3 2 -1\n-1 -1 2\n"
    # A2 + A1
    REDUCIBLE = "3\n2 -1 0\n-1 2 0\n0 0 2\n"

    @staticmethod
    def _flags(rows):
        """JSON ``flags`` from (label, torsion, free rank, order or None,
        closed form as (z, c2) or None)."""
        return {
            label: {
                "abelian": {"z": z, "torsion": torsion},
                "order": (
                    {"status": "infinite"}
                    if order is None
                    else {"status": "finite", "order": order}
                ),
                "closed_form": (
                    None if closed is None else {"z": closed[0], "c2": closed[1]}
                ),
            }
            for label, torsion, z, order, closed in rows
        }

    def _run(self, tmp_path, rows, *argv):
        path = tmp_path / "m.txt"
        path.write_text(rows)
        return invoke(["pi1", "--full", "--matrix", str(path), *argv])

    def test_not_symmetrizable_text(self, tmp_path):
        assert self._run(tmp_path, self.NOT_SYMMETRIZABLE) == (
            0,
            "hypotheses: irreducible=yes symmetrizable=no two-spherical=yes "
            "spherical=no\n"
            "component {1,2,3}: colour b, contributes C2\n"
            "pi1(G) = C2\n"
            "pi1(K) = C2\n"
            "note: not symmetrizable; the value is established for K, the "
            "identification with pi1(G) is not\n"
            "spin kappa=1: pi1 = C2\n"
            "spin kappa=2: pi1 = 1\n"
            "flag J={}: abelianization C2 x C2 x C2, order Finite(16)\n"
            "flag J={1}: abelianization C2 x C2, order Finite(4)\n"
            "flag J={2}: abelianization C2 x C2, order Finite(4)\n"
            "flag J={3}: abelianization C2 x C2, order Finite(4)\n",
            "",
        )

    def test_not_symmetrizable_json(self, tmp_path):
        expected = {
            "hypotheses": {
                "irreducible": True,
                "symmetrizable": False,
                "two_spherical": True,
                "spherical": False,
            },
            "components": [{"vertices": [1, 2, 3], "colour": "b", "contribution": "C2"}],
            "pi1_G": {"z": 0, "c2": 1},
            "pi1_K": {"z": 0, "c2": 1},
            "pi1_K_caveat": True,
            "spin": [{"kappa": "1", "z": 0, "c2": 1}, {"kappa": "2", "z": 0, "c2": 0}],
            "flags": self._flags(
                [("", [2, 2, 2], 0, 16, None)]
                + [(label, [2, 2], 0, 4, (0, 2)) for label in ("1", "2", "3")]
            ),
        }
        code, out, err = self._run(tmp_path, self.NOT_SYMMETRIZABLE, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_reducible_text(self, tmp_path):
        assert self._run(tmp_path, self.REDUCIBLE) == (
            0,
            "hypotheses: irreducible=no symmetrizable=yes two-spherical=yes "
            "spherical=yes\n"
            "note: reducible diagram; the answers are the products over the "
            "irreducible factors\n"
            "component {1,2}: colour b, contributes C2\n"
            "component {3}: colour g, contributes Z\n"
            "pi1(G) = Z x C2\n"
            "pi1(K) = Z x C2\n"
            "spin kappa=11: pi1 = Z x C2\n"
            "spin kappa=21: pi1 = Z\n"
            "spin kappa=12: pi1 = Z x C2\n"
            "spin kappa=22: pi1 = Z\n"
            "flag J={}: abelianization Z x C2 x C2, order infinite\n"
            "flag J={1}: abelianization Z x C2, order infinite\n"
            "flag J={2}: abelianization Z x C2, order infinite\n"
            "flag J={3}: abelianization C2 x C2, order Finite(8)\n",
            "",
        )

    def test_reducible_json(self, tmp_path):
        expected = {
            "hypotheses": {
                "irreducible": False,
                "symmetrizable": True,
                "two_spherical": True,
                "spherical": True,
            },
            "components": [
                {"vertices": [1, 2], "colour": "b", "contribution": "C2"},
                {"vertices": [3], "colour": "g", "contribution": "Z"},
            ],
            "pi1_G": {"z": 1, "c2": 1},
            "pi1_K": {"z": 1, "c2": 1},
            "pi1_K_caveat": False,
            "spin": [
                {"kappa": bits, "z": 1, "c2": c2}
                for bits, c2 in (("11", 1), ("21", 0), ("12", 1), ("22", 0))
            ],
            "flags": self._flags(
                [("", [2, 2], 1, None, None), ("1", [2], 1, None, (1, 1)),
                 ("2", [2], 1, None, (1, 1)), ("3", [2, 2], 0, 8, None)]
            ),
            "reducible": True,
        }
        code, out, err = self._run(tmp_path, self.REDUCIBLE, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"


class TestInputHandling:
    def test_matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n2 -1\n-1 2\n")
        code, out, _ = invoke(["pi1", "--matrix", str(path)])
        assert code == 0
        assert "pi1(G) = C2" in out

    def test_matrix_stdin(self, monkeypatch):
        code, out, _ = invoke(
            ["pi1", "--matrix", "-"], stdin="2\n2 -1\n-1 2\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert "pi1(G) = C2" in out

    def test_json_matrix_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"size": 2, "entries": [[2, -3], [-1, 2]]}')
        code, out, _ = invoke(["pi1", "--matrix", str(path)])
        assert code == 0

    def test_json_boolean_size_exit_2(self, tmp_path):
        # a JSON true is not a rank, as it is not an entry
        path = tmp_path / "m.json"
        path.write_text('{"size": true, "entries": [[2]]}')
        assert invoke(["info", "--matrix", str(path)]) == (
            2,
            "",
            "error[E201]: 'size' must be a positive integer, got True\n",
        )

    def test_invalid_matrix_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n2 -1\n0 2\n")
        code, out, err = invoke(["pi1", "--matrix", str(path)])
        assert code == 2
        assert err.startswith("error[E201]:")

    def test_zero_symmetry_at_the_nonzero_entry_exit_2(self, monkeypatch):
        assert invoke(["info", "--matrix", "-"], stdin="2\n2 0\n-1 2\n",
                      monkeypatch=monkeypatch) == (
            2,
            "",
            "error[E201]: a[2][1] = -1 but a[1][2] = 0\n",
        )

    def test_json_row_not_a_list_exit_2(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"size": 2, "entries": [[2, -1], 5]}')
        assert invoke(["info", "--matrix", str(path)]) == (
            2,
            "",
            "error[E201]: each row must be a list of 2 integers\n",
        )

    def test_missing_file_exit_2(self):
        code, _, err = invoke(["pi1", "--matrix", "/nonexistent/m.txt"])
        assert code == 2
        assert err.startswith("error[E201]:")

    def test_undecodable_file_exit_2(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2\n2 -1\n-1 2\xff\n")
        code, out, err = invoke(["info", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error[E203]: 'utf-8' codec can't decode")

    def test_json_nested_past_the_recursion_limit_exit_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"size": ' + "[" * 100_000)
        code, out, err = invoke(["info", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err == "error[E203]: JSON input nested too deeply\n"

    def test_integer_past_the_digit_limit_exit_2(self):
        code, out, err = invoke(["info", "--type", "A" + "1" * 5000])
        assert (code, out) == (2, "")
        assert err.startswith("error[E203]: Exceeds the limit")

    def test_rank_past_the_named_limit_exit_2(self):
        # refused before the n x n matrix is allocated
        code, out, err = invoke(["info", "--type", "A50000"])
        assert (code, out) == (2, "")
        assert err == "error[E202]: a named diagram has rank at most 1000, got 50000\n"

    def test_affine_node_counts_toward_the_named_limit(self):
        code, out, err = invoke(["info", "--type", "A1000~"])
        assert (code, out) == (2, "")
        assert err == "error[E202]: a named diagram has rank at most 1000, got 1001\n"

    def test_unknown_name_exit_2(self):
        code, _, err = invoke(["pi1", "--type", "H3"])
        assert code == 2
        assert err.startswith("error[E202]:")

    def test_no_input_usage_error(self):
        code, _, err = invoke(["pi1"])
        assert code == 1
        assert err.startswith("error[E101]:")

    def test_both_inputs_usage_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n2\n")
        code, _, err = invoke(["pi1", "--type", "A1", "--matrix", str(path)])
        assert code == 1

    def test_unknown_command_usage_error(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 1
        assert err.startswith("error[E101]:")


class TestHypothesisGate:
    ROWS = "3\n2 -2 -2\n-2 2 -1\n-1 -2 2\n"

    def test_refused_exit_3(self, tmp_path):
        path = tmp_path / "ns.txt"
        path.write_text(self.ROWS)
        code, _, err = invoke(["pi1", "--matrix", str(path)])
        assert code == 3
        assert err.startswith("error[E301]:")

    @pytest.mark.parametrize(
        "bits, code, error", [("x", 2, "E203"), ("11", 2, "E203"), ("2", 3, "E301")]
    )
    def test_malformed_kappa_refused_before_the_gate(self, bits, code, error, monkeypatch):
        # the one free component is {2}: malformed bits are an input error
        # even where the gate refuses, and well-formed ones meet the gate
        done = invoke(["spin", "--kappa", bits, "--matrix", "-"], self.ROWS, monkeypatch)
        assert done[:2] == (code, "")
        assert done[2].startswith(f"error[{error}]:")

    def test_forced_exit_0(self, tmp_path):
        path = tmp_path / "ns.txt"
        path.write_text(self.ROWS)
        code, out, _ = invoke(["pi1", "--matrix", str(path), "--force"])
        assert code == 0
        assert "pi1(G) = Z" in out


class TestSpinCommand:
    def test_all_lists_every_colouring(self):
        code, out, _ = invoke(["spin", "--type", "B3", "--all"])
        assert code == 0
        assert "admissible colourings: 2" in out

    def test_count_matches_formula(self):
        for name, free in [("A3", 1), ("B3", 1), ("C3", 1), ("C2~", 2)]:
            code, out, _ = invoke(["spin", "--type", name, "--format", "json"])
            assert code == 0
            assert len(json.loads(out)["spin"]) == 2**free

    def test_single_kappa(self):
        code, out, _ = invoke(["spin", "--type", "A3", "--kappa", "2"])
        assert code == 0
        assert "kappa 2: pi1(Spin) = 1" in out

    def test_bad_kappa(self):
        code, _, err = invoke(["spin", "--type", "A3", "--kappa", "22"])
        assert code == 2
        assert err.startswith("error[E203]:")

    def test_kappa_and_all_conflict(self):
        code, _, err = invoke(["spin", "--type", "A3", "--kappa", "2", "--all"])
        assert code == 1

    def test_kappa_and_all_conflict_before_input(self, monkeypatch):
        # the usage error comes before the name or stdin is read
        message = "error[E101]: --kappa and --all are mutually exclusive\n"
        assert invoke(["spin", "--type", "H3", "--kappa", "1", "--all"]) == (1, "", message)
        assert invoke(
            ["spin", "--matrix", "-", "--kappa", "1", "--all"], "not a matrix", monkeypatch
        ) == (1, "", message)

    def test_reducible_all_json_exact(self, monkeypatch):
        # A2 + A1: the blue component's bit sets C2, the green one's does not
        expected = {
            "spin": [
                {"kappa": bits, "z": 1, "c2": c2}
                for bits, c2 in (("11", 1), ("21", 0), ("12", 1), ("22", 0))
            ],
            "reducible": True,
        }
        assert invoke(
            ["spin", "--all", "--force", "--format", "json", "--matrix", "-"],
            TestPi1FullExact.REDUCIBLE,
            monkeypatch,
        ) == (0, json.dumps(expected, indent=2) + "\n", "")


class TestFlagCommand:
    def test_a3_singleton(self):
        code, out, _ = invoke(["flag", "--type", "A3", "--set", "1"])
        assert code == 0
        assert out.splitlines()[0] == "pi1(G/P_J) = C2^2"

    def test_empty_set(self):
        code, out, _ = invoke(["flag", "--type", "B3"])
        assert code == 0
        assert "order: 16" in out

    def test_json(self):
        code, out, _ = invoke(
            ["flag", "--type", "A3", "--set", "1,3", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["J"] == [1, 3]
        assert data["order"] == {"status": "finite", "order": 2}

    def test_out_of_range_set(self):
        code, _, err = invoke(["flag", "--type", "A3", "--set", "9"])
        assert code == 2
        assert err.startswith("error[E203]:")

    def test_set_not_integers_exit_2(self):
        assert invoke(["flag", "--type", "A3", "--set", "x"]) == (
            2,
            "",
            "error[E203]: --set must be a comma list of integers, got 'x'\n",
        )

    def test_env_cap_below_1_exit_1(self, monkeypatch):
        monkeypatch.setenv("KMFG_MAX_COSETS", "0")
        assert invoke(["flag", "--type", "A3", "--set", "1"]) == (
            1,
            "",
            "error[E101]: KMFG_MAX_COSETS must be >= 1, got 0\n",
        )

    def test_cap_exhaustion_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KMFG_MAX_COSETS", "4")
        code, out, err = invoke(["flag", "--type", "A2"])
        assert code == 4
        assert err.startswith("error[E401]:")
        assert "coset table capped at 4" in out  # partial output on stdout

    def test_flag_option_beats_env(self, monkeypatch):
        monkeypatch.setenv("KMFG_MAX_COSETS", "4")
        code, out, _ = invoke(["flag", "--type", "A2", "--max-cosets", "100"])
        assert code == 0
        assert "order: 8" in out

    @staticmethod
    def _json(J, z, torsion, order, closed_form):
        payload = {
            "J": J,
            "abelian": {"z": z, "torsion": torsion},
            "order": order,
            "closed_form": closed_form,
        }
        return json.dumps(payload, indent=2) + "\n"

    def test_closed_form_json_exact(self):
        assert invoke(["flag", "--type", "A3", "--set", "1", "--format", "json"]) == (
            0,
            self._json(
                [1], 0, [2, 2], {"status": "finite", "order": 4}, {"z": 0, "c2": 2}
            ),
            "",
        )

    def test_infinite_json_exact(self):
        assert invoke(["flag", "--type", "C2", "--set", "", "--format", "json"]) == (
            0,
            self._json([], 1, [2], {"status": "infinite"}, {"z": 1, "c2": 1}),
            "",
        )

    def test_exhausted_json_exact(self):
        assert invoke(
            ["flag", "--type", "B3", "--max-cosets", "8", "--format", "json"]
        ) == (
            4,
            self._json([], 0, [2, 2, 2], {"status": "exhausted", "limit": 8}, None),
            "error[E401]: coset enumeration exhausted the cap 8\n",
        )


class TestWeylCommand:
    def test_histogram(self):
        code, out, _ = invoke(["weyl", "--type", "A2", "--max-length", "3"])
        assert code == 0
        assert out == "length 0: 1\nlength 1: 2\nlength 2: 2\nlength 3: 1\ntotal: 6\n"

    def test_negative_max_length_exit_2(self):
        assert invoke(["weyl", "--type", "A2", "--max-length", "-1"]) == (
            2,
            "",
            "error[E203]: --max-length must be >= 0\n",
        )

    def test_cells_json(self):
        code, out, _ = invoke(
            ["weyl", "--type", "A2", "--max-length", "3", "--parabolic", "2",
             "--cells", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"0": 1, "1": 1, "2": 1}

    def test_closure(self):
        code, out, _ = invoke(
            ["weyl", "--type", "A2", "--max-length", "3", "--closure", "1,2"]
        )
        assert code == 0
        assert out.splitlines() == [
            "length 0: e",
            "length 1: 1",
            "length 1: 2",
            "length 2: 1,2",
        ]

    def test_cells_and_closure_conflict(self):
        code, _, err = invoke(
            ["weyl", "--type", "A2", "--max-length", "3", "--cells",
             "--closure", "1"]
        )
        assert code == 1
        assert err.startswith("error[E101]:")

    def test_cells_and_closure_conflict_before_input(self, monkeypatch):
        message = "error[E101]: --cells and --closure are mutually exclusive\n"
        argv = ["weyl", "--max-length", "3", "--cells", "--closure", "1"]
        assert invoke([*argv, "--type", "H3"]) == (1, "", message)
        assert invoke([*argv, "--matrix", "-"], "not a matrix", monkeypatch) == (
            1,
            "",
            message,
        )

    def test_closure_rejects_non_minimal(self):
        code, _, err = invoke(
            ["weyl", "--type", "A2", "--max-length", "3", "--parabolic", "2",
             "--closure", "2"]
        )
        assert code == 2

    def test_element_cap_exit_4(self):
        code, _, err = invoke(
            ["weyl", "--type", "A1~", "--max-length", "50", "--cap", "10"]
        )
        assert code == 4
        assert err.startswith("error[E401]:")

    D4_CELLS = ["weyl", "--type", "D4", "--parabolic", "1,3", "--max-length", "8"]
    A3_AFFINE_CLOSURE = [
        "weyl", "--type", "A3~", "--parabolic", "2", "--closure", "2,1,3,4",
        "--max-length", "4",
    ]
    A3_AFFINE_CLOSURE_WORDS = [
        [], [1], [3], [4], [1, 3], [1, 4], [2, 1], [2, 3], [3, 4], [1, 3, 4],
        [2, 1, 3], [2, 1, 4], [2, 3, 4], [2, 1, 3, 4],
    ]

    def test_parabolic_histogram_text_exact(self):
        assert invoke(self.D4_CELLS) == (
            0,
            "length 0: 1\nlength 1: 2\nlength 2: 4\nlength 3: 6\nlength 4: 7\n"
            "length 5: 8\nlength 6: 7\nlength 7: 6\nlength 8: 4\ntotal: 45\n",
            "",
        )

    def test_parabolic_histogram_json_exact(self):
        expected = {str(k): v for k, v in enumerate([1, 2, 4, 6, 7, 8, 7, 6, 4])}
        assert invoke(self.D4_CELLS + ["--format", "json"]) == (
            0, json.dumps(expected, indent=2) + "\n", ""
        )

    def test_parabolic_closure_text_exact(self):
        assert invoke(self.A3_AFFINE_CLOSURE) == (
            0,
            "length 0: e\nlength 1: 1\nlength 1: 3\nlength 1: 4\n"
            "length 2: 1,3\nlength 2: 1,4\nlength 2: 2,1\nlength 2: 2,3\nlength 2: 3,4\n"
            "length 3: 1,3,4\nlength 3: 2,1,3\nlength 3: 2,1,4\nlength 3: 2,3,4\n"
            "length 4: 2,1,3,4\n",
            "",
        )

    def test_parabolic_closure_json_exact(self):
        expected = {"closure": self.A3_AFFINE_CLOSURE_WORDS}
        assert invoke(self.A3_AFFINE_CLOSURE + ["--format", "json"]) == (
            0, json.dumps(expected, indent=2) + "\n", ""
        )

    def test_cap_counts_cosets_not_elements(self):
        # 183 cells, where W(E8) has thousands of elements by length 5
        argv = ["weyl", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7", "--max-length", "14"]
        code, out, err = invoke(argv + ["--cap", "1000"])
        assert (code, err) == (0, "")
        assert out.endswith("length 14: 38\ntotal: 183\n")
        assert invoke(argv) == (code, out, err)

    def test_cap_counts_the_closure_interval(self):
        # 2,916 elements lie below this one; W(E8) passes 5,000 at length 7
        argv = ["weyl", "--type", "E8", "--closure", "1,2,3,4,5,6,7,8,2,3,4,5,6,7",
                "--max-length", "14"]
        code, out, err = invoke(argv + ["--cap", "5000"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2916
        assert invoke(argv) == (code, out, err)

    def test_memory_error_exit_4(self, monkeypatch):
        # a rank-1000 interval point is a tuple of 1,000 heights, so a
        # closure far under the element cap can still exhaust memory
        def exhausted(self, *args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(kmfg.coxeter.WeylGroup, "closure_cells", exhausted)
        argv = ["weyl", "--type", "A2", "--max-length", "3", "--closure", "1,2"]
        assert invoke(argv) == (4, "", "error[E401]: out of memory\n")


class TestCapValidation:
    """A cap below 1 is a usage error, not a resource failure, an input
    error, or a silent fallback to the default."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl", "--type", "A1~", "--max-length", "5", "--cap", "0"],
            ["weyl", "--type", "A1~", "--max-length", "5", "--cap", "-5"],
            ["pi1", "--type", "A3", "--full", "--max-cosets", "0"],
            ["pi1", "--type", "A3", "--full", "--max-cosets", "-3"],
            ["flag", "--type", "A3", "--max-cosets", "0"],
            ["verify", "--type", "A3", "--max-cosets", "-3"],
        ],
        ids=["cap-0", "cap-neg", "pi1-cosets-0", "pi1-cosets-neg", "flag-cosets-0",
             "verify-cosets-neg"],
    )
    def test_exit_1(self, argv):
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error[E101]:")
        assert "must be >= 1" in err

    def test_env_cap_read_only_where_cosets_are_enumerated(self, monkeypatch):
        # plain pi1 enumerates nothing, so a malformed KMFG_MAX_COSETS
        # leaves it alone; --full reads the variable and refuses it
        expected = invoke(["pi1", "--type", "A3"])
        assert expected[0] == 0
        monkeypatch.setenv("KMFG_MAX_COSETS", "abc")
        assert invoke(["pi1", "--type", "A3"]) == expected
        code, out, err = invoke(["pi1", "--type", "A3", "--full"])
        assert (code, out) == (1, "")
        assert err == "error[E101]: KMFG_MAX_COSETS must be an integer, got 'abc'\n"

    def test_non_integer_cap(self):
        code, _, err = invoke(["weyl", "--type", "A2", "--max-length", "3", "--cap", "x"])
        assert code == 1
        assert "invalid int value: 'x'" in err


class TestAdmCommand:
    def test_dot_c3(self):
        code, out, _ = invoke(["adm", "--type", "C3", "--dot"])
        assert code == 0
        assert out.count("fillcolor=red") == 2
        assert out.count("fillcolor=green") == 1
        assert "v1 -- v2;" in out

    def test_dot_via_format(self):
        code, out, _ = invoke(["adm", "--type", "A1", "--format", "dot"])
        assert code == 0
        assert out.count("fillcolor=green") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dot_with_another_format_usage_error(self, fmt):
        assert invoke(["adm", "--type", "A3", "--dot", "--format", fmt]) == (
            1,
            "",
            f"error[E101]: --dot and --format {fmt} are mutually exclusive\n",
        )

    def test_dot_with_format_dot(self):
        assert invoke(["adm", "--type", "C3", "--dot", "--format", "dot"]) == invoke(
            ["adm", "--type", "C3", "--dot"]
        )

    def test_json(self):
        code, out, _ = invoke(["adm", "--type", "B3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {"n_r": 1, "n_g": 0, "n_b": 1}

    def test_text(self):
        code, out, _ = invoke(["adm", "--type", "C3"])
        assert code == 0
        assert "component {1,2}: colour r" in out

    def test_json_exact(self):
        expected = {
            "components": [
                {"vertices": [1, 2], "colour": "b"},
                {"vertices": [3], "colour": "r"},
            ],
            "counts": {"n_r": 1, "n_g": 0, "n_b": 1},
        }
        assert invoke(["adm", "--type", "B3", "--format", "json"]) == (
            0,
            json.dumps(expected, indent=2) + "\n",
            "",
        )

    def test_dot_exact(self):
        assert invoke(["adm", "--type", "C3", "--dot"]) == (
            0,
            "graph adm {\n"
            "  node [style=filled];\n"
            '  v1 [label="1", fillcolor=red];\n'
            '  v2 [label="2", fillcolor=red];\n'
            '  v3 [label="3", fillcolor=green];\n'
            "  v1 -- v2;\n"
            "}\n",
            "",
        )


class TestVerifyCommand:
    def test_b3_passes(self):
        code, out, _ = invoke(["verify", "--type", "B3"])
        assert code == 0
        assert out.rstrip().endswith("result: PASS")

    def test_c3_green_is_not_a_failure(self):
        code, out, _ = invoke(["verify", "--type", "C3", "--max-cosets", "2000"])
        assert code == 0
        assert "result: PASS" in out

    def test_json(self):
        code, out, _ = invoke(["verify", "--type", "A2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "PASS"

    def test_cap_exit_4(self):
        # order 32 cannot close in 8 cosets; the blue check stays open
        code, out, err = invoke(["verify", "--type", "A4", "--max-cosets", "8"])
        assert code == 4
        assert err.startswith("error[E401]:")
        assert "result: INCONCLUSIVE" in out

    # exact output: red + green (no order product law), blue + red (order
    # product law) and a capped run
    C3 = ["verify", "--type", "C3", "--max-cosets", "2000"]

    def test_c3_text_exact(self):
        assert invoke(self.C3) == (
            0,
            "component {1,2} colour r: order pass (expected 4, got 4); "
            "abelianization pass (expected C2 x C2, got C2 x C2)\n"
            "component {3} colour g: order inconclusive (infinite group "
            "predicted; enumeration gave Exhausted(2000)); abelianization pass "
            "(expected Z, got Z)\n"
            "product law (abelianization): pass (Z x C2 x C2 vs Z x C2 x C2)\n"
            "presentation routes (abelianization): pass\n"
            "result: PASS\n",
            "",
        )

    def test_c3_json_exact(self):
        expected = {
            "components": [
                {
                    "vertices": [1, 2],
                    "colour": "r",
                    "checks": [
                        {"name": "order", "status": "pass", "detail": "expected 4, got 4"},
                        {
                            "name": "abelianization",
                            "status": "pass",
                            "detail": "expected C2 x C2, got C2 x C2",
                        },
                    ],
                },
                {
                    "vertices": [3],
                    "colour": "g",
                    "checks": [
                        {
                            "name": "order",
                            "status": "inconclusive",
                            "detail": "infinite group predicted; enumeration gave "
                            "Exhausted(2000)",
                        },
                        {
                            "name": "abelianization",
                            "status": "pass",
                            "detail": "expected Z, got Z",
                        },
                    ],
                },
            ],
            "checks": [
                {"name": "product_law_abelian", "status": "pass"},
                {"name": "presentation_routes", "status": "pass"},
            ],
            "result": "PASS",
        }
        code, out, err = invoke(self.C3 + ["--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_b3_text_exact(self):
        assert invoke(["verify", "--type", "B3"]) == (
            0,
            "component {1,2} colour b: order pass (expected 8, got 8)\n"
            "component {3} colour r: order pass (expected 2, got 2); "
            "abelianization pass (expected C2, got C2)\n"
            "product law (abelianization): pass (C2 x C2 x C2 vs C2 x C2 x C2)\n"
            "presentation routes (abelianization): pass\n"
            "product law (order): pass (16 vs 16)\n"
            "result: PASS\n",
            "",
        )

    def test_b3_json_exact(self):
        expected = {
            "components": [
                {
                    "vertices": [1, 2],
                    "colour": "b",
                    "checks": [
                        {"name": "order", "status": "pass", "detail": "expected 8, got 8"},
                    ],
                },
                {
                    "vertices": [3],
                    "colour": "r",
                    "checks": [
                        {"name": "order", "status": "pass", "detail": "expected 2, got 2"},
                        {
                            "name": "abelianization",
                            "status": "pass",
                            "detail": "expected C2, got C2",
                        },
                    ],
                },
            ],
            "checks": [
                {"name": "product_law_abelian", "status": "pass"},
                {"name": "presentation_routes", "status": "pass"},
                {"name": "product_law_order", "status": "pass"},
            ],
            "result": "PASS",
        }
        code, out, err = invoke(["verify", "--type", "B3", "--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_a4_capped_exact(self):
        assert invoke(["verify", "--type", "A4", "--max-cosets", "8"]) == (
            4,
            "component {1,2,3,4} colour b: order inconclusive (expected 32, got "
            "Exhausted(8))\n"
            "product law (abelianization): pass (C2 x C2 x C2 x C2 vs "
            "C2 x C2 x C2 x C2)\n"
            "presentation routes (abelianization): pass\n"
            "product law (order): inconclusive (cap exhausted)\n"
            "result: INCONCLUSIVE\n",
            "error[E401]: coset cap 8 prevented a conclusion\n",
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pi1", "--type", "B3", "--full"],
            ["pi1", "--type", "E10", "--full", "--format", "json"],
            ["verify", "--type", "C3"],
            ["adm", "--type", "F4", "--dot"],
            ["weyl", "--type", "B2", "--max-length", "4", "--format", "json"],
        ],
    )
    def test_identical_runs(self, argv):
        first = invoke(list(argv))
        second = invoke(list(argv))
        assert first == second


class TestClosureMaxLength:
    def test_bound_below_the_word_is_a_usage_error(self):
        code, out, err = invoke(
            ["weyl", "--type", "A2", "--max-length", "1", "--closure", "1,2"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error[E101]:")

    def test_bound_equal_to_the_word_length(self):
        code, out, _ = invoke(
            ["weyl", "--type", "A2", "--max-length", "2", "--closure", "1,2"]
        )
        assert code == 0
        assert len(out.splitlines()) == 4


class TestInternalError:
    def test_contradiction_exit_5(self, monkeypatch):
        import kmfg.fpgroup

        wrong = kmfg.fpgroup.AbelianInvariants(1, ())
        monkeypatch.setattr(kmfg.fpgroup, "abelianization", lambda p: wrong)
        code, out, err = invoke(["flag", "--type", "A3", "--set", "1"])
        assert (code, out) == (5, "")
        assert err.startswith("error[E501]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "free_rank, torsion", [(0, (4,)), (1, (2, 6))], ids=["C4", "Z x C2 x C6"]
    )
    def test_type_json_refuses_torsion_other_than_2(self, free_rank, torsion):
        # JSON counts a predicted group's C2 factors, so a C4 or C6 would
        # be mislabelled as a C2
        value = kmfg.fpgroup.AbelianInvariants(free_rank, torsion)
        with pytest.raises(kmfg.errors.InternalError, match=r"is not of the form Z\^z x C2\^c2$"):
            kmfg.cli._type_json(value)

    def test_spin_json_row_with_torsion_other_than_2_exit_5(self, monkeypatch):
        c4 = kmfg.fpgroup.AbelianInvariants(0, (4,))
        monkeypatch.setattr(kmfg.pi1, "spin_rows", lambda graph, bits=None: iter([("1", c4)]))
        assert invoke(["spin", "--type", "A1", "--format", "json"]) == (
            5,
            "",
            "error[E501]: C4 is not of the form Z^z x C2^c2\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi1", "--type", "C5", "--full"],
            ["flag", "--type", "C5", "--set", "1,2,3,4"],
            ["verify", "--type", "C5"],
        ],
        ids=["pi1-full", "flag", "verify"],
    )
    def test_green_to_blue_exit_5(self, green_to_blue, argv):
        # C5's group is Z: a blue prediction on it is an internal error,
        # not an answer of C2 and not a coset cap
        code, _, err = invoke(argv)
        assert code == 5
        assert err.startswith("error[E501]:")
        assert len(err.splitlines()) == 1

    def test_order_contradiction_exit_5(self, monkeypatch):
        # a one-row table makes B3's full flag group trivial, not of order 16
        def trivial(presentation, **kwargs):
            table = [[0] * (2 * presentation.generator_count)]
            return kmfg.fpgroup.EnumerationResult.finite(1, table)

        monkeypatch.setattr(kmfg.fpgroup, "todd_coxeter", trivial)
        code, out, err = invoke(["flag", "--type", "B3"])
        assert (code, out) == (5, "")
        assert err.startswith("error[E501]:")
        assert len(err.splitlines()) == 1

    def test_failed_flag_check_names_j_1_based(self, monkeypatch):
        # with its red component {2,3} recoloured blue, which predicts
        # order 2^(size+1), A3's flag group at J = {1}, of order 4,
        # contradicts its colours
        build_adm = kmfg.adm.build_adm

        def red_as_blue(m, J=()):
            graph = build_adm(m, J)
            colours = tuple("b" if c == "r" else c for c in graph.colours)
            return dataclasses.replace(graph, colours=colours)

        monkeypatch.setattr(kmfg.adm, "build_adm", red_as_blue)
        assert invoke(["flag", "--type", "A3", "--set", "1"]) == (
            5,
            "",
            "error[E501]: flag group for J = {1} contradicts its colours: "
            "order expected 8, got 4\n",
        )

    def test_non_normal_subgroup_exit_5(self, monkeypatch):
        # the pair relators make every <x_J> normal in the full flag group,
        # so a failed normality test is a bug, not a fallback
        import kmfg.fpgroup

        monkeypatch.setattr(kmfg.fpgroup, "_is_normal", lambda table, subgroup, J: False)
        code, out, err = invoke(["pi1", "--type", "B3", "--full"])
        assert (code, out) == (5, "")
        assert err.startswith("error[E501]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--type", "A3"], ["pi1", "--type", "A3", "--full"]],
        ids=["verify", "pi1-full"],
    )
    def test_failed_certificate_exit_5(self, monkeypatch, argv):
        # the strategies close every relator by construction, so a table
        # that fails todd_coxeter's certificate is a bug, not a retry
        monkeypatch.setattr(kmfg.fpgroup, "_closed", lambda table, relators: False)
        code, out, err = invoke(argv)
        assert (code, out) == (5, "")
        assert err.startswith("error[E501]: the hlt coset table does not close")
        assert len(err.splitlines()) == 1

    def test_unexpected_value_error_exit_5(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(kmfg.fpgroup, "todd_coxeter", boom)
        assert invoke(["flag", "--type", "A3", "--set", "1"]) == (5, "", "error[E501]: boom\n")

    def test_failed_verify_exit_5(self, monkeypatch):
        def relator_free(m, J):
            return kmfg.fpgroup.FpPresentation(tuple(f"x{v + 1}" for v in range(m.n)), ())

        monkeypatch.setattr(kmfg.fpgroup, "cw_presentation", relator_free)
        code, out, err = invoke(["verify", "--type", "B3"])
        assert code == 5
        assert "presentation routes (abelianization): fail\n" in out
        assert out.endswith("result: FAIL\n")
        assert err.startswith("error[E501]:")
        assert len(err.splitlines()) == 1


class TestParser:
    def test_built_once_per_process(self, monkeypatch):
        calls = []

        def counting():
            calls.append(None)
            return build_parser()

        monkeypatch.setattr(kmfg.cli, "build_parser", counting)
        kmfg.cli._parser.cache_clear()
        try:
            assert invoke(["info", "--type", "A3"])[0] == 0
            assert invoke(["adm", "--type", "B3", "--format", "json"])[0] == 0
            assert invoke(["nosuch"])[0] == 1
        finally:
            kmfg.cli._parser.cache_clear()
        assert len(calls) == 1

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(kmfg.__file__))
        probe = "import kmfg.cli; print(kmfg.cli._parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert done.stdout == "0\n"

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestEntryPoint:
    """``python -m kmfg.cli`` in a fresh interpreter, through ``main``."""

    @staticmethod
    def _run(argv, stdin=""):
        src = os.path.dirname(os.path.dirname(kmfg.__file__))
        return subprocess.run(
            [sys.executable, "-m", "kmfg.cli", *argv],
            input=stdin,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_rank_1000_histogram_in_bounded_memory(self):
        # a rank-1000 position is a tuple of about 8 KB, so a walk through
        # W^J itself, 1,418,257,381,238,698 cells to length 6, would exhaust
        # 512 MB long before its cap; the chain's factors keep 5,986 positions
        resource = pytest.importorskip("resource")
        limit = 512 * 2**20

        def bounded():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = os.path.dirname(os.path.dirname(kmfg.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "kmfg.cli", "weyl", "--type", "A1000", "--max-length", "6"],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=bounded,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (done.returncode, done.stderr) == (0, "")
        # W(A1000)(t) = prod_{k=1}^{1000} [k + 1]_t, truncated at t^6
        series = [1]
        for k in range(1, 1001):
            series = poly_mul(series, [1] * (min(k, 6) + 1))[:7]
        lines = [f"length {k}: {c}" for k, c in enumerate(series)]
        assert done.stdout == "\n".join(lines + [f"total: {sum(series)}"]) + "\n"

    def test_pi1_e10_exit_0(self):
        done = self._run(["pi1", "--type", "E10"])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "pi1(G) = C2\npi1(K) = C2\n"

    def test_refused_diagram_exit_3(self):
        done = self._run(["pi1", "--matrix", "-"], TestHypothesisGate.ROWS)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("error[E301]:")
        # a reducible diagram is answered as the product over its factors
        done = self._run(["pi1", "--matrix", "-"], TestPi1FullExact.REDUCIBLE)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[0] == "pi1(G) = Z x C2"
