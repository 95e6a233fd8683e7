"""Running one benchmark operation in-process, and checking its output.

``execute(spec)`` runs an operation through kmfg's public API or
``kmfg.cli.run`` and returns its output.  ``expect(spec, stored)``
computes what the output must be, from ``reference`` and
``tests/oracles.py``, before anything is timed.  ``check(spec, output,
expected)`` returns None for a correct output and a one-line reason
otherwise.  Names are looked up on the ``kmfg`` package at call time, so
a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import io
import sys

import kmfg
import kmfg.cli
from kmfg.errors import HypothesisError
from oracles import (
    all_permutations,
    bruhat_oracle,
    inversions,
    kappa_brute_force,
    minors_gcd_invariant_factors,
    perm_from_word,
)

import reference
from workloads import parse_text

# ---------------------------------------------------------------------------
# execution


def _cli(spec):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(spec["matrix"])
    try:
        code = kmfg.cli.run(spec["argv"], out, err)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _chain(spec):
    m = kmfg.parse_matrix(spec["matrix"])
    report = kmfg.hypothesis_report(m)
    graph = kmfg.build_adm(m)
    try:
        group = kmfg.pi1_group(m)
        compact = kmfg.pi1_maximal_compact(m)
        spin = sorted(
            (kappa.values, str(kmfg.pi1_spin(m, kappa)))
            for kappa in kmfg.enumerate_kappa(graph)
        )
    except HypothesisError as exc:
        return {"refused": exc.reason}
    return {
        "hypotheses": report.to_json_dict(),
        "group": str(group),
        "compact": (str(compact.value), compact.k_only),
        "spin": spin,
    }


def _todd_coxeter(spec):
    m = kmfg.parse_matrix(spec["matrix"])
    result = kmfg.todd_coxeter(kmfg.flag_presentation(m, ()), strategy=spec["strategy"])
    return result.status, result.order


def _root_sequence(spec):
    group = kmfg.WeylGroup(kmfg.parse_matrix(spec["matrix"]))
    return [tuple(v) for v in group.root_sequence(spec["word"])]


def _is_reduced(spec):
    return kmfg.WeylGroup(kmfg.parse_matrix(spec["matrix"])).is_reduced(spec["word"])


_EXECUTORS = {
    "cli": _cli,
    "chain": _chain,
    "todd_coxeter": _todd_coxeter,
    "root_sequence": _root_sequence,
    "is_reduced": _is_reduced,
}


def execute(spec):
    return _EXECUTORS[spec["op"]](spec)


# ---------------------------------------------------------------------------
# expected outputs, computed before timing


def _cli_kind(argv):
    """Which reference a CLI operation is checked against."""
    if argv[0] == "verify" or "--full" in argv:
        return "transcript"
    if argv[0] != "weyl":
        return "closed_form"
    return "closure" if "--closure" in argv else "cells"


def _closed_form(rows):
    """The closed-form answers for one diagram, or the gate's refusal."""
    hyp = reference.gate(rows)
    components, colours = reference.colours(rows)
    out = {"rank": len(rows), "hypotheses": hyp, "components": components,
           "colours": colours}
    if not hyp["irreducible"]:
        return {**out, "refused": "reducible"}
    if not (hyp["symmetrizable"] or hyp["two_spherical"]):
        return {**out, "refused": "hypotheses"}
    n_g = colours.count("g")
    value = reference.pi1_text(n_g, colours.count("b"))
    spin = sorted(
        (kappa, reference.pi1_text(
            n_g, sum(1 for c, k in zip(colours, kappa) if c == "b" and k == 1)))
        for kappa in kappa_brute_force(kmfg.GeneralizedCartanMatrix(rows))
    )
    return {**out, "group": value, "compact": (value, not hyp["symmetrizable"]),
            "spin": spin}


def _abelian_text(factors, ngens):
    nonzero = [d for d in factors if d]
    parts = []
    free = ngens - len(nonzero)
    if free:
        parts.append("Z" if free == 1 else f"Z^{free}")
    parts.extend(f"C{d}" for d in nonzero if d > 1)
    return " x ".join(parts) if parts else "1"


def _flag_abelianizations(rows):
    """Abelianization of each flag group of ``pi1 --full`` by determinant
    divisors, for ranks small enough for that oracle.  The exponent sums of
    x_a x_b^eps x_a^-1 x_b^-1 are 0 at a and eps - 1 at b."""
    n = len(rows)
    if n > 5:
        return {}
    pair_rows = {
        tuple(-2 if k == b and rows[a][b] % 2 else 0 for k in range(n))
        for a in range(n)
        for b in range(n)
        if a != b
    }
    out = {}
    for J in [()] + [(k,) for k in range(n)]:
        matrix = [list(r) for r in pair_rows | {tuple(int(i == k) for i in range(n)) for k in J}]
        matrix = [r for r in matrix if any(r)]
        factors = minors_gcd_invariant_factors(matrix) if matrix else []
        label = "{" + ",".join(str(v + 1) for v in J) + "}"
        out[label] = _abelian_text(factors, n)
    return out


def _closure_reference(name, rows, word):
    expected = {"positions": reference.subword_closure(rows, word)}
    if name.startswith("A") and not name.endswith("~"):
        # type A: the permutation oracle, over all pairs of reduced words
        n = len(rows) + 1
        w = perm_from_word(n, word)
        cache = {}
        expected["perms"] = {
            u for u in all_permutations(n)
            if inversions(u) <= len(word) and bruhat_oracle(u, w, cache)
        }
    return expected


def expect(spec, stored):
    rows = parse_text(spec["matrix"])
    op = spec["op"]
    if op == "chain":
        return _closed_form(rows)
    if op == "todd_coxeter":
        # the full flag group of A_n is the group of its single blue
        # parity component, of order 2^(n+1)
        return "finite", 2 ** (len(rows) + 1)
    if op == "root_sequence":
        return reference.root_sequence(rows, spec["word"])
    if op == "is_reduced":
        return reference.numbers_game(rows, spec["word"])[1]
    argv = spec["argv"]
    kind = _cli_kind(argv)
    if kind == "closed_form":
        return _closed_form(rows)
    if kind == "transcript":
        transcript = stored["transcripts"][" ".join([spec["name"]] + argv[:-2])]
        return {"code": transcript["code"], "stdout": transcript["stdout"],
                "flags": _flag_abelianizations(rows) if argv[0] == "pi1" else {}}
    if kind == "closure":
        word = [int(v) - 1 for v in argv[argv.index("--closure") + 1].split(",")]
        return _closure_reference(spec["name"], rows, word)
    bound = int(argv[argv.index("--max-length") + 1])
    raw = argv[argv.index("--parabolic") + 1]
    J = [int(v) - 1 for v in raw.split(",")] if raw else []
    name = spec["name"]
    if name == "E10":
        series = stored["e10_series"][: bound + 1]
    elif name.endswith("~"):
        series = reference.affine_series(reference.DEGREES[name[:-1]], bound)
    else:
        series = reference.finite_series(reference.DEGREES[name], bound)
    series = reference.series_div(series, reference.path_parabolic_series(rows, J, bound), bound)
    return {k: v for k, v in enumerate(series) if v}


# ---------------------------------------------------------------------------
# checks


def _yes(flag):
    return "yes" if flag else "no"


def _check_refusal(code, err, expected):
    if code != 3 or not err.startswith("error[E301]"):
        return f"expected the gate to refuse ({expected['refused']}), got exit {code}"
    return None


def _check_info(lines, expected):
    if lines[:1] != [f"rank: {expected['rank']}"]:
        return f"info printed {lines[:1]}"
    got = dict(line.split(": ", 1) for line in lines if not line.startswith("component"))
    for key, value in expected["hypotheses"].items():
        if got.get(key.replace("_", "-")) != _yes(value):
            return f"info reports {key} wrongly"
    comps = sorted(line for line in lines if line.startswith("component"))
    want = sorted(
        "component {" + ",".join(str(v + 1) for v in comp) + "}: colour " + colour
        for comp, colour in zip(expected["components"], expected["colours"])
    )
    if comps != want:
        return "info lists the wrong coloured components"
    return None


def _check_cli_closed_form(command, code, out, err, expected):
    lines = out.splitlines()
    if command == "info":
        if code != 0:
            return f"info exited {code}"
        return _check_info(lines, expected)
    if "refused" in expected:
        return _check_refusal(code, err, expected)
    if code != 0:
        return f"{command} exited {code}: {err.strip()}"
    if command == "pi1":
        value, k_only = expected["compact"]
        if lines[:2] != [f"pi1(G) = {expected['group']}", f"pi1(K) = {value}"]:
            return f"pi1 printed {lines[:2]}"
        if any(line.startswith("note: not symmetrizable") for line in lines) != k_only:
            return "pi1 K-only caveat wrong"
        return None
    spin = sorted(line.split(" = ", 1)[1] for line in lines[1:])
    if lines[0] != f"admissible colourings: {len(expected['spin'])}":
        return f"spin printed {lines[0]!r}"
    if spin != sorted(value for _, value in expected["spin"]):
        return "spin values wrong"
    return None


def _check_chain(output, expected):
    if "refused" in expected:
        if output.get("refused") != expected["refused"]:
            return f"expected refusal {expected['refused']}, got {output}"
        return None
    if "refused" in output:
        return f"gate refused ({output['refused']}) a valid diagram"
    for key in ("hypotheses", "group", "compact", "spin"):
        if output[key] != expected[key]:
            return f"{key}: got {output[key]}, expected {expected[key]}"
    return None


def _check_transcript(command, code, out, expected):
    if code != expected["code"] or out != expected["stdout"]:
        return f"{command} output differs from the stored reference (exit {code})"
    for label, text in expected["flags"].items():
        if not any(line.startswith(f"flag J={label}: abelianization {text},")
                   for line in out.splitlines()):
            return f"flag J={label}: abelianization differs from {text}"
    return None


def _check_cells(code, out, expected):
    if code != 0:
        return f"weyl exited {code}"
    histogram = {}
    for line in out.splitlines():
        key, value = line.split(": ")
        if key.startswith("length "):
            histogram[int(key[len("length "):])] = int(value)
        elif key != "total" or int(value) != sum(histogram.values()):
            return f"unexpected line {line!r}"
    if histogram != expected:
        return f"histogram {histogram} != {expected}"
    return None


def _check_closure(rows, code, out, expected):
    if code != 0:
        return f"weyl --closure exited {code}"
    words = []
    for line in out.splitlines():
        head, label = line.split(": ")
        word = [] if label == "e" else [int(v) - 1 for v in label.split(",")]
        position, reduced = reference.numbers_game(rows, word)
        if not reduced or head != f"length {len(word)}":
            return f"{line!r} is not a reduced word of its length"
        words.append((word, position))
    positions = {p for _, p in words}
    if len(positions) != len(words) or positions != expected["positions"]:
        return "closure differs from the subword-property closure"
    if "perms" in expected:
        perms = {perm_from_word(len(rows) + 1, w) for w, _ in words}
        if perms != expected["perms"]:
            return "closure differs from the permutation oracle"
    return None


def check(spec, output, expected):
    op = spec["op"]
    if op == "chain":
        return _check_chain(output, expected)
    if op != "cli":
        if output != expected:
            return f"{op} gave {output}, expected {expected}"
        return None
    code, out, err = output
    command = spec["argv"][0]
    kind = _cli_kind(spec["argv"])
    if kind == "closed_form":
        return _check_cli_closed_form(command, code, out, err, expected)
    if kind == "transcript":
        return _check_transcript(command, code, out, expected)
    if kind == "closure":
        return _check_closure(parse_text(spec["matrix"]), code, out, expected)
    return _check_cells(code, out, expected)
