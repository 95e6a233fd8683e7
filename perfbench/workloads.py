"""Seeded inputs for the four benchmark workloads.

``build(workload, seed)`` returns the workload's operation list: plain
dicts holding only what the program is given (matrix text for stdin, an
argv, a word) plus a ``name`` used for reports and reference lookups.  The
same seed always gives the same list.  Sizes are fixed so that one pass
over a list takes a few seconds on a 2-core machine.
"""

from __future__ import annotations

import random

from reference import is_path_forest, load_stored, random_reduced_word

WORKLOADS = ("closed_forms", "coset_verify", "weyl_cells", "weyl_closure")

# closed_forms: every named finite and untwisted-affine diagram up to
# rank 12, plus E10, plus random GCMs following the property-test
# distribution (rank 1-10, off-diagonal entries in {0,-1,-2,-3,-4}).
# Ranks are stratified, an equal number per rank, because the cost of
# ``spin --all`` grows as 2^(free components) and would otherwise make
# the tail latency depend on how many large ranks a seed happens to draw.
RANDOM_TREES = 100
RANDOM_CYCLIC = 100
# Plus fixed rank-8 trees whose entries are all even, so every vertex is
# a green singleton and ``spin --all`` has 2^8 colourings.  Their library
# chains and ``spin --all`` runs form the top percent of latencies, so
# op_p99_ms measures the per-colouring cost instead of how many such
# diagrams a seed happens to draw.
GREEN_TREES = 8

# coset_verify: a fixed mid-size corpus for verify and pi1 --full, and
# relabelled A_n whose full flag groups are enumerated by both strategies.
COSET_CORPUS = ("A9", "D8", "E8", "E10", "A7~", "E7~", "C5", "B5", "C4~")
FLAG_RANKS = (6, 7, 8, 9)

# weyl_cells: (diagram, length bound) for the cell-count histograms.
CELL_DIAGRAMS = (("E8", 6), ("E10", 5), ("A6~", 8))

# weyl_closure: (diagram, word length); WORDS_PER_DIAGRAM seeded reduced
# words each, plus the fixed word s1 s2 ... s6 in E6, whose closure costs
# more than any seeded one, so that the slowest operation (op_p99_ms on
# this workload) does not depend on which words a seed draws.
CLOSURE_DIAGRAMS = (("D5", 6), ("E6", 5), ("A4~", 6), ("A5", 6))
WORDS_PER_DIAGRAM = 3
FIXED_CLOSURE = ("E6", [0, 1, 2, 3, 4, 5])


def named_diagrams():
    finite = (
        [f"A{n}" for n in range(1, 13)]
        + [f"B{n}" for n in range(2, 13)]
        + [f"C{n}" for n in range(2, 13)]
        + [f"D{n}" for n in range(4, 13)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    affine = (
        [f"A{n}~" for n in range(1, 12)]
        + [f"B{n}~" for n in range(3, 12)]
        + [f"C{n}~" for n in range(2, 12)]
        + [f"D{n}~" for n in range(4, 12)]
        + ["E6~", "E7~", "E8~", "F4~", "G2~"]
    )
    return finite + affine + ["E10"]


def matrix_text(rows):
    """The plain input format: the rank, then the rows."""
    return "\n".join([str(len(rows))] + [" ".join(map(str, row)) for row in rows]) + "\n"


def parse_text(text):
    """Rows of a matrix written by ``matrix_text`` or by kmfg's plain format."""
    tokens = [int(t) for t in text.split()]
    n = tokens[0]
    return tuple(tuple(tokens[1 + i * n : 1 + (i + 1) * n]) for i in range(n))


def random_gcm(rng, n, cyclic):
    """A connected random GCM of rank ``n``: a random tree, plus extra
    edges when ``cyclic``.  Trees are always symmetrizable; cycles usually
    are not."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    pairs = [(v, rng.randrange(v)) for v in range(1, n)]
    if cyclic:
        free = [(i, j) for i in range(n) for j in range(i) if (i, j) not in pairs]
        pairs += rng.sample(free, rng.randint(1, min(3, len(free))))
    for i, j in pairs:
        a[i][j] = rng.choice((-1, -2, -3, -4))
        a[j][i] = rng.choice((-1, -2, -3, -4))
    return a


def green_tree(k):
    """The k-th fixed rank-8 tree with even entries: a path for even k,
    a binary tree for odd k."""
    n = 8
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for v in range(1, n):
        p = v - 1 if k % 2 == 0 else (v - 1) // 2
        a[v][p] = -2 if (v + k) % 2 else -4
        a[p][v] = -4 if (v + k) % 3 == 0 else -2
    return a


def relabelled(rows, rng):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[p][q] for q in perm] for p in perm]


def _cli(name, rows, *argv):
    return {"op": "cli", "name": name, "argv": list(argv) + ["--matrix", "-"],
            "matrix": matrix_text(rows)}


def _closed_forms(rng, named):
    diagrams = [(name, named[name]) for name in named_diagrams()]
    diagrams += [(f"green-{k}", green_tree(k)) for k in range(GREEN_TREES)]
    for k in range(RANDOM_TREES):
        diagrams.append((f"tree-{k}", random_gcm(rng, 1 + k % 10, cyclic=False)))
    for k in range(RANDOM_CYCLIC):
        diagrams.append((f"cyclic-{k}", random_gcm(rng, 3 + k % 8, cyclic=True)))
    ops = []
    for name, rows in diagrams:
        ops.append({"op": "chain", "name": name, "matrix": matrix_text(rows)})
        ops.append(_cli(name, rows, "info"))
        ops.append(_cli(name, rows, "pi1"))
        ops.append(_cli(name, rows, "spin", "--all"))
    return ops


def _coset_verify(rng, named):
    ops = []
    for name in COSET_CORPUS:
        rows = named[name]
        ops.append(_cli(name, rows, "verify"))
        ops.append(_cli(name, rows, "pi1", "--full"))
    for n in FLAG_RANKS:
        text = matrix_text(relabelled(named[f"A{n}"], rng))
        for strategy in ("hlt", "felsch"):
            ops.append({"op": "todd_coxeter", "name": f"A{n}", "matrix": text,
                        "strategy": strategy})
    return ops


def _random_parabolic(rows, rng):
    """A nonempty proper vertex subset inducing a disjoint union of paths,
    so that its parabolic subgroup is a product of symmetric groups."""
    while True:
        J = sorted(rng.sample(range(len(rows)), rng.randint(1, 3)))
        if is_path_forest(rows, J):
            return J


def _weyl_cells(rng, named):
    ops = []
    for name, bound in CELL_DIAGRAMS:
        rows = named[name]
        for J in ([], _random_parabolic(rows, rng)):
            ops.append(_cli(name, rows, "weyl", "--max-length", str(bound),
                            "--parabolic", ",".join(str(v + 1) for v in J)))
    return ops


def _word_ops(name, rows, word):
    text = matrix_text(rows)
    return [
        _cli(name, rows, "weyl", "--max-length", str(len(word)),
             "--closure", ",".join(str(v + 1) for v in word)),
        {"op": "root_sequence", "name": name, "matrix": text, "word": word},
        {"op": "is_reduced", "name": name, "matrix": text, "word": word},
        {"op": "is_reduced", "name": name, "matrix": text, "word": word + word[-1:]},
    ]


def _weyl_closure(rng, named):
    ops = []
    for name, length in CLOSURE_DIAGRAMS:
        for _ in range(WORDS_PER_DIAGRAM):
            ops += _word_ops(name, named[name], random_reduced_word(named[name], length, rng))
    name, word = FIXED_CLOSURE
    return ops + _word_ops(name, named[name], list(word))


_BUILDERS = {
    "closed_forms": _closed_forms,
    "coset_verify": _coset_verify,
    "weyl_cells": _weyl_cells,
    "weyl_closure": _weyl_closure,
}


def required_diagrams():
    """Every named diagram whose standard matrix the workloads read."""
    names = set(named_diagrams()) | set(COSET_CORPUS) | {f"A{n}" for n in FLAG_RANKS}
    names |= {name for name, _ in CELL_DIAGRAMS + CLOSURE_DIAGRAMS}
    return sorted(names)


def build(workload, seed):
    """The operation list of ``workload`` for ``seed``.  The standard
    matrices of named diagrams are read from the stored reference, so the
    inputs do not depend on the code under test."""
    named = {name: [list(row) for row in parse_text(text)]
             for name, text in load_stored()["matrices"].items()}
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), named)
