"""Command-line frontend: it parses arguments and renders the library's
answers; checks such as ``verify`` (``fpgroup.verify``) live in the library.

Subcommands: info, pi1, spin, flag, weyl, adm, verify.  The input diagram
comes from ``--type NAME`` or ``--matrix PATH`` (``-`` reads stdin).  All
indices on the command line and in rendered output are 1-based.  Only this
module renders: each subcommand builds only the form it prints, a JSON
payload or text or DOT lines, and hands that one to ``_render``.  Groups are
``fpgroup.AbelianInvariants``: pi1 values and closed forms print by ``str``,
equal factors gathered (Z x C2^198), and abelianizations by ``flat``, each
factor written out.  A flag group's order is rendered as its
``fpgroup.FlagCheck.order_status`` says: infinite, finite, or exhausted,
which exits 4 once the output is written.  The parser is built once.

Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 hypothesis gate refused, 4 resource cap or memory exhausted, 5 internal
error (two of kmfg's own computations disagree, a failed ``verify`` among
them, or the library raised a ValueError).  Errors print one
machine-greppable line ``error[ENNN]: ...`` on stderr.  ``weyl --closure``
needs a ``--max-length`` at least the length of the closure element.  A
matrix's analysis (hypotheses, parity graph) is computed once and kept on
it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import adm, cartan, coxeter, fpgroup, pi1
from .errors import (
    HypothesisError,
    InadmissibleKappaError,
    InputError,
    InternalError,
    InvariantViolationError,
    MatrixFormatError,
    ResourceLimitError,
    UnknownNameError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_NOT_SYMMETRIZABLE = (
    "note: not symmetrizable; the value is established for K, the "
    "identification with pi1(G) is not"
)
_REDUCIBLE = (
    "note: reducible diagram; the answers are the products over the "
    "irreducible factors"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_max_cosets() -> int:
    raw = os.environ.get("KMFG_MAX_COSETS")
    if raw is None:
        return fpgroup.DEFAULT_MAX_COSETS
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"KMFG_MAX_COSETS must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"KMFG_MAX_COSETS must be >= 1, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for the caps: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_input_options(sub, force=False):
    sub.add_argument("--type", metavar="NAME", help="named diagram, e.g. A3, E10, C2~")
    sub.add_argument(
        "--matrix", metavar="PATH", help="matrix file, plain or JSON; '-' for stdin"
    )
    if force:
        sub.add_argument(
            "--force",
            action="store_true",
            help="compute even when the validity hypotheses are not established",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kmfg",
        description=(
            "Fundamental groups of split real Kac-Moody groups, their maximal "
            "compact subgroups, spin covers and flag varieties, from a "
            "generalized Cartan matrix."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="hypotheses and diagram summary")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pi1", help="pi1 of the group and its maximal compact subgroup")
    _add_input_options(p, force=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--full", action="store_true", help="full report incl. spin and flags")
    p.add_argument("--max-cosets", type=_positive_int, default=None)

    p = sub.add_parser("spin", help="pi1 of the spin covers")
    _add_input_options(p, force=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--kappa",
        metavar="BITS",
        help="one '1'/'2' character per free component in canonical order",
    )
    p.add_argument("--all", action="store_true", help="list all admissible colourings")

    p = sub.add_parser("flag", help="pi1 of the flag variety G/P_J")
    _add_input_options(p, force=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--set",
        metavar="LIST",
        default="",
        help="comma-separated 1-based parabolic indices; empty for the full flag",
    )
    p.add_argument("--max-cosets", type=_positive_int, default=None)

    p = sub.add_parser("weyl", help="Weyl group cell counts and cell closures")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--parabolic", metavar="LIST", default="")
    p.add_argument("--cells", action="store_true", help="length histogram (default)")
    p.add_argument(
        "--closure",
        metavar="WORD",
        help="comma-separated word; list the cells in the closure of its cell",
    )
    p.add_argument("--cap", type=_positive_int, default=coxeter.DEFAULT_ELEMENT_CAP)

    p = sub.add_parser("adm", help="the coloured parity graph")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default=None)
    p.add_argument("--dot", action="store_true", help="shorthand for --format dot")

    p = sub.add_parser("verify", help="check the structural claims by enumeration")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-cosets", type=_positive_int, default=None)

    return parser


def _load_matrix(args) -> cartan.GeneralizedCartanMatrix:
    if bool(args.type) == bool(args.matrix):
        raise UsageError("exactly one of --type or --matrix is required")
    try:
        if args.type:
            return cartan.from_named(args.type)
        if args.matrix == "-":
            return cartan.parse_matrix(sys.stdin.read())
        with open(args.matrix, "r", encoding="utf-8") as handle:
            return cartan.parse_matrix(handle.read())
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {args.matrix}: {exc.strerror}") from None
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer with more digits than the
        # interpreter converts: the input is at fault
        raise InputError(str(exc)) from None


def _parse_index_list(raw: str, n: int, what: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            value = int(piece)
        except ValueError:
            raise InputError(f"{what} must be a comma list of integers, got {piece!r}")
        if not 1 <= value <= n:
            raise InputError(f"{what} index {value} out of range 1..{n}")
        out.append(value - 1)
    return tuple(out)


def _fmt_set(J) -> str:
    return "{" + ",".join(str(v + 1) for v in sorted(J)) + "}"


def _component_lines(graph) -> list[str]:
    return [
        f"component {_fmt_set(comp)}: colour {graph.colours[idx]}"
        for idx, comp in enumerate(graph.components)
    ]


def _render(out, output):
    """The output path of every subcommand: a JSON payload (a dict) as
    indented JSON, or text or DOT lines (a list)."""
    text = json.dumps(output, indent=2) if output.__class__ is dict else "\n".join(output)
    out.write(text + "\n")


def _type_json(value: fpgroup.AbelianInvariants) -> dict:
    """A group the colours predict, built by ``fpgroup._z_c2`` as Z^z x C2^c2.
    Any other torsion has no form here, so it is an InternalError rather
    than a mislabelled C2 count."""
    torsion = value.torsion
    if torsion.count(2) != len(torsion):
        raise InternalError(f"{value} is not of the form Z^z x C2^c2")
    return {"z": value.free_rank, "c2": len(torsion)}


def _spin_json(rows) -> list[dict]:
    return [{"kappa": bits, **_type_json(value)} for bits, value in rows]


def _graph_json(graph) -> dict:
    return {
        "components": [
            {"vertices": [v + 1 for v in comp], "colour": colour}
            for comp, colour in zip(graph.components, graph.colours)
        ],
        "counts": {f"n_{c}": graph.colours.count(c) for c in "rgb"},
    }


_DOT_COLOURS = {"r": "red", "g": "green", "b": "blue"}


def _dot_lines(graph) -> list[str]:
    """Graphviz DOT, each vertex filled with its component's colour."""
    fill = {v: _DOT_COLOURS[c] for vs, c in zip(graph.components, graph.colours) for v in vs}
    vertices = [f'  v{v + 1} [label="{v + 1}", fillcolor={fill[v]}];' for v in range(graph.n)]
    edges = [f"  v{i + 1} -- v{j + 1};" for i, j in sorted(graph.edges)]
    return ["graph adm {", "  node [style=filled];", *vertices, *edges, "}"]


def _flag_json(info: fpgroup.FlagCheck) -> dict:
    status = info.order_status
    order = {"status": status}
    if status == "finite":
        order["order"] = info.order.order
    elif status == "exhausted":
        order["limit"] = info.order.limit
    return {
        "abelian": {"z": info.invariants.free_rank, "torsion": list(info.invariants.torsion)},
        "order": order,
        "closed_form": None if info.closed_form is None else _type_json(info.closed_form),
    }


def _note_reducible(m, output, at=None):
    """Mark the answers for a reducible diagram as the products over its
    irreducible factors: a JSON payload ends with ``"reducible": true``,
    and text lines get the note, as their last line unless ``at`` is given."""
    if not cartan.hypothesis_report(m).irreducible:
        if output.__class__ is dict:
            output["reducible"] = True
        else:
            output.insert(len(output) if at is None else at, _REDUCIBLE)


def _check_orders(flags):
    """After the output is written: exit 4 if a coset cap left the order of
    a flag's group open."""
    for info in flags:
        if info.order_status == "exhausted":
            raise ResourceLimitError(
                f"coset enumeration exhausted the cap {info.order.limit}", info.order.limit
            )


def _cmd_info(args, out):
    m = _load_matrix(args)
    hypotheses = cartan.hypothesis_report(m).to_json_dict()
    graph = adm.build_adm(m)
    if args.format == "json":
        output = {"rank": m.n, "hypotheses": hypotheses, "adm": _graph_json(graph)}
    else:
        output = [f"rank: {m.n}"]
        output += [f"{k.replace('_', '-')}: {'yes' if v else 'no'}" for k, v in hypotheses.items()]
        output += _component_lines(graph)
    _render(out, output)


def _full_report_lines(report: pi1.Pi1Report) -> list[str]:
    hyp = report.hypotheses.to_json_dict()
    lines = [
        "hypotheses: "
        + " ".join(f"{k.replace('_', '-')}={'yes' if v else 'no'}" for k, v in hyp.items())
    ]
    for idx, comp in enumerate(report.graph.components):
        lines.append(
            f"component {_fmt_set(comp)}: colour {report.graph.colours[idx]}, "
            f"contributes {report.contributions[idx]}"
        )
    lines.append(f"pi1(G) = {report.group}")
    lines.append(f"pi1(K) = {report.maximal_compact.value}")
    if report.maximal_compact.k_only:
        lines.append(_NOT_SYMMETRIZABLE)
    for bits, value in report.spin:
        lines.append(f"spin kappa={bits or '-'}: pi1 = {value}")
    for J, info in sorted(report.flags.items()):
        order = "infinite" if info.order_status == "infinite" else str(info.order)
        lines.append(
            f"flag J={_fmt_set(J)}: abelianization {info.invariants.flat()}, order {order}"
        )
    return lines


def _full_report_json(report: pi1.Pi1Report) -> dict:
    components = _graph_json(report.graph)["components"]
    return {
        "hypotheses": report.hypotheses.to_json_dict(),
        "components": [
            {**entry, "contribution": contribution}
            for entry, contribution in zip(components, report.contributions)
        ],
        "pi1_G": _type_json(report.group),
        "pi1_K": _type_json(report.maximal_compact.value),
        "pi1_K_caveat": report.maximal_compact.k_only,
        "spin": _spin_json(report.spin),
        "flags": {
            ",".join(str(v + 1) for v in J): _flag_json(info)
            for J, info in sorted(report.flags.items())
        },
    }


def _cmd_pi1(args, out):
    m = _load_matrix(args)
    if args.full:
        max_cosets = args.max_cosets or _default_max_cosets()
        report = pi1.full_report(m, max_cosets=max_cosets, force=args.force)
        if args.format == "json":
            output = _full_report_json(report)
        else:
            output = _full_report_lines(report)
        # the note follows the hypotheses line
        _note_reducible(m, output, at=1)
        _render(out, output)
        _check_orders(report.flags.values())
        return
    # pi1(G) and pi1(K) have the same value; k_only marks the caveat
    compact = pi1.pi1_maximal_compact(m, force=args.force)
    if args.format == "json":
        output = {
            "pi1_G": _type_json(compact.value),
            "pi1_K": _type_json(compact.value),
            "pi1_K_caveat": compact.k_only,
        }
    else:
        output = [f"pi1(G) = {compact.value}", f"pi1(K) = {compact.value}"]
        if compact.k_only:
            output.append(_NOT_SYMMETRIZABLE)
    _note_reducible(m, output)
    _render(out, output)


def _cmd_spin(args, out):
    if args.kappa is not None and args.all:
        raise UsageError("--kappa and --all are mutually exclusive")
    m = _load_matrix(args)
    graph = adm.build_adm(m)
    if args.kappa is not None:
        colourings = [adm.kappa_from_bits(graph, args.kappa)]
    else:
        colourings = adm.enumerate_kappa(graph)
    pi1.check_hypotheses(m, force=args.force)
    rows = pi1.spin_rows(graph, colourings)
    if args.format == "json":
        output = {"spin": _spin_json(rows)}
    else:
        # one admissible colouring per choice of 1 or 2 on each free component
        output = [f"admissible colourings: {2 ** len(graph.free_components())}"]
        output += [f"kappa {bits or '-'}: pi1(Spin) = {value}" for bits, value in rows]
    _note_reducible(m, output)
    _render(out, output)


def _cmd_flag(args, out):
    m = _load_matrix(args)
    J = _parse_index_list(args.set, m.n, "--set")
    max_cosets = args.max_cosets or _default_max_cosets()
    info = pi1.pi1_flag(m, J, max_cosets=max_cosets, force=args.force)
    if args.format == "json":
        output = {"J": [v + 1 for v in info.parabolic], **_flag_json(info)}
    else:
        output = []
        if info.closed_form is not None:
            output.append(f"pi1(G/P_J) = {info.closed_form}")
        output.append(f"J = {_fmt_set(info.parabolic)}")
        output.append(f"abelianization: {info.invariants.flat()}")
        status = info.order_status
        if status == "infinite":
            output.append("order: infinite (positive free rank)")
        elif status == "finite":
            output.append(f"order: {info.order.order}")
        else:
            output.append(f"order: undecided, coset table capped at {info.order.limit}")
    _note_reducible(m, output)
    _render(out, output)
    _check_orders([info])


def _cmd_weyl(args, out):
    if args.cells and args.closure is not None:
        raise UsageError("--cells and --closure are mutually exclusive")
    m = _load_matrix(args)
    if args.max_length < 0:
        raise InputError("--max-length must be >= 0")
    group = coxeter.WeylGroup(m)
    J = _parse_index_list(args.parabolic, m.n, "--parabolic")
    if args.closure is not None:
        word = _parse_index_list(args.closure, m.n, "--closure")
        element = group.from_word(word)
        if args.max_length < element.length:
            raise UsageError(
                f"--max-length {args.max_length} is below the length "
                f"{element.length} of the --closure element"
            )
        cells = group.closure_cells(element, J, cap=args.cap)
        if args.format == "json":
            output = {"closure": [[i + 1 for i in w.reduced_word()] for w in cells]}
        else:
            output = [
                f"length {w.length}: {','.join([str(i + 1) for i in w.reduced_word()]) or 'e'}"
                for w in cells
            ]
    else:
        histogram = group.cell_counts(J, args.max_length, cap=args.cap)
        if args.format == "json":
            output = {str(k): v for k, v in histogram.items()}
        else:
            output = [f"length {k}: {v}" for k, v in histogram.items()]
            output.append(f"total: {sum(histogram.values())}")
    _render(out, output)


def _cmd_adm(args, out):
    if args.dot and args.format not in (None, "dot"):
        raise UsageError(f"--dot and --format {args.format} are mutually exclusive")
    m = _load_matrix(args)
    graph = adm.build_adm(m)
    fmt = "dot" if args.dot else args.format or "text"
    if fmt == "json":
        output = _graph_json(graph)
    elif fmt == "dot":
        output = _dot_lines(graph)
    else:
        edges = ", ".join(f"{i + 1}-{j + 1}" for i, j in sorted(graph.edges)) or "none"
        output = _component_lines(graph) + [f"edges: {edges}"]
    _render(out, output)


# text labels of the whole-diagram checks of ``fpgroup.verify``
_CHECK_LABELS = {
    "product_law_abelian": "product law (abelianization)",
    "presentation_routes": "presentation routes (abelianization)",
    "product_law_order": "product law (order)",
}


def _cmd_verify(args, out):
    m = _load_matrix(args)
    max_cosets = args.max_cosets or _default_max_cosets()
    report = fpgroup.verify(m, max_cosets)
    result = report.result
    graph = report.graph
    if args.format == "json":
        components = [
            {**entry, "checks": [{"name": n, "status": s, "detail": d} for n, s, d in v.checks]}
            for entry, v in zip(_graph_json(graph)["components"], report.components)
        ]
        output = {
            "components": components,
            "checks": [{"name": name, "status": status} for name, status, _ in report.checks],
            "result": result,
        }
    else:
        output = []
        for comp, colour, v in zip(graph.components, graph.colours, report.components):
            summary = "; ".join(f"{name} {status} ({detail})" for name, status, detail in v.checks)
            output.append(f"component {_fmt_set(comp)} colour {colour}: {summary}")
        for name, status, detail in report.checks:
            output.append(f"{_CHECK_LABELS[name]}: {status}" + (f" ({detail})" if detail else ""))
        output.append(f"result: {result}")
    _render(out, output)
    if result == "FAIL":
        raise InternalError("verification failed: two of kmfg's own computations disagree")
    if result == "INCONCLUSIVE":
        raise ResourceLimitError(f"coset cap {max_cosets} prevented a conclusion", max_cosets)


_COMMANDS = {
    "info": _cmd_info,
    "pi1": _cmd_pi1,
    "spin": _cmd_spin,
    "flag": _cmd_flag,
    "weyl": _cmd_weyl,
    "adm": _cmd_adm,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses: built on the first call, then reused."""
    return build_parser()


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        _COMMANDS[args.command](args, out)
        return EXIT_OK
    except UsageError as exc:
        err.write(f"error[E101]: {exc}\n")
        return EXIT_USAGE
    except (MatrixFormatError, InvariantViolationError) as exc:
        err.write(f"error[E201]: {exc}\n")
        return EXIT_INPUT
    except UnknownNameError as exc:
        err.write(f"error[E202]: {exc}\n")
        return EXIT_INPUT
    except (InputError, InadmissibleKappaError) as exc:
        err.write(f"error[E203]: {exc}\n")
        return EXIT_INPUT
    except HypothesisError as exc:
        err.write(f"error[E301]: {exc}\n")
        return EXIT_HYPOTHESIS
    except ResourceLimitError as exc:
        err.write(f"error[E401]: {exc}\n")
        return EXIT_RESOURCE
    # no cap was reached, but the run outgrew the memory it was given
    except MemoryError:
        err.write("error[E401]: out of memory\n")
        return EXIT_RESOURCE
    # any other ValueError comes from inside the library: a bug, not the input
    except (InternalError, ValueError) as exc:
        err.write(f"error[E501]: {exc}\n")
        return EXIT_INTERNAL


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
