"""Fundamental groups of the Kac-Moody group, its maximal compact subgroup,
the spin covers, and the generalized flag varieties.

The closed forms are driven entirely by the coloured parity graph: a green
component contributes a Z factor, a blue component a C2 factor, a red
component nothing (``_pi1``), and pi1(G) is their product.  pi1(G/P_J)
reads the graph on the vertices outside J the same way: with no blue
component it is Z per green component times C2 per vertex of a red one.
The finitely-presented-group engine is wired in as a cross-check, never
as the source of the closed-form answers: ``pi1_flag`` checks each flag
group against the colours of ``adm.build_adm(m, J)`` with
``fpgroup.check_flag``, the check ``verify`` makes per component, and
returns its ``fpgroup.FlagCheck``, the record ``verify`` keeps per
component; its closed form is the abelianization the colours predict,
and a failed check is an InternalError that names J 1-based.
Both read their flag groups from an ``fpgroup.FlagGroups``.
``full_report`` asks it for the full flag group first, so that group is
enumerated once and each singleton's order is read off its table as the
index of <x_k>; ``pi1_flag`` asks for its one J, so a nonempty J never
enumerates the full flag group.

Formulas are gated by the paper's one hypothesis, that the Bruhat
decomposition of the flag variety is a CW decomposition: the matrix must
be symmetrizable or two-spherical, otherwise the computation refuses
unless forced.  A reducible diagram passes: its group is the product of
its factors' groups, no parity edge or witness crosses two factors, and
every answer is the product of the factors' answers.  The identification
of pi1(G) with pi1(K) carries a caveat flag outside the symmetrizable
case.  Each public function passes the gate once; the report and the
parity graph are computed once per matrix.  A spin cover then reads only
the colouring's blue values: it is Z^(green count) x C2^(blue components
with kappa = 1), from the green count and blue indices kept on the graph,
so a colouring costs O(1) beyond one read per blue component.  Results
are plain values, each group an ``fpgroup.AbelianInvariants`` built as
Z^a x C2^b by ``fpgroup._z_c2``, the constructor ``check_flag``'s closed
forms share, so each distinct group and its text are built once; the CLI
renders them as text or JSON, and marks a reducible diagram's answers as
products.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from . import adm, cartan, fpgroup
from .errors import HypothesisError, InternalError
from .fpgroup import AbelianInvariants

__all__ = [
    "KPi1Result",
    "Pi1Report",
    "pi1_group",
    "pi1_maximal_compact",
    "pi1_spin",
    "pi1_flag",
    "full_report",
]

# perfbench/test_perfbench.py patches Pi1Type.__str__; ROADMAP item 5
# moves that test to AbelianInvariants and deletes this alias
Pi1Type = AbelianInvariants


def _pi1(colours) -> AbelianInvariants:
    """The product of what components of these colours contribute."""
    return fpgroup._z_c2(colours.count("g"), colours.count("b"))


# k_only is True when the K = G identification is not established
KPi1Result = namedtuple("KPi1Result", "value k_only")


def check_hypotheses(
    m: cartan.GeneralizedCartanMatrix, force: bool = False
) -> cartan.HypothesisReport:
    """Gate for the closed-form formulas; raises HypothesisError unless the
    matrix is symmetrizable or two-spherical or ``force`` is set."""
    report = cartan.hypothesis_report(m)
    if not (force or report.symmetrizable or report.two_spherical):
        raise HypothesisError(
            "the matrix is neither symmetrizable nor two-spherical, so the "
            "cell-decomposition hypothesis is not established"
        )
    return report


def pi1_group(m: cartan.GeneralizedCartanMatrix, force: bool = False) -> AbelianInvariants:
    """pi1 of the split real Kac-Moody group."""
    check_hypotheses(m, force)
    return _pi1(adm.build_adm(m).colours)


def pi1_maximal_compact(
    m: cartan.GeneralizedCartanMatrix, force: bool = False
) -> KPi1Result:
    """pi1 of the maximal compact subgroup; identical to pi1 of the group.

    Outside the symmetrizable case the returned flag records that only the
    compact-subgroup structure is established, not the identification with
    the ambient group.
    """
    return _maximal_compact(check_hypotheses(m, force), adm.build_adm(m))


def _maximal_compact(hypotheses, graph) -> KPi1Result:
    return KPi1Result(_pi1(graph.colours), k_only=not hypotheses.symmetrizable)


def pi1_spin(
    m: cartan.GeneralizedCartanMatrix,
    kappa: adm.KappaColouring,
    force: bool = False,
) -> AbelianInvariants:
    """pi1 of the spin cover attached to an admissible colouring:
    Z^(green) x C2^(blue components with kappa = 1)."""
    check_hypotheses(m, force)
    graph = adm.build_adm(m)
    adm.validate_kappa(graph, kappa)
    return _spin(graph, kappa)


def _spin(graph: adm.AdmGraph, kappa: adm.KappaColouring) -> AbelianInvariants:
    """A blue component with kappa = 2 loses its C2; the rest is ``_pi1``.
    The graph keeps its green count and blue indices, so only the blue
    components' values are read."""
    values = kappa.values
    return fpgroup._z_c2(graph._green, sum(values[i] == 1 for i in graph._blue))


def spin_rows(graph: adm.AdmGraph, colourings) -> list[tuple[str, AbelianInvariants]]:
    """(kappa bits, pi1 of the spin cover) per colouring, without the gate
    or a check of the colourings: the caller has passed ``check_hypotheses``
    once for the whole list, and made each colouring by
    ``adm.enumerate_kappa`` or ``adm.kappa_from_bits``, which make only
    admissible ones."""
    return [(adm.kappa_bits(graph, kappa), _spin(graph, kappa)) for kappa in colourings]


def pi1_flag(
    m: cartan.GeneralizedCartanMatrix,
    J,
    max_cosets: int = fpgroup.DEFAULT_MAX_COSETS,
    force: bool = False,
) -> fpgroup.FlagCheck:
    """pi1 of the flag variety for the parabolic subset J, as the
    ``fpgroup.FlagCheck`` of its flag group: abelian invariants, order and
    closed form.

    The flag group is checked against the colours of
    ``adm.build_adm(m, J)``, passed as they are to ``fpgroup.check_flag``,
    the check ``verify`` makes, and a failed check is an InternalError.
    The closed form is the abelianization that check predicts, Z per green
    component times C2 per vertex of a red one; with a blue component it
    predicts none, and there is no closed form.  The order comes from coset
    enumeration under the cap; a positive free rank makes it
    Exhausted(max_cosets) before any table is built, and the record's
    ``order_status`` "infinite".  An order left open with a free rank other
    than the green count fails the check.
    """
    check_hypotheses(m, force)
    return _flag(fpgroup.FlagGroups(m, max_cosets), J)


def _flag(groups: fpgroup.FlagGroups, J) -> fpgroup.FlagCheck:
    check = fpgroup.check_flag(groups, J, adm.build_adm(groups.m, J).colours)
    if not check.passed:
        vertices = ",".join(str(v + 1) for v in check.parabolic)
        failed = [f"{name} {detail}" for name, status, detail in check.checks if status == "fail"]
        raise InternalError(
            f"flag group for J = {{{vertices}}} contradicts its colours: {'; '.join(failed)}"
        )
    return check


@dataclass
class Pi1Report:
    """What ``full_report`` computes; the closed forms are derived."""

    hypotheses: cartan.HypothesisReport
    graph: adm.AdmGraph
    spin: list[tuple[str, AbelianInvariants]]  # (kappa bits, group)
    flags: dict[tuple[int, ...], fpgroup.FlagCheck]

    @property
    def contributions(self) -> tuple[str, ...]:
        """Per component: "1", "Z" or "C2"."""
        return tuple(str(_pi1((colour,))) for colour in self.graph.colours)

    @property
    def group(self) -> AbelianInvariants:
        return _pi1(self.graph.colours)

    @property
    def maximal_compact(self) -> KPi1Result:
        return _maximal_compact(self.hypotheses, self.graph)


def full_report(
    m: cartan.GeneralizedCartanMatrix,
    max_cosets: int = fpgroup.DEFAULT_MAX_COSETS,
    force: bool = False,
) -> Pi1Report:
    """Everything at once: hypotheses, coloured components with their
    contributions, pi1 of the group / compact subgroup / spin covers, and
    flag-variety invariants for the empty and all singleton parabolics.

    The flag groups come from one ``fpgroup.FlagGroups``, and J = () comes
    first: the full flag group is enumerated once, and each singleton's
    order is read off its coset table where it is Finite under the cap.
    """
    hypotheses = check_hypotheses(m, force)
    graph = adm.build_adm(m)
    spin = spin_rows(graph, adm.enumerate_kappa(graph))
    groups = fpgroup.FlagGroups(m, max_cosets)
    flags = {}
    for J in [()] + [(k,) for k in range(m.n)]:
        flags[J] = _flag(groups, J)
    return Pi1Report(hypotheses=hypotheses, graph=graph, spin=spin, flags=flags)
