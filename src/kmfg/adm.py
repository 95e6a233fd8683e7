"""The parity graph of a diagram, its colouring, and admissible colourings.

The graph has an edge {i, j} exactly when both parities epsilon(i, j) and
epsilon(j, i) are -1.  For a parabolic subset J it is restricted to the
vertices outside J, and each connected component receives one of three
colours:

* ``r`` if some vertex i of the component admits a j with
  epsilon(i, j) = +1 and epsilon(j, i) = -1, or a k in J with
  epsilon(k, i) = -1,
* ``g`` if it is a singleton and not ``r``,
* ``b`` otherwise.

J = () gives the diagram's own coloured graph, which drives pi1 of the
group; a nonempty J gives the components of the flag variety G/P_J.
Admissible colourings assign 1 or 2 per component, with every ``r``
component forced to 1.  Components are always ordered by their smallest
vertex; that order fixes the bit order used to enumerate colourings and
the order in which the CLI prints components as text, JSON or DOT.

Parity -1 needs an odd entry, so a zero entry never makes an edge, a
witness or a red vertex: the graph is read off the matrix's
``neighbours`` at a cost linear in the diagram's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import GeneralizedCartanMatrix, vertex_subset
from .errors import InadmissibleKappaError

__all__ = [
    "AdmGraph",
    "KappaColouring",
    "build_adm",
    "enumerate_kappa",
    "kappa_from_bits",
    "kappa_constant",
    "kappa_bits",
    "validate_kappa",
]


@dataclass(frozen=True)
class AdmGraph:
    n: int  # the rank; the components cover the vertices outside J
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    colours: tuple[str, ...]

    def free_components(self) -> tuple[int, ...]:
        """Indices of the components not forced to kappa = 1."""
        return tuple(i for i, c in enumerate(self.colours) if c != "r")


@dataclass(frozen=True)
class KappaColouring:
    """Value 1 or 2 per component, aligned with AdmGraph.components."""

    values: tuple[int, ...]


def has_witness(m: GeneralizedCartanMatrix, i: int) -> bool:
    """Whether some j has eps(i, j) = +1 and eps(j, i) = -1.  Such a witness
    colours the component of i red, and in the flag presentation it
    forces x_i^2 = 1."""
    return any(m.parity(i, j) == 1 and m.parity(j, i) == -1 for j, _ in m.neighbours[i])


def build_adm(m: GeneralizedCartanMatrix, J=()) -> AdmGraph:
    """The coloured parity graph on the vertices outside J.  For J = () it
    is the matrix's own, computed once and kept on it."""
    J = vertex_subset(J, m.n)
    return _build_graph(m, J) if J else m._parity_graph


def _build_graph(m: GeneralizedCartanMatrix, J=()) -> AdmGraph:
    J = set(J)
    outside = [v for v in range(m.n) if v not in J]
    edges = tuple(
        (i, j)
        for i in outside
        for j, _ in m.neighbours[i]
        if i < j and j not in J and m.parity(i, j) == -1 and m.parity(j, i) == -1
    )
    adjacency = {i: [] for i in outside}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    # searching from each unseen vertex in turn orders components by least vertex
    components = []
    seen = set()
    for start in (v for v in outside if v not in seen):
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        components.append(tuple(sorted(comp)))
    # x_k = 1 turns the pair relator of (k, v) into x_v^(eps(k, v) - 1)
    red = {v for k in J for v, _ in m.neighbours[k] if m.parity(k, v) == -1}
    colours = []
    for comp in components:
        if any(v in red or has_witness(m, v) for v in comp):
            colours.append("r")
        elif len(comp) == 1:
            colours.append("g")
        else:
            colours.append("b")
    return AdmGraph(m.n, edges, tuple(components), tuple(colours))


def _checked_kappa(value) -> int:
    """A kappa value, the one check of one: the exact int 1 or 2, so 1.0 or
    True is refused.  A colouring keeps its values as given, so nothing
    else may stand for one."""
    if value.__class__ is not int or value not in (1, 2):
        raise InadmissibleKappaError(f"kappa value must be 1 or 2, got {value!r}")
    return value


def validate_kappa(graph: AdmGraph, kappa: KappaColouring) -> None:
    if len(kappa.values) != len(graph.components):
        raise InadmissibleKappaError(
            f"expected {len(graph.components)} component values, "
            f"got {len(kappa.values)}"
        )
    for idx, value in enumerate(kappa.values):
        if _checked_kappa(value) == 2 and graph.colours[idx] == "r":
            vertices = ", ".join(str(v + 1) for v in graph.components[idx])
            raise InadmissibleKappaError(
                f"kappa must equal 1 on the r-coloured component {{{vertices}}}"
            )


def enumerate_kappa(graph: AdmGraph) -> list[KappaColouring]:
    """All admissible colourings, ordered by reading the free components
    (by smallest vertex) as bits, least significant first; value 1 is bit 0."""
    free = graph.free_components()
    colourings = []
    for code in range(2 ** len(free)):
        values = [1] * len(graph.components)
        for bit, comp_idx in enumerate(free):
            values[comp_idx] = 2 if (code >> bit) & 1 else 1
        colourings.append(KappaColouring(tuple(values)))
    return colourings


def kappa_from_bits(graph: AdmGraph, bits: str) -> KappaColouring:
    """Colouring from a '1'/'2' string over the free components in canonical
    order; r components are filled in as 1."""
    if not isinstance(bits, str):
        raise InadmissibleKappaError(f"kappa bits must be a string, got {bits!r}")
    free = graph.free_components()
    if len(bits) != len(free):
        raise InadmissibleKappaError(
            f"expected {len(free)} characters (one per free component), "
            f"got {len(bits)}"
        )
    values = [1] * len(graph.components)
    for char, comp_idx in zip(bits, free):
        if char not in "12":
            raise InadmissibleKappaError(f"kappa characters must be 1 or 2, got {char!r}")
        values[comp_idx] = int(char)
    return KappaColouring(tuple(values))


def kappa_constant(graph: AdmGraph, value: int) -> KappaColouring:
    """The colouring that is ``value`` on every free component."""
    value = _checked_kappa(value)
    return KappaColouring(tuple(value if colour != "r" else 1 for colour in graph.colours))


def kappa_bits(graph: AdmGraph, kappa: KappaColouring) -> str:
    """Inverse of kappa_from_bits."""
    return "".join(str(kappa.values[idx]) for idx in graph.free_components())
