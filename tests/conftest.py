import pytest

import kmfg.adm
import kmfg.fpgroup


@pytest.fixture
def coset_tables(monkeypatch) -> list:
    """A list that grows by one for every coset table built, whichever
    strategy or caller builds it: the table itself, read after the run."""
    built = []

    class Counting(kmfg.fpgroup._CosetTable):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(kmfg.fpgroup, "_CosetTable", Counting)
    return built


@pytest.fixture
def green_to_blue(monkeypatch):
    """Plant a wrong colour rule: every green component of a parity graph
    built from here on is coloured blue.  A matrix keeps its graph, so the
    matrices a test checks must be built after this fixture is set up."""
    build = kmfg.adm._build_graph

    def recoloured(m, J=()):
        graph = build(m, J)
        colours = tuple("b" if colour == "g" else colour for colour in graph.colours)
        return kmfg.adm.AdmGraph(graph.n, graph.edges, graph.components, colours)

    monkeypatch.setattr(kmfg.adm, "_build_graph", recoloured)
