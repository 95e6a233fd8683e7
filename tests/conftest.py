import pytest

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
