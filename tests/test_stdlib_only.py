"""kmfg depends on nothing outside the standard library: every absolute
import in ``src/kmfg`` names a top-level module of the standard library,
and relative imports are kmfg's own.  Its arithmetic is in integers, so
importing it loads neither ``fractions`` nor ``decimal``."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "kmfg").glob("*.py"))


def _absolute_imports(path):
    """(line, module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_is_read():
    assert {"cli.py", "pi1.py", "fpgroup.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib(path):
    outside = [
        f"{path.name}:{line} imports {module}"
        for line, module in _absolute_imports(path)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_import_loads_no_rational_arithmetic():
    # a fresh interpreter, since the test suite itself imports fractions
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kmfg, kmfg.cli\n"
        "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
