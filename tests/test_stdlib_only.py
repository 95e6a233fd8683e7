"""kmfg depends on nothing outside the standard library: every absolute
import in ``src/kmfg`` names a top-level module of the standard library,
and relative imports are kmfg's own.  Its arithmetic is in integers, so
importing it loads neither ``fractions`` nor ``decimal``, and it needs no
``typing``."""

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


def test_import_loads_no_typing():
    # -S skips site, whose .pth files may load typing themselves
    script = "import sys, kmfg, kmfg.cli\nprint('typing' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"


# the top-level modules that a fresh ``python -S`` adds to sys.modules on
# ``import kmfg, kmfg.cli``: kmfg itself, the standard-library modules it
# imports, and the ones those load in turn, which differ between Python
# versions.  Every module loaded at import is compiled or read on each
# start, so a new one shows here as a change to this set.
_IMPORTED = {
    "__future__", "_ast", "_collections", "_collections_abc", "_functools", "_json",
    "_opcode", "_operator", "_sre", "_stat", "_weakrefset", "argparse", "ast",
    "collections", "contextlib", "copy", "copyreg", "dataclasses", "dis", "enum",
    "functools", "genericpath", "gettext", "importlib", "inspect", "itertools", "json",
    "keyword", "kmfg", "linecache", "math", "opcode", "operator", "os", "posixpath", "re",
    "reprlib", "stat", "token", "tokenize", "types", "warnings", "weakref",
}
_IMPORTED_BY_VERSION = {
    (3, 10): _IMPORTED | {"_locale", "sre_compile", "sre_constants", "sre_parse"},
    (3, 11): _IMPORTED,
    (3, 12): _IMPORTED | {"_tokenize"},
    (3, 13): _IMPORTED - {"linecache", "warnings"} | {"_opcode_metadata", "_tokenize"},
}


def test_import_loads_the_pinned_modules():
    expected = _IMPORTED_BY_VERSION.get(sys.version_info[:2])
    if expected is None:
        pytest.skip(f"no module set pinned for Python {sys.version_info[0]}.{sys.version_info[1]}")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kmfg, kmfg.cli\n"
        "print(' '.join(sorted({name.split('.')[0] for name in set(sys.modules) - before})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert set(out.split()) == expected
