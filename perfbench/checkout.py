"""The source checkout the benchmark measures.

The benchmark lives in ``perfbench/`` at the root of a checkout and runs
the package from ``src/`` there, with the independent oracles from
``tests/oracles.py``.  It never falls back to an installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")


def use_checkout():
    """Put the checkout's ``src`` and ``tests`` first on the import path;
    exit with status 2 when the checkout does not hold them."""
    missing = [
        path
        for path in (os.path.join(SRC, "kmfg", "__init__.py"), os.path.join(TESTS, "oracles.py"))
        if not os.path.isfile(path)
    ]
    if missing:
        sys.stderr.write(
            "perfbench: not a kmfg checkout, missing " + ", ".join(missing) + "\n"
        )
        raise SystemExit(2)
    sys.path[:0] = [SRC, TESTS]
