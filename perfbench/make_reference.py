"""Write ``reference.json``: the stored inputs and outputs that have no
independent oracle.

It holds the standard matrices of the named diagrams the workloads use
(so the inputs do not depend on the code under test), the E10 cell
histogram, and the ``verify`` / ``pi1 --full`` transcripts of the coset
corpus.  Regenerate it only when the workload inputs change, from a commit
whose outputs are trusted, and review the diff:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from checkout import use_checkout

use_checkout()

import kmfg  # noqa: E402

import ops  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def main():
    matrices = {
        name: kmfg.from_named(name).to_plain_text()
        for name in workloads.required_diagrams()
    }
    bound = max(b for name, b in workloads.CELL_DIAGRAMS if name == "E10")
    histogram = kmfg.WeylGroup(kmfg.from_named("E10")).cell_counts((), bound)
    transcripts = {}
    for name in workloads.COSET_CORPUS:
        for argv in (["verify"], ["pi1", "--full"]):
            spec = {"op": "cli", "matrix": matrices[name], "argv": argv + ["--matrix", "-"]}
            code, out, _ = ops.execute(spec)
            transcripts[" ".join([name] + argv)] = {"code": code, "stdout": out}
    data = {
        "matrices": matrices,
        "e10_series": [histogram.get(k, 0) for k in range(bound + 1)],
        "transcripts": transcripts,
    }
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
