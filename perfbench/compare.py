"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories of files holding the stdout of
``run.py``; each run's ``record`` line is read.  Runs are paired by
workload and seed, so run both sides with the same seeds, alternating
which side goes first.  For each workload and end-to-end metric it prints
both sides' medians and quartiles, the pairs the change won, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved``: the parent's own spread (interquartile range over
  median) is wider than the metric's bound, and not every change run beats
  every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``within bound`` otherwise.

Per-layer metrics from traced runs are listed with both medians and no
verdict.  The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def read_records(path):
    """Records of every run under ``path``, keyed by (workload, trace, seed)."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, name) for name in os.listdir(path))
    records = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("record "):
                    record = json.loads(line[len("record "):])
                    records[(record["workload"], record["trace"], record["seed"])] = record
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for paired samples ``parent[i]`` / ``change[i]``."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if wins >= 0.9 * len(parent) and abs(med_c - med_p) > q3 - q1 and sign * (med_c - med_p) > 0:
        return "improved", wins
    if (q3 - q1) / med_p > bound and not all_better:
        return "unresolved", wins
    if -sign * (med_c - med_p) / med_p > bound:
        return "regressed", wins
    return "within bound", wins


def compare(parent_records, change_records, spec):
    """Rows of (workload, metric, parent quartiles, change quartiles, pairs
    won / pairs, verdict)."""
    rows = []
    keys = sorted(set(parent_records) & set(change_records))
    groups = {}
    for key in keys:
        groups.setdefault(key[:2], []).append(key)
    for (workload, trace), pair_keys in sorted(groups.items()):
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in metrics:
            name = metric["name"]
            parent = [parent_records[k]["metrics"][name] for k in pair_keys]
            change = [change_records[k]["metrics"][name] for k in pair_keys]
            if trace:
                result, wins = "", None
            else:
                result, wins = verdict(parent, change, metric["better"], metric["bound"])
            rows.append((workload, name, quartiles(parent), quartiles(change),
                         wins, len(pair_keys), result))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(read_records(argv[0]), read_records(argv[1]), spec)
    if not rows:
        sys.stderr.write("no runs with the same workload and seed on both sides\n")
        return 2
    print(f"{'workload':<14} {'metric':<36} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>7}  verdict")
    for workload, name, p, c, wins, pairs, result in rows:
        won = "" if wins is None else f"{wins}/{pairs}"
        print(f"{workload:<14} {name:<36} {'/'.join(f'{v:.4g}' for v in p):>32} "
              f"{'/'.join(f'{v:.4g}' for v in c):>32} {won:>7}  {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
