"""The kmfg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kmfg checkout.  One client in one process runs the
workload's seeded operation list in a closed loop, each operation after the
previous one completes, in whole passes until ``--seconds`` have gone
(at least three).  Every output is checked outside
the timed region, and times are scaled to a reference interpreter speed
(see ``ReferenceClock``).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead, and writes
the spans of the last traced pass to ``perfbench/out``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its unit and sample count, the error rate, and a ``record``
line (workload, seed, Python version, nproc, commit, source digest, sample
counts) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from checkout import ROOT, SRC, use_checkout

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 15
MIN_PASSES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import kmfg, kmfg.cli; "
    "print(time.perf_counter() - t)"
)


class ReferenceClock:
    """Scales measured times to a fixed reference interpreter speed.

    A shared host's CPU speed drifts by tens of percent over seconds to
    minutes.  A fixed pure-Python calibration loop, run between operations,
    measures the speed of the moment; each operation's time is scaled by
    ``REFERENCE_S`` over the mean of the calibration times just before and
    just after it.  REFERENCE_S is about the loop's time on an idle 2-core
    x86-64 VM under CPython 3.11, so scaled times stay close to seconds.
    """

    REFERENCE_S = 0.00015

    def __init__(self):
        self.last = self.calibrate()

    @staticmethod
    def _loop():
        table = {}
        for i in range(1000):
            table[i % 61] = table.get(i % 61, 0) + i * i % 11
        return sorted(table.items())

    def calibrate(self):
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def scaled(self, seconds):
        """``seconds`` just measured, at the reference speed."""
        now = self.calibrate()
        factor = self.REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def measure_setup(clock):
    """Median time of ``import kmfg, kmfg.cli`` in a fresh interpreter,
    at the reference speed, after one unmeasured import that leaves the
    bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if k:
            samples.append(clock.scaled(float(done.stdout)))
    return statistics.median(samples), len(samples)


def run_pass(ops_list, expected, clock, tracer=None):
    """Run every operation once and check it; return a list of
    (seconds at the reference speed, failure or None), one per operation."""
    import ops

    results = []
    for index, (spec, want) in enumerate(zip(ops_list, expected)):
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            output = ops.execute(spec)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            elapsed = clock.scaled(time.perf_counter() - start)
            failure = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = clock.scaled(time.perf_counter() - start)
            try:
                failure = ops.check(spec, output, want)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                failure = f"unreadable output ({type(exc).__name__}: {exc})"
        if failure:
            failure = f"{spec['name']} {spec.get('argv', spec['op'])}: {failure}"
        results.append((elapsed, failure))
    return results


def busy(results):
    return sum(t for t, _ in results)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(ops_list, expected, seconds):
    """Whole passes until ``seconds`` have gone and there are at least
    MIN_PASSES.  An operation's latency is its median over the passes,
    which keeps out the first pass's cold caches and a pass the host
    slowed."""
    clock = ReferenceClock()
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(run_pass(ops_list, expected, clock))
    failures = [f for p in passes for _, f in p]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [1000 * statistics.median(t for t, _ in runs) for runs in zip(*passes)]
    setup_s, setup_n = measure_setup(clock)
    n = len(latencies) * len(passes)
    metrics = {
        "throughput": (1000 * len(latencies) / sum(latencies), "1/s", n),
        "op_p50_ms": (statistics.median(latencies), "ms", n),
        "op_p99_ms": (percentile(latencies, 0.99), "ms", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_s": (setup_s, "s", setup_n),
    }
    return metrics, failures


def traced(ops_list, expected, seconds, dump_path, layer_metrics):
    """One warm-up pass, then untraced and traced passes in turn until
    ``seconds``.  Per-layer numbers are medians over the traced passes;
    self times are as measured, not scaled; trace.overhead is traced over
    untraced time in operations."""
    from tracer import Tracer

    clock = ReferenceClock()
    failures = [f for _, f in run_pass(ops_list, expected, clock)]
    per_pass = []
    tracer = Tracer()
    started = time.perf_counter()
    while not per_pass or time.perf_counter() - started < seconds:
        plain = run_pass(ops_list, expected, clock)
        tracer.clear()
        tracer.install()
        try:
            spanned = run_pass(ops_list, expected, clock, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        layer["trace.overhead"] = busy(spanned) / busy(plain)
        per_pass.append(layer)
        failures += [f for _, f in plain + spanned]
    os.makedirs(os.path.dirname(dump_path), exist_ok=True)
    tracer.dump(dump_path)
    metrics = {
        m["name"]: (statistics.median(p.get(m["name"], 0.0) for p in per_pass), m["unit"],
                    len(per_pass))
        for m in layer_metrics
    }
    return metrics, failures, per_pass[-1]


def environment(workload, seed, trace):
    digest = hashlib.sha256()
    package = os.path.join(SRC, "kmfg")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout()
    import ops
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    stored = reference.load_stored()
    ops_list = workloads.build(args.workload, args.seed)
    expected = [ops.expect(spec, stored) for spec in ops_list]

    if args.trace:
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(BENCHMARK_FILE, encoding="utf-8") as handle:
            layer_metrics = json.load(handle)["per_layer"]
        metrics, outcomes, last = traced(ops_list, expected, args.seconds, dump, layer_metrics)
        top = sorted((v, k) for k, v in last.items() if k.endswith(".self_s") and k.count(".") > 1)
        for value, name in reversed(top[-8:]):
            print(f"self time  {name:<40} {value:10.4f} s")
    else:
        metrics, outcomes = end_to_end(ops_list, expected, args.seconds)

    failures = [f for f in outcomes if f]
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:<40} {value:14.6f} {unit:<6} (n={count})")
    print(f"{'error_rate':<40} {len(failures) / len(outcomes):14.6f} ratio  "
          f"({len(failures)}/{len(outcomes)})")
    record = environment(args.workload, args.seed, args.trace)
    record["samples"] = {name: count for name, (_, _, count) in metrics.items()}
    record["metrics"] = {name: value for name, (value, _, _) in metrics.items()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
