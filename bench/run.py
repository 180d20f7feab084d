"""The aml benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload logic-dense --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``aml`` from its
``src/``.  The seed generates the inputs (``bench/workloads.py``), which are
written under ``bench/.work/<workload>/``.  One op runs at a time in this
process, with no threads; every op's answer is checked after the timed
region.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference speed of the machine (see ``probe``).  ``--trace 1`` runs each op
twice in turn, once plain and once with the tracer of ``bench/tracer.py``
installed, and reports the per-layer metrics per pass over the op mix, plus
the tracing overhead.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
PROBE_REF_S = 0.001  # the probe's time at the reference speed
PROBE_WINDOW_S = 1.0  # probes this close to an op set its speed factor

sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import COUNT_METRICS, SPAN_METRICS, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.self_s"] = "s"
    for name in ("cli", "parser.parse_structure", "parser.parse_formula", "semantics.eval",
                 "semantics.extension", "structures.measure", "regularity.pair_check"):
        units[f"{name}.calls"] = "count"
    for name in COUNT_METRICS:
        if name != "parser.parse_structure.bytes":
            units[name] = "count"
    units["parser.parse_structure.bytes_per_s"] = "B/s"
    units["semantics.units_per_s"] = "1/s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.spans"] = "count"
    units["fail_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Running ops


def run_op(op: workloads.Op) -> tuple[int | None, str]:
    """Run one op; returns (exit code, captured stdout), or (None, error)
    when the op raised."""
    from aml import cli, gowers

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                try:
                    code = cli.main(op.argv)
                except SystemExit as e:  # argparse exits out of main()
                    code = e.code if isinstance(e.code, int) else 2
                return code, out.getvalue()
            name, arg = op.call
            result = getattr(gowers, name)(arg)
    except Exception as e:  # an uncaught exception is a failed op
        return None, f"{type(e).__name__}: {e}"
    if isinstance(result, gowers.GridFunction):
        return 0, " ".join(map(str, result.values)) + "\n"
    return 0, f"{result}\n"


class Outcomes:
    """Distinct (op, exit code, stdout) results with how often each occurred."""

    def __init__(self, mix: workloads.Mix):
        self.mix = mix
        self.seen: Counter = Counter()
        self.first: dict[int, str] = {}

    def add(self, index: int, code: int | None, stdout: str) -> None:
        self.seen[(index, code, stdout)] += 1
        self.first.setdefault(index, stdout)

    def verdict(self) -> tuple[bool, int, int, list[str]]:
        """(all answers right, attempted, failed, failure notes)."""
        correct, failed, notes = True, 0, Counter()
        for (index, code, stdout), times in self.seen.items():
            op = self.mix.ops[index]
            if code is None:
                problem, wrong = f"raised {stdout}", True
            else:
                problem = op.check(stdout)
                wrong = problem is not None
                if not wrong and code != 0:
                    problem = f"exit code {code} (want 0)"
            if problem:
                correct = correct and not wrong
                failed += times
                notes[f"{op.label}: {problem}"] += times
        lines = [f"{times} x {note}" for note, times in sorted(notes.items())]
        return correct, sum(self.seen.values()), failed, lines

    def digest(self) -> str:
        """sha256 over every op's stdout, in mix order."""
        h = hashlib.sha256()
        for index in range(len(self.mix.ops)):
            h.update(self.first.get(index, "").encode())
            h.update(b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Machine speed
#
# A virtual machine that shares its host's cores drifts in speed by up to
# 1.5x within seconds to minutes, whatever runs on it: on a 2-vCPU Xeon VM a
# fixed loop of pure Python swung between 24 and 38 ms.  Raw times of two
# runs minutes apart then differ by more than a regression bound.  So a fixed
# piece of interpreter work (the probe) runs after every op, and each op's
# time is scaled by PROBE_REF_S over the median probe time within
# PROBE_WINDOW_S of the op.  The times reported are those the op would take
# at the speed where the probe takes PROBE_REF_S.  The probe touches no aml
# code and runs with the garbage collector off, so the program's heap cannot
# slow it down and hide a regression.


_PROBE_DOMAIN = range(7)
_PROBE_REL = frozenset((a, b) for a in _PROBE_DOMAIN for b in _PROBE_DOMAIN if (3 * a + b) % 5 < 2)
# exists y . R(x,y) & ~R(y,x), as nested tuples
_PROBE_FORMULA = ("exists", "y", ("and", ("rel", "x", "y"), ("not", ("rel", "y", "x"))))


def _probe_eval(node: tuple, env: dict[str, int]) -> bool:
    kind = node[0]
    if kind == "rel":
        return (env[node[1]], env[node[2]]) in _PROBE_REL
    if kind == "and":
        return all(_probe_eval(child, env) for child in node[1:])
    if kind == "not":
        return not _probe_eval(node[1], env)
    for a in _PROBE_DOMAIN:  # exists
        env[node[1]] = a
        if _probe_eval(node[2], env):
            return True
    return False


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes: a tiny formula
    evaluator of its own (recursive calls, dict, tuple and set operations,
    Fraction sums), the kinds of work aml spends its time on."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total = Fraction(0)
    for _ in range(18):
        for x in _PROBE_DOMAIN:
            if _probe_eval(_PROBE_FORMULA, {"x": x}):
                total += Fraction(1, 7 + x)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def speed_factors(spans: list[tuple[float, float]],
                  probes: list[tuple[float, float]]) -> list[float]:
    """PROBE_REF_S over the median probe time near each (start, end) span;
    ``probes`` holds (end time, duration) pairs in time order."""
    ends = [end for end, _ in probes]
    factors = []
    for start, end in spans:
        lo = bisect.bisect_left(ends, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(ends, end + PROBE_WINDOW_S)
        near = [duration for _, duration in probes[lo:max(hi, lo + 1)]]
        factors.append(PROBE_REF_S / statistics.median(near))
    return factors


def _probed(probes: list[tuple[float, float]]) -> None:
    duration = probe()
    probes.append((time.perf_counter(), duration))


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int, workdir: str) -> tuple[workloads.Mix, float]:
    """Build and write the inputs; returns the mix and the set-up time.

    Set-up time is the median over SETUP_REPEATS repetitions of a fresh
    interpreter importing ``aml.cli`` plus generating and writing the inputs,
    each scaled to the reference speed by the probes around it.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    spans, probes = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            _probed(probes)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aml.cli"], env=env, check=True, timeout=60)
        mix = workloads.build(workload, seed)
        workloads.write_inputs(mix, workdir)
        spans.append((t0, time.perf_counter()))
        for _ in range(5):
            _probed(probes)
    times = [(end - start) * factor
             for (start, end), factor in zip(spans, speed_factors(spans, probes))]
    return mix, statistics.median(times)


# ---------------------------------------------------------------------------
# The two kinds of run


def timed_run(mix: workloads.Mix, seconds: float, outcomes: Outcomes) -> dict[str, float]:
    """Closed loop over the mix in whole passes, for the number of passes
    that ends nearest to ``seconds`` (at least one).

    Whole passes make every run of a seed measure the same ops, each the same
    number of times, so the share of slow ops, on which the tail percentile
    depends, is fixed.  Each pass runs the ops in one fixed shuffled order,
    which spreads the slow ops over the run.  Every op's time is scaled to
    the reference speed (see ``probe``); the throughput is ops over their
    summed scaled time, and the percentiles are taken over every op of the
    run.  Prints the unscaled figures to stderr.
    """
    order = list(range(len(mix.ops)))
    random.Random("order").shuffle(order)
    spans: list[tuple[float, float]] = []
    probes: list[tuple[float, float]] = []
    _probed(probes)
    start = pass_start = time.perf_counter()
    while True:
        for index in order:
            t0 = time.perf_counter()
            code, stdout = run_op(mix.ops[index])
            spans.append((t0, time.perf_counter()))
            outcomes.add(index, code, stdout)
            _probed(probes)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
        pass_start = now
    raw = [t1 - t0 for t0, t1 in spans]
    scaled = [t * f for t, f in zip(raw, speed_factors(spans, probes))]

    def summary(latencies: list[float]) -> dict[str, float]:
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p95_ms": p95 * 1000,
        }

    unscaled = summary(raw)
    print(f"ops={len(raw)} median_probe_ms={statistics.median(d for _, d in probes) * 1000:.4f} "
          + " ".join(f"unscaled_{k}={v:.4f}" for k, v in unscaled.items()), file=sys.stderr)
    return summary(scaled)


def run_traced(tracer: Tracer, index: int, op: workloads.Op) -> tuple[int | None, str]:
    """Run one op with the tracer installed around it."""
    tracer.begin_op(index)
    tracer.install()
    try:
        return tracer.call("op", run_op, (op,), {})
    finally:
        tracer.uninstall()
        tracer.end_op()


def traced_run(mix: workloads.Mix, seconds: float, outcomes: Outcomes,
               workdir: str) -> tuple[dict[str, float], list[str]]:
    """Whole passes over the mix, each op once plain and once traced."""
    tracer = Tracer()
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, op in enumerate(mix.ops):
            t0 = time.perf_counter()
            outcomes.add(index, *run_op(op))
            plain += time.perf_counter() - t0
            t0 = time.perf_counter()
            outcomes.add(index, *run_traced(tracer, index, op))
            traced += time.perf_counter() - t0
        passes += 1

    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for name in per_layer_units():
        if name.endswith(".calls"):
            metrics[name] = calls[name[:-len(".calls")]] / passes
        elif name in COUNT_METRICS:
            metrics[name] = counts[name] / passes
    parse_s = self_s.get("parser.parse_structure", 0.0)
    metrics["parser.parse_structure.bytes_per_s"] = \
        counts["parser.parse_structure.bytes"] / parse_s if parse_s else 0.0
    sem_s = self_s.get("semantics.eval", 0.0) + self_s.get("semantics.extension", 0.0)
    metrics["semantics.units_per_s"] = counts["semantics.work_units"] / sem_s if sem_s else 0.0
    metrics["trace.overhead_frac"] = traced / plain - 1
    metrics["trace.spans"] = len(tracer.spans) / passes

    total = sum(self_s.values())  # self times partition the time of the op spans
    table = [f"layer shares of traced op time ({passes} pass(es), {total:.2f} s):"]
    layers: Counter = Counter()
    for name, value in self_s.items():
        layers[name.split(".")[0]] += value
    for layer, value in layers.most_common():
        table.append(f"  {layer:12s} {100 * value / total:6.2f}%  {value / passes:.4f} s/pass")
    with open(os.path.join(workdir, "spans.tsv"), "w", encoding="utf-8") as fh:
        fh.write("name\top\tparent\tstart_s\tend_s\n")
        for name, op, parent, t0, t1 in tracer.spans:
            fh.write(f"{name}\t{op}\t{parent}\t{t0 - start:.6f}\t{t1 - start:.6f}\n")
    return metrics, table


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "aml", "cli.py")):
        print(f"error: no aml sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("AML_BUDGET", None)  # the CLI default budget applies
    import aml.cli  # noqa: F401  (the import is timed in set-up, in a fresh interpreter)

    workdir = os.path.join(BENCH_DIR, ".work", args.workload)
    mix, setup_s = setup(args.workload, args.seed, workdir)
    outcomes = Outcomes(mix)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if args.trace:
            metrics, table = traced_run(mix, args.seconds, outcomes, workdir)
        else:
            metrics, table = timed_run(mix, args.seconds, outcomes), []
    finally:
        os.chdir(cwd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct, attempted, failed, notes = outcomes.verdict()
    if args.trace:
        metrics["fail_frac"] = failed / attempted
        units = per_layer_units()
    else:
        metrics.update(ok_frac=1 - failed / attempted, setup_s=setup_s,
                       peak_rss_mb=peak_rss_mb)
        units = END_TO_END_UNITS
    for line in table + notes:
        print(line, file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} ops_in_mix={len(mix.ops)} "
          f"output_sha256={outcomes.digest()}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
