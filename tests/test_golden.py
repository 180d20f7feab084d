"""Pinned output digests: each demo's stdout, and one pass over the seed-1
logic-dense and combinatorics benchmark mixes, against tests/golden/digests.txt.
CI reads its pins from the same file; the soundness-small pin is checked
there only, since one pass of that mix takes seconds.  The pass runs every
CLI op with --stats and reads the pair checks and irregular verdicts of the
regularity survey, and the work units charged, from the library's counters;
the digest is taken with the stats records stripped, so it also shows that
--stats moves no byte of any op's output."""

from collections import Counter
from contextlib import redirect_stdout
import dataclasses
import hashlib
import importlib.util
from io import StringIO
from pathlib import Path
import runpy
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = dict(line.split() for line in (ROOT / "tests" / "golden" / "digests.txt")
            .read_text().splitlines() if line and not line.startswith("#"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKLOADS = ("logic-dense", "soundness-small", "combinatorics")


def test_every_pin_names_a_demo_or_a_workload():
    assert set(PINS) == {demo.stem for demo in DEMOS} | set(WORKLOADS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_stdout_matches_its_pin(demo):
    out = StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINS[demo.stem]


def _bench_run(monkeypatch):
    """bench/run.py as a module, imported without writing under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ on it
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (pair checks, irregular verdicts) of the pass's regularity survey, as the
# library counts them
PAIR_CHECKS = {"logic-dense": (0, 0), "combinatorics": (6835, 2995)}
# the work units that the pass's CLI ops charge, summed: a change that claims
# only speed moves no charge.  Combinatorics includes the 1,108 vertices that
# its hypergraph ops' file headers declare, host and pattern both.
BUDGET_USED = {"logic-dense": 2309120, "combinatorics": 6568458}


def _strip_stats(stdout: str, counts: Counter) -> str:
    """``stdout`` without its trailing stats.<name>=<n> records, each added
    into ``counts``."""
    lines = stdout.splitlines(keepends=True)
    while lines and lines[-1].startswith("stats."):
        name, _, n = lines.pop()[len("stats."):].rstrip("\n").partition("=")
        counts[name] += int(n)
    return "".join(lines)


@pytest.mark.parametrize("workload", ["logic-dense", "combinatorics"])
def test_one_benchmark_pass_matches_its_pin(workload, monkeypatch, tmp_path):
    bench = _bench_run(monkeypatch)
    mix = bench.workloads.build(workload, 1)
    bench.workloads.write_inputs(mix, str(tmp_path))  # op paths are relative to it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AML_BUDGET", raising=False)  # as bench/run.py runs ops
    outcomes, counts, cli_ops, with_stats = bench.Outcomes(mix), Counter(), 0, 0
    for index, op in enumerate(mix.ops):
        if op.argv is None:
            outcomes.add(index, *bench.run_op(op))
            continue
        code, stdout = bench.run_op(dataclasses.replace(op, argv=[*op.argv, "--stats"]))
        shown = stdout if code is None else _strip_stats(stdout, counts)
        cli_ops, with_stats = cli_ops + 1, with_stats + (shown != stdout)
        outcomes.add(index, code, shown)
    correct, _, failed, notes = outcomes.verdict()
    assert (correct, failed) == (True, 0), notes
    assert outcomes.digest() == PINS[workload]
    assert with_stats == cli_ops   # every CLI op exits 0, so each printed its stats
    assert (counts["regularity.pair_checks"], counts["regularity.irregular_pairs"]) == \
        PAIR_CHECKS[workload]
    assert counts["budget.used"] == BUDGET_USED[workload], \
        f"budget.used {BUDGET_USED[workload]} pinned, {counts['budget.used']} now"
