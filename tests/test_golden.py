"""Pinned output digests: each demo's stdout, and one pass over the seed-1
logic-dense and combinatorics benchmark mixes, against tests/golden/digests.txt.
CI reads its pins from the same file; the soundness-small pin is checked
there only, since one pass of that mix takes seconds.  The same pass counts
the pair checks that go through ``aml.regularity.is_epsilon_regular``, the
name the bench tracer wraps, and their irregular verdicts."""

from contextlib import redirect_stdout
import hashlib
import importlib.util
from io import StringIO
from pathlib import Path
import runpy
import sys

import pytest

from aml import regularity

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


# (calls, irregular verdicts) of the pass's pair checks, as CI's traced run
# pins them
PAIR_CHECKS = {"logic-dense": (0, 0), "combinatorics": (6835, 2995)}


@pytest.mark.parametrize("workload", ["logic-dense", "combinatorics"])
def test_one_benchmark_pass_matches_its_pin(workload, monkeypatch, tmp_path):
    bench = _bench_run(monkeypatch)
    verdicts, check = [], regularity.is_epsilon_regular

    def counted(*args, **kwargs):
        verdicts.append(check(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(regularity, "is_epsilon_regular", counted)
    mix = bench.workloads.build(workload, 1)
    bench.workloads.write_inputs(mix, str(tmp_path))  # op paths are relative to it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AML_BUDGET", raising=False)  # as bench/run.py runs ops
    outcomes = bench.Outcomes(mix)
    for index, op in enumerate(mix.ops):
        outcomes.add(index, *bench.run_op(op))
    correct, _, failed, notes = outcomes.verdict()
    assert (correct, failed) == (True, 0), notes
    assert outcomes.digest() == PINS[workload]
    assert (len(verdicts), sum(not v.regular for v in verdicts)) == PAIR_CHECKS[workload]
