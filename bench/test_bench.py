"""Self-tests of the benchmark (stdlib unittest).

    python3 -m unittest discover -s bench -p "test_*.py"

They check that a seed fixes the inputs and the work counts, that another
seed changes the inputs, that the answer checks flag planted wrong outputs,
and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCRATCH = os.path.join(BENCH_DIR, ".work", "selftest")


def _read_tree(root: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _one_op_per_label(mix: workloads.Mix) -> list[int]:
    seen: dict[str, int] = {}
    for index, op in enumerate(mix.ops):
        seen.setdefault(op.label, index)
    return sorted(seen.values())


def _plant(stdout: str) -> str:
    """A wrong output of the same shape: every value gets a digit appended."""
    return "".join(line + "1\n" for line in stdout.splitlines())


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                trees = []
                for copy in ("a", "b"):
                    mix = workloads.build(workload, 7)
                    root = os.path.join(SCRATCH, f"{workload}-{copy}")
                    shutil.rmtree(root, ignore_errors=True)
                    workloads.write_inputs(mix, root)
                    trees.append((_read_tree(root), [(op.label, op.argv) for op in mix.ops]))
                self.assertEqual(trees[0], trees[1])

    def test_other_seed_gives_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = workloads.build(workload, 7), workloads.build(workload, 8)
                self.assertEqual(len(a.ops), len(b.ops))
                self.assertNotEqual(a.files, b.files)
                self.assertNotEqual([op.argv for op in a.ops], [op.argv for op in b.ops])


class RunOps(unittest.TestCase):
    """Runs the first op of every label in each workload's mix."""

    @classmethod
    def setUpClass(cls):
        cls.cwd = os.getcwd()
        cls.mixes = {w: workloads.build(w, 3) for w in workloads.WORKLOADS}
        for workload, mix in cls.mixes.items():
            workloads.write_inputs(mix, os.path.join(SCRATCH, workload))

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)

    def _in(self, workload: str) -> workloads.Mix:
        os.chdir(os.path.join(SCRATCH, workload))
        return self.mixes[workload]

    def test_counts_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                mix = self._in(workload)
                runs = []
                for _ in range(2):
                    tracer = Tracer()
                    for index in _one_op_per_label(mix):
                        run.run_traced(tracer, index, mix.ops[index])
                    runs.append((dict(tracer.counts), tracer.calls()))
                self.assertEqual(runs[0], runs[1])
                self.assertTrue(any(runs[0][0].values()))

    def test_checks_pass_real_outputs_and_flag_planted_ones(self):
        for workload in workloads.WORKLOADS:
            mix = self._in(workload)
            for index in _one_op_per_label(mix):
                op = mix.ops[index]
                with self.subTest(workload=workload, op=op.label):
                    code, stdout = run.run_op(op)
                    self.assertIsNone(op.check(stdout))
                    self.assertIsNotNone(op.check(_plant(stdout)))

                    outcomes = run.Outcomes(mix)
                    outcomes.add(index, code, _plant(stdout))
                    correct, attempted, failed, _ = outcomes.verdict()
                    self.assertEqual((correct, attempted, failed), (False, 1, 1))

    def test_unexpected_exit_code_fails_the_op_but_not_the_answer(self):
        mix = self._in("soundness-small")
        index = next(i for i, op in enumerate(mix.ops) if op.label == "check-axioms")
        code, stdout = run.run_op(mix.ops[index])
        self.assertEqual(code, 0)
        outcomes = run.Outcomes(mix)
        outcomes.add(index, 1, stdout)
        correct, attempted, failed, notes = outcomes.verdict()
        self.assertEqual((correct, attempted, failed), (True, 1, 1))
        self.assertIn("exit code 1", notes[0])


class NoSources(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        root = os.path.join(SCRATCH, "bare")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(os.path.join(root, "bench"))
        for name in ("run.py", "workloads.py", "tracer.py"):
            shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(root, "bench"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "logic-dense", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
