"""Spans and counts around the public entry points of each aml layer.

The tracer wraps module attributes from outside the program: installing it
replaces, for example, ``aml.regularity.is_epsilon_regular`` with a wrapper
that records a span and then calls the original, and uninstalling restores
every attribute.  Nothing inside ``aml`` changes.

A span is ``[name, op, parent, start, end]``; ``parent`` is the index of the
enclosing span or -1.  A layer's self time is its spans' durations minus the
time covered by their child spans.  Counts are added where the work happens;
those named ``*.terms``, ``*.work``, ``*.windows`` and ``regularity.maps_tried``
are computed from input sizes, the rest are read from results and from the
``Budget`` objects the CLI hands to the evaluator.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Per-layer metrics: span names that have a self time (and a call count).
SPAN_METRICS = (
    "cli",
    "parser.parse_structure", "parser.parse_formula",
    "semantics.eval", "semantics.extension",
    "structures.measure",
    "axioms.generate_instances", "axioms.check_instance",
    "gowers.cube", "gowers.subst", "gowers.box", "gowers.dual",
    "regularity.partition", "regularity.pair_check", "regularity.count_copies",
    "regularity.remove_copies", "regularity.ap_encode",
    "limits.truth_profile", "limits.limit_measure", "limits.banach_density",
)

# Per-layer counts added by the wrappers below.
COUNT_METRICS = (
    "parser.parse_structure.bytes",
    "semantics.work_units",
    "structures.measure.tuples",
    "axioms.instances_generated", "axioms.instances_checked", "axioms.instances_held",
    "gowers.cube.terms", "gowers.subst.terms", "gowers.box.terms",
    "regularity.partition.rounds", "regularity.pair_check.irregular",
    "regularity.maps_tried", "regularity.copies_found", "regularity.ap_encode.work",
    "limits.family_members", "limits.banach_density.windows",
)


def _windows(n_hi: int, l_min: int) -> int:
    """Windows [lo, hi) with 1 <= lo, hi <= n_hi + 1 and hi - lo >= l_min."""
    longest = n_hi + 1 - l_min
    return longest * (longest + 1) // 2 if longest > 0 else 0


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._budgets: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.op, parent, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(idx)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span, then adding ``count(counts, result,
        args, kwargs)`` to the counts."""
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def begin_op(self, index: int) -> None:
        self.op = index
        self._budgets.clear()

    def end_op(self) -> None:
        """Add the work charged to every Budget the op created."""
        self.counts["semantics.work_units"] += sum(b.used for b in self._budgets)
        self._budgets.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from aml import axioms, cli, gowers, limits, regularity, semantics, structures
        from aml import parser

        tracer = self

        class TracedEvaluator(semantics.Evaluator):
            """Records a span for each top-level ``eval``; recursive calls go
            through an instance attribute that bypasses the wrapper."""

            def eval(self, phi, val):
                self.eval = super().eval
                try:
                    return tracer.call("semantics.eval", self.eval, (phi, val), {})
                finally:
                    del self.eval

        class RecordingBudget(semantics.Budget):
            def __init__(self, limit=None):
                super().__init__(limit)
                tracer._budgets.append(self)

        def count_bytes(c, result, args, kwargs):
            c["parser.parse_structure.bytes"] += len(_arg(args, kwargs, 0, "text").encode())

        def count_measure(c, result, args, kwargs):
            c["structures.measure.tuples"] += len(_arg(args, kwargs, 0, "s"))

        def count_generated(c, result, args, kwargs):
            c["axioms.instances_generated"] += len(result)

        def count_checked(c, result, args, kwargs):
            c["axioms.instances_checked"] += 1
            c["axioms.instances_held"] += bool(result.holds)

        def count_cube(c, result, args, kwargs):
            n, k = _arg(args, kwargs, 0, "group").n, _arg(args, kwargs, 2, "k")
            c["gowers.cube.terms"] += n ** (k + 1)

        def count_subst(c, result, args, kwargs):
            n, k = _arg(args, kwargs, 0, "group").n, _arg(args, kwargs, 2, "k")
            c["gowers.subst.terms"] += n ** (2 * k)

        def count_box(c, result, args, kwargs):
            f = _arg(args, kwargs, 0, "f")
            c["gowers.box.terms"] += f.n ** (2 * f.arity)

        def count_partition(c, result, args, kwargs):
            c["regularity.partition.rounds"] += result.rounds

        def count_pair(c, result, args, kwargs):
            c["regularity.pair_check.irregular"] += not result.regular

        def count_copies(c, result, args, kwargs):
            pattern, host = _arg(args, kwargs, 0, "pattern"), _arg(args, kwargs, 1, "host")
            c["regularity.maps_tried"] += host.n ** pattern.n
            c["regularity.copies_found"] += result

        def count_removal(c, result, args, kwargs):
            # remove_copies enumerates the maps once itself, then re-counts the
            # stripped host through count_copies (counted there).
            pattern, host = _arg(args, kwargs, 0, "pattern"), _arg(args, kwargs, 1, "host")
            c["regularity.maps_tried"] += host.n ** pattern.n
            c["regularity.copies_found"] += result.copies_before

        def count_ap(c, result, args, kwargs):
            n, k = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "k")
            c["regularity.ap_encode.work"] += n ** k * k * k * n

        def count_family(c, result, args, kwargs):
            c["limits.family_members"] += len(_arg(args, kwargs, 0, "family").indices())

        def count_windows(c, result, args, kwargs):
            c["limits.banach_density.windows"] += _windows(_arg(args, kwargs, 1, "n_hi"),
                                                           _arg(args, kwargs, 2, "l_min", 1))

        self._patch(cli, "main", self.wrap("cli", cli.main))
        self._patch(cli, "Budget", RecordingBudget)
        self._patch(cli, "parse_structure",
                    self.wrap("parser.parse_structure", parser.parse_structure, count_bytes))
        self._patch(cli, "parse_formula",
                    self.wrap("parser.parse_formula", parser.parse_formula))
        for owner in (cli, axioms, limits):
            self._patch(owner, "Evaluator", TracedEvaluator)
        for owner in (cli, limits):
            self._patch(owner, "extension",
                        self.wrap("semantics.extension", semantics.extension))
            self._patch(owner, "measure",
                        self.wrap("structures.measure", structures.measure, count_measure))
        self._patch(axioms, "generate_instances",
                    self.wrap("axioms.generate_instances", axioms.generate_instances,
                              count_generated))
        self._patch(axioms, "check_instance",
                    self.wrap("axioms.check_instance", axioms.check_instance, count_checked))
        self._patch(gowers, "gowers_norm_pow",
                    self.wrap("gowers.cube", gowers.gowers_norm_pow, count_cube))
        self._patch(gowers, "gowers_norm_pow_subst",
                    self.wrap("gowers.subst", gowers.gowers_norm_pow_subst, count_subst))
        self._patch(gowers, "gowers_box_pow",
                    self.wrap("gowers.box", gowers.gowers_box_pow, count_box))
        self._patch(gowers, "dual_function",
                    self.wrap("gowers.dual", gowers.dual_function))
        self._patch(regularity, "regularity_partition",
                    self.wrap("regularity.partition", regularity.regularity_partition,
                              count_partition))
        self._patch(regularity, "is_epsilon_regular",
                    self.wrap("regularity.pair_check", regularity.is_epsilon_regular,
                              count_pair))
        self._patch(regularity, "count_copies",
                    self.wrap("regularity.count_copies", regularity.count_copies,
                              count_copies))
        self._patch(regularity, "remove_copies",
                    self.wrap("regularity.remove_copies", regularity.remove_copies,
                              count_removal))
        self._patch(regularity, "ap_encode",
                    self.wrap("regularity.ap_encode", regularity.ap_encode, count_ap))
        self._patch(limits, "truth_profile",
                    self.wrap("limits.truth_profile", limits.truth_profile, count_family))
        self._patch(limits, "limit_measure",
                    self.wrap("limits.limit_measure", limits.limit_measure, count_family))
        self._patch(limits, "banach_density",
                    self.wrap("limits.banach_density", limits.banach_density,
                              count_windows))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)
