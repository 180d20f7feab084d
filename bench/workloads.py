"""Seeded inputs, op mixes and answer checks for the three bench workloads.

Every workload is a list of ops built from ``random.Random(f"{name}:{seed}")``
only, so one seed always gives the same input files and the same ops.  An op
is one in-process ``aml.cli.main(argv)`` call, or one public library call
where the CLI has no entry.  Each op carries a ``check(stdout)`` that
returns ``None`` when the answer is right and a message otherwise; checks
run after the timed region.

Where the answer can be derived from the generated input, the check derives
it with code of its own (triangle, path and degree measures, copy counts, AP
counts, window densities, Gowers powers by the derivative recursion).
Where it cannot, the check leans on a second computation: the program's own
comparison of two Gowers forms and of two AP counters (the exit code), the
energies of the reported regularity partition re-derived here, and box norms
compared against <f, D f>.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = Callable[[str], "str | None"]


@dataclass
class Op:
    """One benchmark operation.

    ``argv`` is passed to ``aml.cli.main``; for a library op ``argv`` is
    ``None`` and ``call`` names a function of ``aml.gowers`` and its
    argument.  Every op's input is valid and every property it checks
    holds, so the CLI contract promises exit code 0.
    """

    label: str
    check: Check
    argv: list[str] | None = None
    call: tuple[str, object] | None = None


@dataclass
class Mix:
    ops: list[Op]
    files: dict[str, str]  # relative path -> content


# ---------------------------------------------------------------------------
# Small helpers


def parse_records(stdout: str) -> dict[str, str]:
    """``key=value`` lines from ``--format records`` output."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            out[key] = value
    return out


def _lazy_records(compute: Callable[[], dict[str, str]]) -> Check:
    """A check that the output holds the records ``compute()`` returns.  The
    expected records are derived on first use, so that deriving answers
    never runs inside set-up or the timed region."""
    cache: list[dict[str, str]] = []

    def check(stdout: str) -> str | None:
        if not cache:
            cache.append(compute())
        got = parse_records(stdout)
        wrong = [f"{k}={got.get(k)!r} (want {v!r})" for k, v in cache[0].items()
                 if got.get(k) != v]
        return "wrong answer: " + ", ".join(wrong) if wrong else None

    return check


def _rand_weights(rng: random.Random, n: int, allow_zero: bool) -> list[Fraction]:
    lo = 0 if allow_zero else 1
    raw = [rng.randint(lo, 4) for _ in range(n)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return [Fraction(a, total) for a in raw]


def _structure_text(n: int, weights, constants, functions, relations) -> str:
    """The structure file format of ``aml.parser.parse_structure``."""
    lines = [f"universe {n}"]
    if weights is None:
        lines.append("measure counting")
    else:
        lines.append("measure weights " + " ".join(map(str, weights)))
    for name, value in constants:
        lines.append(f"constant {name} {value}")
    for name, arity, table in functions:
        lines.append(f"function {name} {arity}")
        for start in range(0, len(table), n):
            lines.append(" ".join(map(str, table[start:start + n])))
    for name, arity, tuples in relations:
        lines.append(f"relation {name} {arity}")
        lines.extend(" ".join(map(str, t)) for t in sorted(tuples))
        lines.append("end")
    return "\n".join(lines) + "\n"


def _random_graph(rng: random.Random, n: int, p: float) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _near_threshold(rng: random.Random, mu: Fraction) -> Fraction:
    """Half the time exactly mu (so the boundary flag decides), otherwise a
    random rational in [0, 1] with a small denominator."""
    if rng.random() < 0.5:
        return mu
    den = rng.randint(2, 12)
    return Fraction(rng.randint(0, den), den)


# ---------------------------------------------------------------------------
# logic-dense: eval / measure / limit on random graph structures


@dataclass
class _Graph:
    n: int
    adj: list[set[int]]
    p_set: set[int]
    weights: list[Fraction] | None

    def w(self, a: int) -> Fraction:
        return Fraction(1, self.n) if self.weights is None else self.weights[a]

    def mass(self, elems) -> Fraction:
        return sum((self.w(a) for a in elems), Fraction(0))

    def text(self) -> str:
        n = self.n
        add = [(a + b) % n for a in range(n) for b in range(n)]
        edges = [(u, v) for u in range(n) for v in self.adj[u]]
        return _structure_text(n, self.weights, [("e", 0)], [("add", 2, add)],
                               [("P", 1, [(a,) for a in sorted(self.p_set)]),
                                ("R", 2, edges)])

    # Independent measures of the template formulae.

    def triangle_mu(self) -> Fraction:
        total = Fraction(0)
        for x in range(self.n):
            for y in self.adj[x]:
                for z in self.adj[x] & self.adj[y]:
                    total += self.w(x) * self.w(y) * self.w(z)
        return total

    def path2_mu(self) -> Fraction:
        return sum((self.w(x) * self.w(y) for x in range(self.n) for y in range(self.n)
                    if self.adj[x] & self.adj[y]), Fraction(0))

    def degree(self, x: int, restrict: set[int] | None = None) -> Fraction:
        nbrs = self.adj[x] if restrict is None else self.adj[x] & restrict
        return self.mass(nbrs)

    def shift_mu(self) -> Fraction:
        n = self.n
        return sum((self.w(x) * self.w(y) for x in range(n) for y in range(n)
                    if (x + y) % n in self.adj[y]), Fraction(0))


def _logic_ops(rng: random.Random, g: _Graph, path: str, fam: str,
               limit_measure: bool) -> list[Op]:
    """The per-structure op templates of logic-dense, in a fixed order."""
    ops: list[Op] = []
    rec = ["--format", "records"]

    def meas_eval(label, formula, mu, cmp, q):
        want = {"verdict": str(mu <= q if cmp == "<=" else mu < q).lower(),
                "mu": str(mu), "cmp": cmp, "threshold": str(q), "flag": "."}
        ops.append(Op(label, _lazy_records(lambda: want),
                      ["eval", path, formula.format(cmp=cmp, q=q)] + rec))

    def cmp_and_threshold(mu):
        return rng.choice(("<", "<=")), _near_threshold(rng, mu)

    # Thresholds at mu need mu before the run, so the measures of these
    # templates are derived while the inputs are generated.
    triangle = "m[x,y,z] {cmp} {q} . R(x,y) & R(y,z) & R(z,x)"
    tri = g.triangle_mu()
    meas_eval("eval.triangle", triangle, tri, "<=", tri)
    meas_eval("eval.triangle", triangle, tri, "<", _near_threshold(rng, tri))
    path2 = g.path2_mu()
    meas_eval("eval.path2", "m[x,y] {cmp} {q} . exists z . R(x,z) & R(z,y)",
              path2, *cmp_and_threshold(path2))
    shift = g.shift_mu()
    for _ in range(4):
        meas_eval("eval.function", "m[x,y] {cmp} {q} . R(add(x,y), y)",
                  shift, *cmp_and_threshold(shift))
    pair = sum((g.w(x) * g.w(-x % g.n) for x in range(g.n)), Fraction(0))
    meas_eval("eval.function", "m[x,y] {cmp} {q} . add(x,y) = e",
              pair, *cmp_and_threshold(pair))

    degrees = [g.degree(x) for x in range(g.n)]
    for _ in range(4):
        q = _near_threshold(rng, rng.choice(degrees))
        verdict = all(d <= q for d in degrees)
        ops.append(Op("eval.degree", _lazy_records(lambda v=verdict: {"verdict": str(v).lower()}),
                      ["eval", path, f"forall x . m[y] <= {q} . R(x,y)"] + rec))
    for _ in range(2):
        pdeg = [g.degree(x, g.p_set) for x in range(g.n)]
        q = _near_threshold(rng, rng.choice(pdeg))
        verdict = any(d < q for d in pdeg)
        ops.append(Op("eval.degree", _lazy_records(lambda v=verdict: {"verdict": str(v).lower()}),
                      ["eval", path, f"exists x . m[y] < {q} . R(x,y) & P(y)"] + rec))

    for _ in range(6):
        r = rng.choice(degrees)
        heavy = g.mass(x for x in range(g.n) if degrees[x] >= r)
        meas_eval("eval.nested", "m[x] {cmp} {q} . m[y] >= " + str(r) + " . R(x,y)",
                  heavy, *cmp_and_threshold(heavy))

    def extension_xyz():
        pairs = [(x, y) for x in g.p_set for y in g.adj[x]]
        mu = sum((g.w(x) * g.w(y) for x, y in pairs), Fraction(0)) * g.mass(range(g.n))
        return {"mu": str(mu), "count": str(len(pairs) * g.n), "tuples": str(g.n ** 3)}

    def extension_xy():
        pairs = [(x, y) for x in range(g.n) for y in range(g.n)
                 if y in g.adj[x] or x in g.p_set]
        mu = sum((g.w(x) * g.w(y) for x, y in pairs), Fraction(0))
        return {"mu": str(mu), "count": str(len(pairs)), "tuples": str(g.n ** 2)}

    ops.append(Op("measure.vars", _lazy_records(extension_xyz),
                  ["measure", path, "R(x,y) & P(x)", "--vars", "x,y,z"] + rec))
    check_xy = _lazy_records(extension_xy)
    for _ in range(5):
        ops.append(Op("measure.vars", check_xy,
                      ["measure", path, "R(x,y) | P(x)", "--vars", "x,y"] + rec))

    # Limit profiles over the cyclic family Z_1..Z_40 (target 0 is approached
    # from above by mu_i = 1/i, so the flag is PLUS and both bounds fail).
    if limit_measure:
        def compute():
            out = {"verdict": "converged", "limit": "0", "flag": "+",
                   "lt": "false", "le": "false"}
            out.update({f"mu.{i}": str(Fraction(1, i)) for i in range(1, 41)})
            return out
        ops.append(Op("limit.measure", _lazy_records(compute),
                      ["limit", fam, "--phi", "add(x,y) = e", "--vars", "x,y",
                       "--target", "0"] + rec))
    else:
        c = rng.randint(2, 30)
        ops.append(Op("limit.profile",
                      _lazy_records(lambda c=c: {"verdict": "eventually-true", "from": str(c)}),
                      ["limit", fam, "--sentence", f"m[x] <= 1/{c} . x = e"] + rec))
    return ops


def _logic_dense(rng: random.Random) -> tuple[list[Op], dict[str, str]]:
    files = {"fam.fam": "family cyclic 1 40\n"}
    # The shape of the mix (sizes, edge densities, which structures carry
    # weights) is fixed; the seed draws the graphs, weights and thresholds.
    # That keeps the cost of a pass alike across seeds.
    shapes = [(24, 0.2, False), (32, 0.3, True), (40, 0.2, False), (48, 0.3, False),
              (24, 0.3, False), (32, 0.2, False), (40, 0.3, True), (48, 0.2, False)]
    per_structure = []
    for i, (n, density, weighted) in enumerate(shapes):
        adj = _random_graph(rng, n, density)
        p_set = {a for a in range(n) if rng.random() < 0.5}
        weights = _rand_weights(rng, n, allow_zero=False) if weighted else None
        g = _Graph(n, adj, p_set, weights)
        path = f"g{i}.struct"
        files[path] = g.text()
        per_structure.append(_logic_ops(rng, g, path, "fam.fam", limit_measure=i % 2 == 0))
    # Interleave structures so that any prefix of the mix is representative.
    ops = [op for group in itertools.zip_longest(*per_structure) for op in group if op]
    return ops, files


# ---------------------------------------------------------------------------
# soundness-small: check-axioms over tiny random structures


SCHEME_GROUPS = ("AML", "I", "F", "F+", "AML,I,F,F+")


def _soundness_small(rng: random.Random) -> tuple[list[Op], dict[str, str]]:
    # Twelve structures of each size n = 2..6, three of every ten weighted.
    # Op i uses scheme group i % 5 and 15 + 7i mod 26 instances on a structure
    # of size 2 + (i // 5) % 5, so every group meets every size and count, and
    # a pass costs alike across seeds.  The slowest ops are those whose
    # generated instances happen to be deep formulas over a weighted n = 6
    # structure, so the tail latency is a sample of the instance generator's
    # draws: 960 distinct ops, about one pass per run, keep the seed's share
    # of the op_p95_ms spread small.
    files: dict[str, str] = {}
    by_size: dict[int, list[str]] = {n: [] for n in range(2, 7)}
    for i in range(60):
        n = 2 + i % 5
        weights = _rand_weights(rng, n, allow_zero=True) if i % 10 in (2, 5, 9) else None
        f_table = [rng.randrange(n) for _ in range(n)]
        p = [(a,) for a in range(n) if rng.random() < 0.5]
        r = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4]
        path = f"s{i}.struct"
        files[path] = _structure_text(n, weights, [("e", rng.randrange(n))],
                                      [("f", 1, f_table)], [("P", 1, p), ("R", 2, r)])
        by_size[n].append(path)
    paths = [path for group in by_size.values() for path in group]
    ops = []
    for i in range(960):
        # Every fourth op names 2-3 structure files.  The CLI splits the
        # count across them; all instances hold, so exit 0 is the contract.
        if i % 4 == 3:
            chosen = rng.sample(paths, 2 + i // 4 % 2)
        else:
            chosen = [rng.choice(by_size[2 + i // 5 % 5])]
        count = 15 + 7 * i % 26
        check = _lazy_records(lambda c=count: {"held": str(c), "total": str(c)})
        ops.append(Op("check-axioms.multi" if len(chosen) > 1 else "check-axioms",
                      check,
                      ["check-axioms", *chosen, "--schemes", SCHEME_GROUPS[i % 5],
                       "--count", str(count), "--seed", str(rng.randrange(10 ** 6)),
                       "--format", "records"]))
    return ops, files


# ---------------------------------------------------------------------------
# combinatorics: gowers, regularity, hypergraph, ap-encode, density, box norms


def gowers_power_cyclic(values: list[Fraction], k: int) -> Fraction:
    """||g||_{U^k}^{2^k} on Z_n by the derivative recursion
    ||g||^{2^k} = E_h ||g * g(. + h)||^{2^(k-1)}, with ||g||_{U^1}^2 = (E g)^2."""
    n = len(values)
    if k == 1:
        return (sum(values, Fraction(0)) / n) ** 2
    total = sum((gowers_power_cyclic([values[x] * values[(x + h) % n] for x in range(n)], k - 1)
                 for h in range(n)), Fraction(0))
    return total / n


def _cliques(adj: list[set[int]], size: int) -> int:
    def extend(clique_size: int, candidates: set[int], last: int) -> int:
        if clique_size == size:
            return 1
        return sum(extend(clique_size + 1, candidates & adj[v], v)
                   for v in candidates if v > last)
    return extend(0, set(range(len(adj))), -1)


def _graph_file(n: int, adj: list[set[int]], header: str) -> str:
    lines = [header]
    lines += [f"{u} {v}" for u in range(n) for v in sorted(adj[u]) if u < v]
    return "\n".join(lines) + "\n"


def _partition_energy(n: int, adj: list[set[int]], parts: list[list[int]]) -> Fraction:
    total = Fraction(0)
    for p in parts:
        for q in parts:
            qs = set(q)
            e = sum(len(adj[x] & qs) for x in p)
            total += Fraction(e * e, len(p) * len(q) * n * n)
    return total


def _regularity_check(n: int, adj: list[set[int]], eps: Fraction, cap: int) -> Check:
    pieces = -(-n // cap)
    base, extra = divmod(n, pieces)
    chunks, start = [], 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size

    def check(stdout: str) -> str | None:
        rec = parse_records(stdout)
        try:
            parts = [[int(v) for v in rec[f"part.{i}"].split()]
                     for i in range(int(rec["parts"]))]
            energies = [Fraction(rec[f"energy.{i}"]) for i in
                        range(sum(1 for key in rec if key.startswith("energy.")))]
            mass, bound = int(rec["mass"]), Fraction(rec["bound"])
        except (KeyError, ValueError) as e:
            return f"malformed regularity output: {e!r}"
        if rec.get("status") != "regular":
            return f"status {rec.get('status')!r} (want 'regular')"
        if sorted(v for p in parts for v in p) != list(range(n)):
            return "parts do not partition the vertex set"
        if bound != eps * n * n or mass > bound:
            return f"irregular mass {mass} vs bound {bound}"
        if not energies or energies[0] != _partition_energy(n, adj, chunks):
            return "initial energy differs from the energy of the initial chunks"
        if energies[-1] != _partition_energy(n, adj, parts):
            return "final energy differs from the energy of the reported partition"
        if any(b <= a for a, b in zip(energies, energies[1:])):
            return "energy log does not increase"
        return None

    return check


def _hypergraph_check(n: int, adj: list[set[int]], size: int, remove: bool) -> Check:
    labeled = 6 if size == 3 else 24  # automorphisms of K3 and K4

    def check(stdout: str) -> str | None:
        rec = parse_records(stdout)
        want = _cliques(adj, size) * labeled
        if rec.get("copies") != str(want):
            return f"copies={rec.get('copies')!r} (want {want})"
        if remove:
            removed = [tuple(int(v) for v in rec[key].split())
                       for key in rec if key.startswith("removed.")]
            if rec.get("copies_after") != "0":
                return f"copies_after={rec.get('copies_after')!r} (want 0)"
            if any(len(e) != 2 or e[1] not in adj[e[0]] for e in removed):
                return "removed a pair that is not a host edge"
            stripped = [set(s) for s in adj]
            for u, v in removed:
                stripped[u].discard(v)
                stripped[v].discard(u)
            if _cliques(stripped, size):
                return "copies remain after removing the reported edges"
        return None

    return check


def direct_ap_count(a_set: set[int], n: int, k: int) -> int:
    """(k+1)-term APs with nonzero difference inside A, each counted with the
    encoding's multiplicity #{x in [1,n]^k : sum i*x_i = a, sum x_i + d in [1, k^2 n]}."""
    big = k * k * n
    sums: dict[int, list[int]] = {}
    for xs in itertools.product(range(1, n + 1), repeat=k):
        sums.setdefault(sum(i * x for i, x in enumerate(xs, start=1)), []).append(sum(xs))
    count = 0
    for a in a_set:
        for d in range(-big, big + 1):
            if d and all(a + i * d in a_set for i in range(1, k + 1)):
                count += sum(1 for s in sums.get(a, ()) if 1 <= s + d <= big)
    return count


def window_density(e_set: set[int], n_hi: int, l_min: int) -> Fraction:
    """Best density over windows [lo, hi) inside [1, n_hi] of length >= l_min.

    Only lengths below 2 * l_min are scanned: a longer window splits into two
    windows of length >= l_min, one of which is at least as dense.
    """
    prefix = [0]
    for v in range(1, n_hi + 1):
        prefix.append(prefix[-1] + (v in e_set))
    best_num, best_den = 0, 1
    for lo in range(1, n_hi + 1):
        for hi in range(lo + l_min, min(lo + 2 * l_min, n_hi + 2)):
            num, den = prefix[hi - 1] - prefix[lo - 1], hi - lo
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num, best_den)


def _box_norm_checks(f) -> tuple[Check, Check]:
    """Checks for ``gowers_box_pow(f)`` and ``dual_function(f)``: each output
    must satisfy ||f||^{2^k} = <f, D f> together with the other function's
    value."""
    from aml import gowers

    def box_check(stdout: str) -> str | None:
        try:
            box = Fraction(stdout.strip())
        except ValueError:
            return f"box output {stdout!r} is not a rational"
        if box != gowers.inner_product(f, gowers.dual_function(f)):
            return "box norm power differs from <f, D f>"
        return None

    def dual_check(stdout: str) -> str | None:
        try:
            dual = gowers.GridFunction(f.n, f.arity, tuple(map(Fraction, stdout.split())),
                                       f.weights)
        except (ValueError, gowers.GowersError):
            return f"dual output {stdout[:40]!r}... is not a function table"
        if gowers.inner_product(f, dual) != gowers.gowers_box_pow(f):
            return "<f, D f> differs from the box norm power"
        return None

    return box_check, dual_check


def _combinatorics(rng: random.Random) -> tuple[list[Op], dict[str, str]]:
    files = {
        "k3.hg": "hypergraph 3 2\n0 1\n1 2\n0 2\n",
        "k4.hg": "hypergraph 4 2\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    }
    rec = ["--format", "records"]
    # Sixteen rounds of the same op shapes.  Sizes follow a fixed schedule of
    # eight steps over the stated ranges, run through twice; the seed draws
    # functions, graphs and sets.  Any prefix of the mix is then
    # representative, and passes cost alike across seeds.  Two runs through
    # the schedule give the tail latency 16 draws of the costliest op.
    ops: list[Op] = []
    for r in range(16):
        s = r % 8  # step of the size schedule
        for n, k in ((8 + s % 9, 2), (16 - s % 9, 2), (8 + (s * 4) % 9, 2), (5 + s % 2, 3)):
            values = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
            g_arg = ",".join(map(str, values))
            ops.append(Op(
                f"gowers.k{k}",
                _lazy_records(lambda v=values, k=k: {"power": str(gowers_power_cyclic(v, k))}),
                ["gowers", f"z{n}", f"--g={g_arg}", "--k", str(k)] + rec))

        # Planted bipartitions (complete between the halves 0..n/2-1 and the
        # rest, 1% of pairs flipped) have regular pairs, so their verdicts
        # need the full 2^cap certification.  Every round has one of the same
        # shape, the costliest op of the mix, so the tail latency measures
        # certification rather than which graphs the seed drew; a second one
        # varies the shape.  A G(n, p) graph, which refinement shatters
        # quickly, completes the round.  Sizing guard: cap <= 12, eps <= 1/3.
        varied = ((30, 4, 10), (34, 4, 10), (38, 4, 10), (42, 4, 10),
                  (30, 3, 10), (42, 3, 10), (30, 3, 12), (32, 3, 12))[s]
        shapes = ((46, Fraction(1, 4), 10, "planted"),
                  (varied[0], Fraction(1, varied[1]), varied[2], "planted"),
                  (40 + 20 * s // 7, Fraction(1, 3 + s % 2), 12, "random"))
        for j, (n, eps, cap, kind) in enumerate(shapes):
            if kind == "planted":
                adj = [set() for _ in range(n)]
                for u in range(n):
                    for v in range(u + 1, n):
                        if (rng.random() < 0.01) != ((u < n // 2) != (v < n // 2)):
                            adj[u].add(v)
                            adj[v].add(u)
            else:
                adj = _random_graph(rng, n, 0.3 + 0.04 * (s % 5))
            path = f"r{r}_{j}.graph"
            files[path] = _graph_file(n, adj, f"graph {n}")
            ops.append(Op(f"regularity.{kind}", _regularity_check(n, adj, eps, cap),
                          ["regularity", path, "--eps", str(eps), "--cap", str(cap)] + rec))

        # Triangle and K4 copies, counted and removed.  Removal hosts stay
        # sparse (about 40 or fewer distinct copies): the exact hitting set
        # goes from under 0.1 s to minutes per op past 100 copies.
        for j, (n, size, p, remove) in enumerate(((12 + (s * 3) % 7, 3, 0.45, False),
                                                  (12 + s % 3, 4, 0.5, False),
                                                  (12 + (s * 5) % 7, 3, 0.2, True),
                                                  (12 + (s + 1) % 3, 4, 0.35, True))):
            adj = _random_graph(rng, n, p)
            path = f"h{r}_{j}.hg"
            files[path] = _graph_file(n, adj, f"hypergraph {n} 2")
            argv = ["hypergraph", path, "--pattern", f"k{size}.hg"]
            if remove:
                argv.append("--remove")
            ops.append(Op(f"hypergraph.k{size}" + (".remove" if remove else ""),
                          _hypergraph_check(n, adj, size, remove), argv + rec))

        for n, k in ((10 + 10 * s // 7, 2), (10 + s % 5, 3)):
            a_set = {x for x in range(1, n + 1) if rng.random() < 0.5} or {1}
            path = f"a{r}_{k}.set"
            files[path] = " ".join(map(str, sorted(a_set))) + "\n"

            def compute(a=a_set, n=n, k=k):
                c = str(direct_ap_count(a, n, k))
                return {"copies_nontrivial": c, "direct": c, "verified": "true"}
            ops.append(Op(f"ap-encode.k{k}", _lazy_records(compute),
                          ["ap-encode", "--A", path, "--n", str(n), "--k", str(k)] + rec))

        n_hi = 500 + 1000 * s // 7
        l_min = 5 + 5 * s
        e_set = {v for v in range(1, n_hi + 1) if rng.random() < 0.3}
        path = f"e{r}.set"
        files[path] = " ".join(map(str, sorted(e_set))) + "\n"
        ops.append(Op("density",
                      _lazy_records(lambda e=e_set, nh=n_hi, lm=l_min:
                                    {"density": str(window_density(e, nh, lm))}),
                      ["density", "--E", path, "--N", str(n_hi), "--Lmin", str(l_min)] + rec))

        n, arity = ((5, 2), (3, 3))[s % 2]
        values = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(n ** arity)]
        weights = _rand_weights(rng, n, allow_zero=False) if rng.random() < 0.5 else []
        from aml import gowers
        f = gowers.GridFunction(n, arity, tuple(values), tuple(weights))
        box_check, dual_check = _box_norm_checks(f)
        ops.append(Op("box", box_check, call=("gowers_box_pow", f)))
        ops.append(Op("dual", dual_check, call=("dual_function", f)))
    return ops, files


_BUILDERS = {
    "logic-dense": _logic_dense,
    "soundness-small": _soundness_small,
    "combinatorics": _combinatorics,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> Mix:
    """The op mix and input files of a workload for one seed."""
    return Mix(*_BUILDERS[workload](random.Random(f"{workload}:{seed}")))


def write_inputs(mix: Mix, workdir: str) -> None:
    """Write the mix's input files under ``workdir`` (paths in op argv are
    relative to it)."""
    os.makedirs(workdir, exist_ok=True)
    for rel, text in mix.files.items():
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
