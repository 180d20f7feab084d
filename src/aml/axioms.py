"""Axiom schemes for the measure constructor, and empirical soundness checks.

Scheme groups:

  AML - emptyset-a/b, comparability-a/b, coherence-a/b, additivity-a/b/c/d,
        product-a/b/c/d: the core laws of a finitely additive product measure.
  I   - perm invariance: measure bounds survive permuting the bound tuple.
  F   - iterated-integration bounds (if fibers are bounded below/above, the
        product set is): the two threshold-gap forms (t < qr / qr < t).
  F+  - the boundary completions of F at threshold exactly qr.

Every scheme is a template: `instantiate` substitutes formulae and rationals,
validates the side conditions, and returns the universally closed sentence.

Side conditions.  Some come written into the law itself (coherence-b needs
t < t'; f-a needs t < qr; f-b needs qr < t).  Others are required for the
law to hold on finite product-measure structures, where all flags are exact:
product-b and product-d need t > 0, f+-b needs q > 0, f+-c needs r > 0,
f+-e needs q > 0 and r > 0, and f+-f needs r > 0 — each has a zero-threshold
counterexample otherwise (e.g. product-b with t = 0: the antecedent
m[x] <= 0 . phi is satisfiable with an empty extension, but the consequent
m[x,y] < 0 . (phi & psi) can never hold).  `instantiate` rejects violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .semantics import Budget, Evaluator
from .structures import FiniteStructure
from .syntax import (AbbrevCmp, And, Atom, Cmp, Const, Equality, Forall, Formula, Func,
                     Implies, Meas, Not, Or, Signature, Var, expand_abbrev, free_vars)


class SideConditionError(ValueError):
    """A scheme's side condition was violated at instantiation time."""


@dataclass(frozen=True)
class SchemeInstance:
    scheme: str
    matrix: Formula                 # the law with parameters still free
    param_vars: tuple[str, ...]     # z-bar: the universally closed parameters
    sentence: Formula               # universal closure of the matrix
    params: dict[str, Fraction] = field(default_factory=dict)
    phi: Formula | None = None
    psi: Formula | None = None

    def describe(self) -> str:
        from .parser import print_formula
        rats = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.scheme}[{rats}]: {print_formula(self.sentence)}"


def _forall(vars: tuple[str, ...], body: Formula) -> Formula:
    for v in reversed(vars):
        body = Forall(v, body)
    return body


def _close(scheme: str, matrix: Formula, params: dict[str, Fraction],
           phi: Formula | None = None, psi: Formula | None = None) -> SchemeInstance:
    zs = tuple(sorted(free_vars(matrix)))
    return SchemeInstance(scheme, matrix, zs, _forall(zs, matrix), dict(params), phi, psi)


def _ge(xs, r, body):
    return expand_abbrev(xs, AbbrevCmp.GE, r, body)


def _gt(xs, r, body):
    return expand_abbrev(xs, AbbrevCmp.GT, r, body)


def _need(cond: bool, scheme: str, reason: str) -> None:
    if not cond:
        raise SideConditionError(f"{scheme}: {reason}")


def _check_meas_shape(scheme: str, xs, ys=None, phi=None, psi=None,
                      psi_avoids_ys: bool = False, split_product: bool = False) -> None:
    xs = tuple(xs)
    _need(len(set(xs)) == len(xs) and xs != (), scheme, "bound variables must be distinct")
    if ys is not None:
        ys = tuple(ys)
        _need(len(set(ys)) == len(ys) and ys != (), scheme, "bound variables must be distinct")
        _need(not set(xs) & set(ys), scheme, "the two bound tuples must be disjoint")
    if psi_avoids_ys and psi is not None and ys is not None:
        _need(not free_vars(psi) & set(ys), scheme,
              "psi may not contain variables from the second bound tuple")
    if split_product and phi is not None and psi is not None and ys is not None:
        _need(not free_vars(phi) & set(ys), scheme,
              "phi may only use the first bound tuple and parameters")
        _need(not free_vars(psi) & set(xs), scheme,
              "psi may only use the second bound tuple and parameters")


# ---------------------------------------------------------------------------
# Scheme builders.  Each returns a SchemeInstance; rationals arrive as any
# Fraction-convertible and are normalized here.


def _build_emptyset_a(xs=("x",), **_):
    xs = tuple(xs)
    _check_meas_shape("emptyset-a", xs)
    x1 = Var(xs[0])
    return _close("emptyset-a", Meas(xs, Cmp.LE, Fraction(0), Not(Equality(x1, x1))), {})


def _build_emptyset_b(xs=("x",), **_):
    xs = tuple(xs)
    _check_meas_shape("emptyset-b", xs)
    x1 = Var(xs[0])
    return _close("emptyset-b", _ge(xs, Fraction(0), Not(Equality(x1, x1))), {})


def _build_comparability(strict: bool):
    def build(xs=("x",), phi=None, psi=None, t=0, **_):
        scheme = "comparability-a" if strict else "comparability-b"
        xs, t = tuple(xs), Fraction(t)
        _check_meas_shape(scheme, xs)
        _need(t >= 0, scheme, "threshold must be nonnegative")
        cmp = Cmp.LT if strict else Cmp.LE
        matrix = Implies(_forall(xs, Implies(phi, psi)),
                         Implies(Meas(xs, cmp, t, psi), Meas(xs, cmp, t, phi)))
        return _close(scheme, matrix, {"t": t}, phi, psi)
    return build


def _build_coherence_a(xs=("x",), phi=None, t=0, **_):
    xs, t = tuple(xs), Fraction(t)
    _check_meas_shape("coherence-a", xs)
    matrix = Implies(Meas(xs, Cmp.LT, t, phi), Meas(xs, Cmp.LE, t, phi))
    return _close("coherence-a", matrix, {"t": t}, phi)


def _build_coherence_b(xs=("x",), phi=None, t=0, t2=None, **_):
    xs, t, t2 = tuple(xs), Fraction(t), Fraction(t2)
    _check_meas_shape("coherence-b", xs)
    _need(t < t2, "coherence-b", f"needs t < t', got t={t}, t'={t2}")
    matrix = Implies(Meas(xs, Cmp.LE, t, phi), Meas(xs, Cmp.LT, t2, phi))
    return _close("coherence-b", matrix, {"t": t, "t'": t2}, phi)


def _build_additivity(variant: str):
    def build(xs=("x",), phi=None, psi=None, t=0, t2=0, **_):
        scheme = f"additivity-{variant}"
        xs, t, t2 = tuple(xs), Fraction(t), Fraction(t2)
        _check_meas_shape(scheme, xs)
        both = Or(phi, psi)
        if variant == "a":
            matrix = Implies(And(Meas(xs, Cmp.LE, t, phi), Meas(xs, Cmp.LE, t2, psi)),
                             Meas(xs, Cmp.LE, t + t2, both))
        elif variant == "b":
            matrix = Implies(And(Meas(xs, Cmp.LE, t, phi), Meas(xs, Cmp.LT, t2, psi)),
                             Meas(xs, Cmp.LT, t + t2, both))
        else:
            disjoint = Meas(xs, Cmp.LE, Fraction(0), And(phi, psi))
            if variant == "c":
                matrix = Implies(And(And(_ge(xs, t, phi), _ge(xs, t2, psi)), disjoint),
                                 _ge(xs, t + t2, both))
            else:
                matrix = Implies(And(And(_ge(xs, t, phi), _gt(xs, t2, psi)), disjoint),
                                 _gt(xs, t + t2, both))
        return _close(scheme, matrix, {"t": t, "t'": t2}, phi, psi)
    return build


def _build_product(variant: str):
    def build(xs=("x",), ys=("y",), phi=None, psi=None, t=0, t2=0, **_):
        scheme = f"product-{variant}"
        xs, ys, t, t2 = tuple(xs), tuple(ys), Fraction(t), Fraction(t2)
        _check_meas_shape(scheme, xs, ys, phi, psi, split_product=True)
        if variant in ("b", "d"):
            _need(t > 0, scheme,
                  f"needs t > 0 on exact-measure structures, got t={t}")
        conj = And(phi, psi)
        if variant == "a":
            matrix = Implies(And(Meas(xs, Cmp.LE, t, phi), Meas(ys, Cmp.LE, t2, psi)),
                             Meas(xs + ys, Cmp.LE, t * t2, conj))
        elif variant == "b":
            matrix = Implies(And(Meas(xs, Cmp.LE, t, phi), Meas(ys, Cmp.LT, t2, psi)),
                             Meas(xs + ys, Cmp.LT, t * t2, conj))
        elif variant == "c":
            matrix = Implies(And(_ge(xs, t, phi), _ge(ys, t2, psi)),
                             _ge(xs + ys, t * t2, conj))
        else:
            matrix = Implies(And(_ge(xs, t, phi), _gt(ys, t2, psi)),
                             _gt(xs + ys, t * t2, conj))
        return _close(scheme, matrix, {"t": t, "t'": t2}, phi, psi)
    return build


def _build_perm(strict: bool):
    def build(xs=("x", "y"), phi=None, sigma=None, t=0, **_):
        scheme = "perm-b" if strict else "perm-a"
        xs, t = tuple(xs), Fraction(t)
        _check_meas_shape(scheme, xs)
        _need(sigma is not None and sorted(sigma) == list(range(len(xs))), scheme,
              f"sigma must be a permutation of 0..{len(xs) - 1}")
        permuted = tuple(xs[i] for i in sigma)
        cmp = Cmp.LT if strict else Cmp.LE
        matrix = Implies(Meas(xs, cmp, t, phi), Meas(permuted, cmp, t, phi))
        return _close(scheme, matrix, {"t": t}, phi)
    return build


def _build_fubini(variant: str):
    """f-a/f-b (threshold-gap forms) and f+-a..f (boundary forms).

    Shape: (forall xs (psi -> m[ys] <inner> r . phi) & m[xs] <outer> q . psi)
           -> m[xs,ys] <result> bound . (phi & psi).
    """
    inner_cmp, outer_cmp, result_cmp = {
        "f-a": ("ge", "ge", "gt"), "f-b": ("le", "le", "lt"),
        "f+-a": ("ge", "ge", "ge"), "f+-b": ("gt", "ge", "gt"),
        "f+-c": ("ge", "gt", "gt"), "f+-d": ("le", "le", "le"),
        "f+-e": ("lt", "le", "lt"), "f+-f": ("le", "lt", "lt"),
    }[variant]

    def meas_with(cmp_name: str, vars, bound, body):
        return {"lt": lambda: Meas(tuple(vars), Cmp.LT, bound, body),
                "le": lambda: Meas(tuple(vars), Cmp.LE, bound, body),
                "ge": lambda: _ge(tuple(vars), bound, body),
                "gt": lambda: _gt(tuple(vars), bound, body)}[cmp_name]()

    def build(xs=("x",), ys=("y",), phi=None, psi=None, q=0, r=0, t=None, **_):
        xs, ys, q, r = tuple(xs), tuple(ys), Fraction(q), Fraction(r)
        _check_meas_shape(variant, xs, ys, phi, psi, psi_avoids_ys=True)
        params = {"q": q, "r": r}
        if variant == "f-a":
            _need(t is not None, variant, "needs an explicit threshold t")
            t = Fraction(t)
            _need(t < q * r, variant, f"needs t < qr, got t={t}, qr={q * r}")
            bound, params["t"] = t, t
        elif variant == "f-b":
            _need(t is not None, variant, "needs an explicit threshold t")
            t = Fraction(t)
            _need(q * r < t, variant, f"needs qr < t, got t={t}, qr={q * r}")
            bound, params["t"] = t, t
        else:
            if variant == "f+-b":
                _need(q > 0, variant, f"needs q > 0 on exact-measure structures, got q={q}")
            elif variant == "f+-c":
                _need(r > 0, variant, f"needs r > 0 on exact-measure structures, got r={r}")
            elif variant == "f+-e":
                _need(q > 0 and r > 0, variant,
                      f"needs q > 0 and r > 0 on exact-measure structures, got q={q}, r={r}")
            elif variant == "f+-f":
                _need(r > 0, variant, f"needs r > 0 on exact-measure structures, got r={r}")
            bound = q * r
        fiber = meas_with(inner_cmp, ys, r, phi)
        antecedent = And(_forall(xs, Implies(psi, fiber)),
                         meas_with(outer_cmp, xs, q, psi))
        consequent = meas_with(result_cmp, xs + ys, bound, And(phi, psi))
        return _close(variant, Implies(antecedent, consequent), params, phi, psi)
    return build


_BUILDERS = {
    "emptyset-a": _build_emptyset_a,
    "emptyset-b": _build_emptyset_b,
    "comparability-a": _build_comparability(True),
    "comparability-b": _build_comparability(False),
    "coherence-a": _build_coherence_a,
    "coherence-b": _build_coherence_b,
    "additivity-a": _build_additivity("a"),
    "additivity-b": _build_additivity("b"),
    "additivity-c": _build_additivity("c"),
    "additivity-d": _build_additivity("d"),
    "product-a": _build_product("a"),
    "product-b": _build_product("b"),
    "product-c": _build_product("c"),
    "product-d": _build_product("d"),
    "perm-a": _build_perm(False),
    "perm-b": _build_perm(True),
    "f-a": _build_fubini("f-a"),
    "f-b": _build_fubini("f-b"),
    "f+-a": _build_fubini("f+-a"),
    "f+-b": _build_fubini("f+-b"),
    "f+-c": _build_fubini("f+-c"),
    "f+-d": _build_fubini("f+-d"),
    "f+-e": _build_fubini("f+-e"),
    "f+-f": _build_fubini("f+-f"),
}

GROUPS: dict[str, tuple[str, ...]] = {
    "AML": ("emptyset-a", "emptyset-b", "comparability-a", "comparability-b",
            "coherence-a", "coherence-b", "additivity-a", "additivity-b",
            "additivity-c", "additivity-d", "product-a", "product-b",
            "product-c", "product-d"),
    "I": ("perm-a", "perm-b"),
    "F": ("f-a", "f-b"),
    "F+": ("f+-a", "f+-b", "f+-c", "f+-d", "f+-e", "f+-f"),
}

ALL_SCHEMES = tuple(s for group in GROUPS.values() for s in group)


def instantiate(scheme: str, **kwargs) -> SchemeInstance:
    """Build a closed instance of the named scheme.

    Raises SideConditionError when a rational or variable side condition is
    violated, KeyError-like ValueError for unknown scheme names.
    """
    builder = _BUILDERS.get(scheme)
    if builder is None:
        raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(sorted(_BUILDERS))}")
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# Soundness checking


@dataclass(frozen=True)
class SoundnessResult:
    instance: SchemeInstance
    holds: bool
    witness: dict[str, int] | None  # a falsifying parameter valuation, if any


@dataclass(frozen=True)
class SoundnessReport:
    results: tuple[SoundnessResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    @property
    def failures(self) -> tuple[SoundnessResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            verdict = "holds" if r.holds else f"FAILS at {r.witness}"
            out.append(f"{r.instance.scheme:16s} {verdict}  "
                       f"({', '.join(f'{k}={v}' for k, v in sorted(r.instance.params.items()))})")
        return out


def check_instance(m: FiniteStructure, inst: SchemeInstance,
                   budget: Budget | None = None) -> SoundnessResult:
    """Evaluate one instance; on failure, search the parameter valuations for
    a concrete witness."""
    import itertools

    ev = Evaluator(m, budget)
    val: dict[str, int] = {}
    for assignment in itertools.product(range(m.n), repeat=len(inst.param_vars)):
        for v, a in zip(inst.param_vars, assignment):
            val[v] = a
        if not ev.eval(inst.matrix, val):
            return SoundnessResult(inst, False, dict(val))
    return SoundnessResult(inst, True, None)


def check_soundness(m: FiniteStructure, instances,
                    budget: Budget | None = None) -> SoundnessReport:
    return SoundnessReport(tuple(check_instance(m, inst, budget) for inst in instances))


# ---------------------------------------------------------------------------
# Seeded random generation of structures, formulae, and instances


def random_structure(rng: random.Random, n_max: int = 6) -> FiniteStructure:
    """A random structure over the fixed test signature: constant e, unary
    function f, unary relation P, binary relation R; counting measure 70% of
    the time, otherwise random small nonnegative weights."""
    n = rng.randint(2, n_max)
    f_table = tuple(rng.randrange(n) for _ in range(n))
    p = frozenset((a,) for a in range(n) if rng.random() < 0.5)
    pairs = frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < 0.4)
    weights: tuple[Fraction, ...] = ()
    if rng.random() < 0.3:
        weights = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(n))
        if all(w == 0 for w in weights):
            weights = tuple(Fraction(1, n) for _ in range(n))
    return FiniteStructure(n, {"e": rng.randrange(n)}, {"f": (1, f_table)},
                           {"P": (1, p), "R": (2, pairs)}, weights)


TEST_SIGNATURE = Signature(constants=("e",), functions=(("f", 1),),
                           relations=(("P", 1), ("R", 2)))


def random_formula(rng: random.Random, vars_allowed: tuple[str, ...], depth: int = 2,
                   rank_budget: int = 1, sig: Signature = TEST_SIGNATURE) -> Formula:
    """A random formula over the given signature with free variables among
    ``vars_allowed``, connective depth <= depth, measure-nesting <= rank_budget."""
    if not vars_allowed and not sig.constants:
        raise ValueError("need a variable or a constant to build terms")

    def gen(vars_now: tuple[str, ...], d: int, rk: int) -> Formula:
        def t(fuel: int = 1):
            v = rng.random()
            if vars_now and (v < 0.6 or (not sig.constants and (not sig.functions
                                                                or fuel == 0))):
                return Var(rng.choice(vars_now))
            if sig.constants and (v < 0.8 or not sig.functions or fuel == 0):
                return Const(rng.choice(sig.constants))
            if sig.functions and fuel > 0:
                name, arity = rng.choice(sig.functions)
                return Func(name, tuple(t(fuel - 1) for _ in range(arity)))
            return Var(rng.choice(vars_now)) if vars_now else Const(sig.constants[0])

        choices = ["atom"]
        if d > 0:
            choices += ["not", "and", "or", "implies"]
        if rk > 0 and d > 0:
            choices += ["meas", "meas"]
        pick = rng.choice(choices)
        if pick == "atom":
            options: list = [("eq",)] + [("rel", nm, ar) for nm, ar in sig.relations]
            chosen = rng.choice(options)
            if chosen[0] == "rel":
                return Atom(chosen[1], tuple(t() for _ in range(chosen[2])))
            return Equality(t(), t())
        if pick == "not":
            return Not(gen(vars_now, d - 1, rk))
        if pick in ("and", "or", "implies"):
            left = gen(vars_now, d - 1, rk)
            right = gen(vars_now, d - 1, rk)
            return {"and": And, "or": Or, "implies": Implies}[pick](left, right)
        fresh = f"w{rng.randint(0, 999)}"
        while fresh in vars_now:
            fresh = f"w{rng.randint(0, 999)}"
        body = gen(vars_now + (fresh,), d - 1, rk - 1)
        cmp = rng.choice((Cmp.LT, Cmp.LE))
        thr = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        return Meas((fresh,), cmp, thr, body)

    return gen(tuple(vars_allowed), depth, rank_budget)


def _rand_rational(rng: random.Random, denom_max: int = 12, positive: bool = False) -> Fraction:
    den = rng.randint(1, denom_max)
    lo = 1 if positive else 0
    return Fraction(rng.randint(lo, 2 * den), den)


def generate_instances(rng_or_seed, count: int, schemes=ALL_SCHEMES,
                       denom_max: int = 12,
                       sig: Signature = TEST_SIGNATURE) -> list[SchemeInstance]:
    """Seeded stream of valid scheme instances over the given signature.

    Formulae have depth <= 3 and measure-nesting rank <= 2 (counting the
    scheme's own constructor); rationals are drawn with denominators <=
    denom_max, steered onto each scheme's side conditions, and include
    boundary values (zero thresholds where legal, t = qr +- 1/denom_max)."""
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    schemes = tuple(schemes)
    out: list[SchemeInstance] = []
    while len(out) < count:
        scheme = schemes[len(out) % len(schemes)] if rng.random() < 0.5 else rng.choice(schemes)
        xs = ("x",) if rng.random() < 0.7 else ("x", "x2")
        ys = ("y",) if rng.random() < 0.8 else ("y", "y2")
        zs = ("z",) if rng.random() < 0.5 else ()
        t = _rand_rational(rng, denom_max)
        t2 = _rand_rational(rng, denom_max)
        q = _rand_rational(rng, denom_max)
        r = _rand_rational(rng, denom_max)
        try:
            if scheme.startswith("emptyset"):
                inst = instantiate(scheme, xs=xs)
            elif scheme.startswith("comparability") or scheme == "coherence-a":
                phi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                psi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                inst = instantiate(scheme, xs=xs, phi=phi, psi=psi, t=t)
            elif scheme == "coherence-b":
                phi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                inst = instantiate(scheme, xs=xs, phi=phi, t=t,
                                   t2=t + Fraction(rng.randint(1, denom_max), denom_max))
            elif scheme.startswith("additivity"):
                phi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                psi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                inst = instantiate(scheme, xs=xs, phi=phi, psi=psi, t=t, t2=t2)
            elif scheme.startswith("product"):
                phi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                psi = random_formula(rng, ys + zs, depth=2, rank_budget=1, sig=sig)
                if scheme in ("product-b", "product-d") and t == 0:
                    t = _rand_rational(rng, denom_max, positive=True)
                inst = instantiate(scheme, xs=xs, ys=ys, phi=phi, psi=psi, t=t, t2=t2)
            elif scheme.startswith("perm"):
                xs2 = ("x", "x2") if len(xs) == 1 else xs
                sigma = list(range(len(xs2)))
                rng.shuffle(sigma)
                phi = random_formula(rng, xs2 + zs, depth=2, rank_budget=1, sig=sig)
                inst = instantiate(scheme, xs=xs2, phi=phi, sigma=tuple(sigma), t=t)
            else:  # f / f+ family
                phi = random_formula(rng, xs + ys + zs, depth=2, rank_budget=1, sig=sig)
                psi = random_formula(rng, xs + zs, depth=2, rank_budget=1, sig=sig)
                if scheme == "f+-b" and q == 0:
                    q = _rand_rational(rng, denom_max, positive=True)
                if scheme in ("f+-c", "f+-f") and r == 0:
                    r = _rand_rational(rng, denom_max, positive=True)
                if scheme == "f+-e":
                    if q == 0:
                        q = _rand_rational(rng, denom_max, positive=True)
                    if r == 0:
                        r = _rand_rational(rng, denom_max, positive=True)
                kw = dict(xs=xs, ys=ys, phi=phi, psi=psi, q=q, r=r)
                if scheme == "f-a":
                    if q == 0:
                        q = kw["q"] = _rand_rational(rng, denom_max, positive=True)
                    if r == 0:
                        r = kw["r"] = _rand_rational(rng, denom_max, positive=True)
                    delta = Fraction(1, denom_max)
                    kw["t"] = max(Fraction(0), q * r - delta)
                    if not kw["t"] < q * r:
                        continue
                elif scheme == "f-b":
                    kw["t"] = q * r + Fraction(1, denom_max)
                inst = instantiate(scheme, **kw)
        except SideConditionError:
            continue
        out.append(inst)
    return out
