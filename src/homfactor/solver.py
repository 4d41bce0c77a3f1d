"""Backtracking search with forward checking for homomorphism factorization.

One constraint engine drives every variant. Variables are elements of the
source carrier(s), values are elements of the target carrier(s), and each
operation table contributes functional constraints: once the arguments of a
tuple are assigned, the image of the result collapses to a single value.
Unary operations therefore propagate in chains, which the encodings rely on
heavily. Exceeding a configured node limit raises NodeLimitReached: an
explicit "unknown" outcome, distinct from an exhaustive "no".

What each instance kind means lives here and nowhere else: decide dispatches
on the kind, full factors and retractions share one combined search over g-
and h-variables, and every witness an entry point returns has passed
verify_witness, the single per-kind check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    SignatureMismatch,
    SizeMismatch,
    compose,
    is_homomorphism,
)

__all__ = [
    "NodeLimitReached",
    "InstanceError",
    "SearchConfig",
    "SearchStats",
    "FactorizationInstance",
    "find_homomorphism",
    "enumerate_homomorphisms",
    "find_right_factor",
    "find_left_factor",
    "find_factorization",
    "decide_retraction",
    "decide_isomorphism",
    "decide",
    "verify_witness",
]

KINDS = ("hom", "right-factor", "left-factor", "full-factor", "retraction", "isomorphism")


class NodeLimitReached(Exception):
    """The search hit its node budget before reaching a decision."""


class InstanceError(AlgebraError):
    """A FactorizationInstance fails its invariants."""


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")


DEFAULT_CONFIG = SearchConfig()


@dataclass
class SearchStats:
    nodes: int = 0


@dataclass(frozen=True)
class FactorizationInstance:
    """One decision problem: which of f = h∘g is unknown depends on kind."""

    kind: str
    X: FiniteAlgebra
    Y: FiniteAlgebra
    Z: FiniteAlgebra | None = None
    f: Mapping | None = None
    g: Mapping | None = None
    h: Mapping | None = None

    def problems(self) -> list[str]:
        out = []
        if self.kind not in KINDS:
            out.append(f"unknown kind {self.kind!r}")
            return out
        algebras = [("X", self.X), ("Y", self.Y)]
        if self.Z is not None:
            algebras.append(("Z", self.Z))
        sig = self.X.signature
        for name, alg in algebras:
            if alg.signature != sig:
                out.append(f"{name} does not share the common signature")
        need, optional = {
            "hom": ((), ()),
            "right-factor": (("f", "h"), ()),
            "left-factor": (("f", "g"), ()),
            "full-factor": (("f",), ()),
            "retraction": ((), ("f",)),  # implied Z = X, f = identity
            "isomorphism": ((), ()),
        }[self.kind]
        if self.kind != "hom" and "f" in need and self.Z is None:
            out.append("Z is required for this kind")
        for field in ("f", "g", "h"):
            present = getattr(self, field) is not None
            if field in need and not present:
                out.append(f"missing map {field}")
            if field not in need and field not in optional and present:
                out.append(f"unexpected map {field} for kind {self.kind}")
        if out:
            return out
        try:
            z = self.Z if self.Z is not None else self.X
            if self.f is not None and not is_homomorphism(self.f, self.X, z):
                out.append("f is not a homomorphism X -> Z")
            if self.g is not None and not is_homomorphism(self.g, self.X, self.Y):
                out.append("g is not a homomorphism X -> Y")
            if self.h is not None and not is_homomorphism(self.h, self.Y, self.Z):
                out.append("h is not a homomorphism Y -> Z")
        except (SignatureMismatch, SizeMismatch) as exc:
            out.append(str(exc))
        if self.kind == "retraction":
            if self.Z is not None and self.Z != self.X:
                out.append("retraction kind requires Z = X")
            if self.f is not None and self.f != Mapping.identity(self.X.size):
                out.append("retraction kind requires f = identity")
        return out

    def validate(self):
        problems = self.problems()
        if problems:
            raise InstanceError("; ".join(problems))


class _Problem:
    """Immutable constraint data shared by every engine run on one instance."""

    __slots__ = ("n_vars", "constraints", "by_var")

    def __init__(self, n_vars):
        self.n_vars = n_vars
        self.constraints = []  # (inputs, out, flat_table, strides)
        self.by_var = [[] for _ in range(n_vars)]

    def add_table_constraint(self, inputs, out, flat_table, base):
        k = len(inputs)
        strides = tuple(base ** (k - 1 - i) for i in range(k))
        ci = len(self.constraints)
        self.constraints.append((tuple(inputs), int(out), flat_table, strides))
        for v in set(inputs) | {out}:
            self.by_var[v].append(ci)

    def add_hom_constraints(self, a: FiniteAlgebra, b: FiniteAlgebra, offset=0):
        """For every tuple x̄: value(op_A(x̄)) == op_B(values of x̄)."""
        base = b.size
        for name, arity in a.signature.ops:
            ta = a.table(name)
            tb = b.table(name).tolist()
            for idx, tup in enumerate(itertools.product(range(a.size), repeat=arity)):
                self.add_table_constraint(
                    [offset + t for t in tup], offset + int(ta[idx]), tb, base
                )


class _Engine:
    """One backtracking run over a _Problem with its own domains and trail."""

    def __init__(self, problem, domains, *, order="mrv", node_limit=None,
                 all_different=False, hooks=(), stats=None):
        self.p = problem
        self.dom = [set(d) for d in domains]
        self.order = order
        self.node_limit = node_limit
        self.all_diff = all_different
        self.hooks = tuple(hooks)
        self.stats = stats
        self.trail = []
        self.done = [False] * problem.n_vars
        self.queue = []
        self.nodes = 0

    def value(self, v):
        return next(iter(self.dom[v]))

    def force(self, var, val) -> bool:
        d = self.dom[var]
        if val not in d:
            return False
        if len(d) > 1:
            removed = d.difference({val})
            self.trail.append((var, removed))
            d.intersection_update({val})
            self.queue.append(var)
        elif not self.done[var]:
            self.queue.append(var)
        return True

    def remove(self, var, val) -> bool:
        d = self.dom[var]
        if val in d:
            if len(d) == 1:
                return False
            d.discard(val)
            self.trail.append((var, {val}))
            if len(d) == 1:
                self.queue.append(var)
        return True

    def _undo(self, mark):
        while len(self.trail) > mark:
            item = self.trail.pop()
            if item[0] == "done":
                self.done[item[1]] = False
            else:
                var, removed = item
                self.dom[var] |= removed

    def _check_constraint(self, ci) -> bool:
        ins, out, table, strides = self.p.constraints[ci]
        idx_fixed = 0
        free_var = -1
        free_stride = 0
        for pos, w in enumerate(ins):
            dw = self.dom[w]
            if len(dw) == 1:
                idx_fixed += next(iter(dw)) * strides[pos]
            elif w == free_var:
                free_stride += strides[pos]
            elif free_var == -1:
                free_var = w
                free_stride = strides[pos]
            else:
                return True  # two distinct free inputs: checked later
        if free_var == -1:
            return self.force(out, table[idx_fixed])
        dfree = self.dom[free_var]
        if free_var == out:
            allowed = {y for y in dfree if table[idx_fixed + y * free_stride] == y}
            return self._restrict(free_var, allowed)
        dout = self.dom[out]
        allowed_y = set()
        allowed_out = set()
        for y in dfree:
            v = table[idx_fixed + y * free_stride]
            if v in dout:
                allowed_y.add(y)
                allowed_out.add(v)
        if not self._restrict(free_var, allowed_y):
            return False
        return self._restrict(out, allowed_out)

    def _restrict(self, var, allowed) -> bool:
        d = self.dom[var]
        if not allowed:
            return False
        if len(allowed) < len(d):
            removed = d.difference(allowed)
            self.trail.append((var, removed))
            d.intersection_update(allowed)
            if len(d) == 1:
                self.queue.append(var)
        return True

    def propagate(self) -> bool:
        while self.queue:
            v = self.queue.pop()
            if self.done[v] or len(self.dom[v]) != 1:
                continue
            self.done[v] = True
            self.trail.append(("done", v))
            a = next(iter(self.dom[v]))
            if self.all_diff:
                for w in range(self.p.n_vars):
                    if w != v and not self.remove(w, a):
                        return False
            for hook in self.hooks:
                if not hook(self, v, a):
                    return False
            for ci in self.p.by_var[v]:
                if not self._check_constraint(ci):
                    return False
        return True

    def _pick(self):
        best = None
        for v in range(self.p.n_vars):
            if self.done[v]:
                continue
            if self.order == "lexicographic":
                return v
            size = len(self.dom[v])
            if best is None or size < best[0]:
                best = (size, v)
        return None if best is None else best[1]

    def solutions(self):
        """Yield complete assignments; with lexicographic order they arrive
        in lexicographic order of the value vector."""
        for d in self.dom:
            if not d:
                return
        self.queue = [v for v in range(self.p.n_vars) if len(self.dom[v]) == 1]
        if not self.propagate():
            return
        yield from self._solve()

    def _solve(self):
        var = self._pick()
        if var is None:
            yield tuple(next(iter(self.dom[v])) for v in range(self.p.n_vars))
            return
        for val in sorted(self.dom[var]):
            self.nodes += 1
            if self.stats is not None:
                self.stats.nodes += 1
            if self.node_limit is not None and self.nodes > self.node_limit:
                raise NodeLimitReached(f"node limit {self.node_limit} exceeded")
            mark = len(self.trail)
            self.queue = []
            if self.force(var, val) and self.propagate():
                yield from self._solve()
            self._undo(mark)


def _all_unary(sig) -> bool:
    return bool(sig.ops) and all(a == 1 for _, a in sig.ops)


def _unary_consistent_domains(a: FiniteAlgebra, b: FiniteAlgebra):
    """Arc-consistent initial domains for all-unary signatures.

    Iterates D[x,y] &= D[opA(x), opB(y)] to a fixpoint; a sound restriction
    that collapses the encodings' element classes before any branching.
    Returns None when some row empties (no homomorphism).
    """
    d = np.ones((a.size, b.size), dtype=bool)
    ops = [(a.table(n), b.table(n)) for n, _ in a.signature.ops]
    while True:
        prev = d
        for ta, tb in ops:
            d = d & d[ta][:, tb]
        if np.array_equal(d, prev):
            break
    if not d.any(axis=1).all():
        return None
    return [set(np.nonzero(row)[0].tolist()) for row in d]


def _initial_domains(a, b, domains):
    if domains is not None:
        doms = [set(d) for d in domains]
    else:
        doms = [set(range(b.size)) for _ in range(a.size)]
    if _all_unary(a.signature):
        ac = _unary_consistent_domains(a, b)
        if ac is None:
            return None
        doms = [d & acd for d, acd in zip(doms, ac)]
    return doms


def _hom_engine(a, b, cfg, domains, stats, *, order="mrv", all_different=False):
    doms = _initial_domains(a, b, domains)
    if doms is None:
        return None
    problem = _Problem(a.size)
    problem.add_hom_constraints(a, b)
    return _Engine(
        problem,
        doms,
        order=order,
        node_limit=(cfg or DEFAULT_CONFIG).node_limit,
        all_different=all_different,
        stats=stats,
    )


def _search_hom(a, b, cfg, stats, *, domains=None, all_different=False):
    """First homomorphism a -> b the search finds, not yet re-verified."""
    eng = _hom_engine(a, b, cfg, domains, stats, all_different=all_different)
    sol = None if eng is None else next(eng.solutions(), None)
    return None if sol is None else Mapping(a.size, b.size, sol)


def verify_witness(inst: FactorizationInstance, g=None, h=None) -> bool:
    """True iff g and/or h witness a "yes" for inst; the map the kind does
    not solve for is ignored. The instance itself is assumed valid."""
    x, y, kind = inst.X, inst.Y, inst.kind
    if kind in ("hom", "right-factor", "isomorphism"):
        if g is None or not is_homomorphism(g, x, y):
            return False
        if kind == "right-factor":
            return compose(inst.h, g) == inst.f
        if kind == "isomorphism":
            if len(set(g.values)) != y.size or x.size != y.size:
                return False
            inverse = [0] * y.size
            for i, v in enumerate(g.values):
                inverse[v] = i
            return is_homomorphism(Mapping(y.size, x.size, inverse), y, x)
        return True
    if kind == "left-factor":
        return h is not None and is_homomorphism(h, y, inst.Z) and compose(h, inst.g) == inst.f
    if kind in ("full-factor", "retraction"):
        z, f = (inst.Z, inst.f) if kind == "full-factor" else (x, Mapping.identity(x.size))
        return (
            g is not None
            and h is not None
            and is_homomorphism(g, x, y)
            and is_homomorphism(h, y, z)
            and compose(h, g) == f
        )
    raise InstanceError(f"unknown kind {kind!r}")


def _verified(inst, g, h):
    """(g, h) once verify_witness accepts it; None when the search found none."""
    if g is None and h is None:
        return None
    if not verify_witness(inst, g, h):
        raise AssertionError(f"search produced a witness that fails the {inst.kind} check")
    return g, h


def _solve_hom(inst, cfg, stats, domains=None):
    return _verified(inst, _search_hom(inst.X, inst.Y, cfg, stats, domains=domains), None)


def _solve_right_factor(inst, cfg, stats):
    fibers = {}
    for z in set(inst.f.values):
        fibers[z] = {y for y in range(inst.Y.size) if inst.h.values[y] == z}
    domains = [fibers[inst.f.values[x]] for x in range(inst.X.size)]
    return _solve_hom(inst, cfg, stats, domains)


def _solve_left_factor(inst, cfg, stats):
    seeds = {}
    for x in range(inst.X.size):
        y, z = inst.g.values[x], inst.f.values[x]
        if seeds.setdefault(y, z) != z:
            return None
    domains = [
        {seeds[y]} if y in seeds else set(range(inst.Z.size))
        for y in range(inst.Y.size)
    ]
    return _verified(inst, None, _search_hom(inst.Y, inst.Z, cfg, stats, domains=domains))


def _channel_hook(n_x, f_values):
    """Channeling between g-variables [0, n_x) and h-variables [n_x, ...):
    h(g(x)) = f(x)."""

    def hook(eng, var, val):
        if var < n_x:
            return eng.force(n_x + val, f_values[var])
        y, z = var - n_x, val
        for x in range(n_x):
            if f_values[x] != z and not eng.remove(x, y):
                return False
        return True

    return hook


def _solve_factor_pair(inst, cfg, stats):
    """One combined search over g- and h-variables with the channeling
    constraint; a retraction is the full factor of the identity with Z = X."""
    x, y = inst.X, inst.Y
    z = inst.Z if inst.Z is not None else x
    f_values = inst.f.values if inst.f is not None else tuple(range(x.size))
    g_dom = _initial_domains(x, y, None)
    h_dom = None if g_dom is None else _initial_domains(y, z, None)
    if h_dom is None:
        return None
    problem = _Problem(x.size + y.size)
    problem.add_hom_constraints(x, y)
    problem.add_hom_constraints(y, z, offset=x.size)
    eng = _Engine(
        problem,
        g_dom + h_dom,
        node_limit=(cfg or DEFAULT_CONFIG).node_limit,
        hooks=(_channel_hook(x.size, f_values),),
        stats=stats,
    )
    sol = next(eng.solutions(), None)
    if sol is None:
        return None
    return _verified(
        inst, Mapping(x.size, y.size, sol[: x.size]), Mapping(y.size, z.size, sol[x.size:])
    )


def _solve_isomorphism(inst, cfg, stats):
    if inst.X.size != inst.Y.size:
        return None
    g = _search_hom(inst.X, inst.Y, cfg, stats, all_different=True)
    return _verified(inst, g, None)


_SOLVERS = {
    "hom": _solve_hom,
    "right-factor": _solve_right_factor,
    "left-factor": _solve_left_factor,
    "full-factor": _solve_factor_pair,
    "retraction": _solve_factor_pair,
    "isomorphism": _solve_isomorphism,
}


def decide(inst: FactorizationInstance, cfg=None, *, stats=None):
    """Decide any instance kind: (g, h) with the map the kind does not solve
    for set to None, or None for an exhaustive "no".

    The instance is validated once. Hitting a configured node limit raises
    NodeLimitReached instead of answering.
    """
    inst.validate()
    return _SOLVERS[inst.kind](inst, cfg, stats)


def _expect(inst, *kinds):
    if inst.kind not in kinds:
        raise InstanceError(f"expected a {kinds[0]} instance, got {inst.kind}")
    return inst


def _algebra_pair(kind, a, b):
    if a.signature != b.signature:
        raise SignatureMismatch("algebras do not share a signature")
    return FactorizationInstance(kind, a, b)


def find_homomorphism(a, b, cfg=None, *, domains=None, stats=None):
    """First homomorphism a -> b within the per-element domains, or None.

    None means exhaustive refutation; hitting a configured node limit raises
    NodeLimitReached instead of answering.
    """
    pair = _solve_hom(_algebra_pair("hom", a, b), cfg, stats, domains)
    return None if pair is None else pair[0]


def enumerate_homomorphisms(a, b, limit, *, cfg=None, stats=None):
    """Distinct homomorphisms in lexicographic order, up to limit."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    inst = _algebra_pair("hom", a, b)
    eng = _hom_engine(a, b, cfg, None, stats, order="lexicographic")
    if eng is None:
        return []
    return [
        _verified(inst, Mapping(a.size, b.size, sol), None)[0]
        for sol in itertools.islice(eng.solutions(), limit)
    ]


def find_right_factor(inst: FactorizationInstance, cfg=None, *, stats=None):
    """Homomorphism g: X -> Y with h∘g = f, or None.

    Each variable's initial domain is the h-fiber over f(x), so the
    composition identity holds by construction on any witness.
    """
    pair = decide(_expect(inst, "right-factor"), cfg, stats=stats)
    return None if pair is None else pair[0]


def find_left_factor(inst: FactorizationInstance, cfg=None, *, stats=None):
    """Homomorphism h: Y -> Z with h∘g = f, or None.

    The partial assignment h(g(x)) := f(x) is seeded first and the instance
    is rejected immediately when g identifies points that f separates.
    """
    pair = decide(_expect(inst, "left-factor"), cfg, stats=stats)
    return None if pair is None else pair[1]


def find_factorization(inst: FactorizationInstance, cfg=None, *, stats=None):
    """Pair (g, h) with f = h∘g, or None.

    One combined search over g- and h-variables with the channeling
    constraint h(g(x)) = f(x). A retraction instance is accepted too.
    """
    return decide(_expect(inst, "full-factor", "retraction"), cfg, stats=stats)


def decide_retraction(x: FiniteAlgebra, y: FiniteAlgebra, cfg=None, *, stats=None):
    """Pair (g: X->Y, h: Y->X) with h∘g = id_X, or None."""
    return _solve_factor_pair(_algebra_pair("retraction", x, y), cfg, stats)


def decide_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra, cfg=None, *, stats=None):
    """Bijective homomorphism with homomorphic inverse, or None."""
    pair = _solve_isomorphism(_algebra_pair("isomorphism", a, b), cfg, stats)
    return None if pair is None else pair[0]
