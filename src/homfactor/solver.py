"""Root arc consistency plus backtracking with forward checking for
homomorphism factorization.

One constraint engine drives every variant. Variables are elements of the
source carrier(s), values are elements of the target carrier(s), and each
operation table contributes functional constraints: once the arguments of a
tuple are assigned, the image of the result collapses to a single value.
Unary operations therefore propagate in chains, which the encodings rely on
heavily. The root pass and the whole search are C, in one extension module
(_native.c, built on first import). Before any branching, its root, behind
_consistent_domains, prunes the domains to arc consistency in both
directions (input support and output image): over unary operations for
single-map searches, and unary and binary ones, joined by the channel
h(g(x)) = f(x), for the combined g/h search. Over the same operations and
the constants it first applies the diagonal rule: an x with op(x, …, x) = x
can only go to a y with op(y, …, y) = y. The combined search first applies
the cardinality bound: im f = h(im g) has at most |Y| elements, so |im f| >
|Y| (for a retraction, |X| > |Y|) is an exhaustive "no" before any root
pass or search. The one search budget is SearchStats: every search counts
its nodes in the SearchStats it is given, and once they pass its node_limit
it raises NodeLimitReached, an explicit "unknown" outcome, distinct from an
exhaustive "no". Searches that share one SearchStats share its limit.

Every search is built one way: the root pass prunes the domains, rows of
uint64 words over the target carrier, then _Engine hands the Engine in
_native.c the tables of its (source, target) pairs, laid side by side, and
the words, which it copies once into buffers of its own: the one domain
representation, from the root pass to the leaf. The Engine compiles each
pair itself, in C, into buffers it frees with itself: from the source's
tables, each variable's incidences (variable, tuple) with the tuple's other
variables, by a counting sort; from the target's, its table and uint64 word
rows of the pre-images and fixed points of its rows and columns, so that a
binary table with one argument fixed becomes a row lookup. Constants get no
incidences, since the root pass settles them, and the compiled form's
memory is proportional to the table. The search branches on the pairs in
order, MRV within each, so the combined search assigns every g-variable
before any h-variable. Searches differ only by a side condition, one more
entry per variable, run first: injectivity for isomorphisms, the channel
h(g(x)) = f(x) for the combined g/h search, idempotence for f-cores, each a
few int32 arrays. Propagation runs every entry inline, with a stack of
newly fixed variables, which a variable enters once, when it becomes fixed;
it reads and narrows each domain in place, as many uint64 words as its
target needs. The search itself holds an explicit stack of branching
frames, not recursion, so its depth is bounded only by the number of
variables, and it resumes after each solution, for solutions() and
enumerate_homomorphisms.

What each instance kind means lives in one table, _KINDS: decide dispatches
on it, full factors and retractions share one combined search over g-
and h-variables, and every witness an entry point returns has passed
verify_witness, the single per-kind check, exactly once (through _verified).
Every entry point validates its input once, first, so a malformed table or
map raises AlgebraError: decide and the find_* functions through
FactorizationInstance.validate, the entry points that take two algebras
through _malformed, which also bounds the carriers. The _solve_* functions
behind them assume a valid instance, so a caller that builds an instance
from checked parts may call them directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _native
from .algebra import (
    _MAX_TABLE_ENTRIES,
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    SignatureMismatch,
    SizeMismatch,
    compose,
    is_homomorphism,
    validate_algebra,
)

__all__ = [
    "NodeLimitReached",
    "InstanceError",
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

class NodeLimitReached(Exception):
    """The search hit its node budget before reaching a decision."""


class InstanceError(AlgebraError):
    """A FactorizationInstance fails its invariants."""


@dataclass
class SearchStats:
    """The search budget and counters of one or more decisions.

    Every search given this object counts its nodes here and raises
    NodeLimitReached once nodes passes node_limit (None: no limit). The
    limit counts every node in the object, not only those since the call
    began, so decisions that share one SearchStats share its limit; a fresh
    object gives one decision the whole limit.
    """

    nodes: int = 0
    root_pruned: int = 0  # (element, value) pairs removed before branching
    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")


_MAX_CARRIER = 4096  # elements per algebra: every domain matrix stays within 2**24 entries


def _malformed(named):
    """One line per (name, algebra) pair whose carrier has more than
    _MAX_CARRIER elements, whose tables have more than _MAX_TABLE_ENTRIES
    entries in all, or whose tables validate_algebra rejects."""
    out = []
    for name, alg in named:
        entries = sum(t.size for t in alg.tables.values())
        if alg.size > _MAX_CARRIER:
            out.append(f"{name} has {alg.size} elements, more than the limit of {_MAX_CARRIER}")
        elif entries > _MAX_TABLE_ENTRIES:
            out.append(f"{name} has {entries} table entries, "
                       f"more than the limit of {_MAX_TABLE_ENTRIES}")
        elif problems := validate_algebra(alg):
            out.append(f"{name} is malformed: " + "; ".join(problems))
    return out


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
        if self.kind not in _KINDS:
            return [f"unknown kind {self.kind!r}"]
        algebras = [("X", self.X), ("Y", self.Y)]
        if self.Z is not None:
            algebras.append(("Z", self.Z))
        out = _malformed(algebras)
        if out:
            return out
        sig = self.X.signature
        for name, alg in algebras:
            if alg.signature != sig:
                out.append(f"{name} does not share the common signature")
        need, optional, _ = _KINDS[self.kind]
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


# Side conditions: one entry for each of the first len(side) variables, run
# first when the variable is fixed. side[v] = (first, c, keep): v = a narrows
# every other variable of group first + a, members[span[first + a][0]:
# span[first + a][1]], to the value c (keep 1), or drops c from it (keep 0);
# c = -1 stands for a itself.
def _side(n_vars, n_rows):
    """Zeroed (side, span) arrays for n_vars variables and n_rows groups."""
    return np.zeros((n_vars, 3), dtype=np.int32), np.zeros((n_rows, 2), dtype=np.int32)


def _channel(n_x, n_y, n_z, f_values):
    """h(g(x)) = f(x) between g-variables [0, n_x) and h-variables [n_x,
    n_x + n_y): g(x) = y narrows h(y) to f(x), and h(y) = z removes y from
    every g-variable x with f(x) != z."""
    f = np.asarray(f_values)
    # groups 0 to n_y: h(y) alone; groups n_y to n_y + n_z: the x with f(x) != z
    z, to_g = np.nonzero(np.arange(n_z)[:, None] != f)
    side, span = _side(n_x + n_y, n_y + n_z)
    side[:n_x, 1], side[:n_x, 2] = f, 1
    side[n_x:, 0], side[n_x:, 1] = n_y, np.arange(n_y)
    span[:n_y, 0], span[:n_y, 1] = np.arange(n_y), np.arange(1, n_y + 1)
    cut = np.searchsorted(z, np.arange(n_z + 1)) + n_y
    span[n_y:, 0], span[n_y:, 1] = cut[:-1], cut[1:]
    return side, span, np.concatenate([n_x + np.arange(n_y), to_g]).astype(np.int32)


def _injective(n):
    """No two of the n variables share a value."""
    side, span = _side(n, n)
    side[:, 1], span[:, 1] = -1, n
    return side, span, np.arange(n, dtype=np.int32)


def _idempotent(n):
    """A value c is a fixed point: c goes to c."""
    side, span = _side(n, n)
    side[:, 1:] = -1, 1
    span[:, 0], span[:, 1] = np.arange(n), np.arange(1, n + 1)
    return side, span, np.arange(n, dtype=np.int32)


def _words(b):
    """uint64 words over the last axis of a bool array, value y at bit
    y % 64 of word y // 64: the root pass's domain representation."""
    packed = np.packbits(b, axis=-1, bitorder="little")
    words = np.zeros(b.shape[:-1] + (-(-b.shape[-1] // 64) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


def _bools(words, n):
    """The bool array over n values that _words packs into words."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _ops(a, b):
    """(arity, table of a, table of b) for each operation of the signature:
    the tables of homomorphisms a -> b as root and engine in _native.c read
    them."""
    return [(k, a.tables[name], b.tables[name]) for name, k in a.signature.ops]


class _Engine:
    """Backtracking over homomorphisms a -> b for each (a, b) in pairs, from
    the root pass's domain words, one array per pair (row v: the values v
    may go to, see _words). side, a side condition (see _channel) or None, gives
    its variables one more entry each, run first. self.state, the Engine in
    _native.c, compiles the pairs' tables (see _ops) and owns what it
    compiled, the domains, as rows of uint64 words (a numpy view:
    np.asarray(self.state)), the trail, the queue and the frames, and runs
    propagation and the whole search. This wrapper keeps the one search
    budget: each search is given what is left of stats.node_limit, its nodes
    are counted in stats, and NodeLimitReached is raised at the node past
    the limit. After root(), first_without and settle run searches from one
    shared base state: first_without searches with one value removed and
    restores the state, settle narrows a domain to a set of values for good.

    A variable is queued once, when its domain becomes a singleton, so
    after a fixpoint the variables with more than one value left are
    exactly the unassigned ones. The queue is a stack and a variable's
    entries run side condition first, then in ascending constraint order;
    the pairs are branched in order, MRV within each (the first on ties),
    or in lexicographic order: node counts depend on all three (see
    test_node_counts_pinned)."""

    def __init__(self, pairs, domains, stats, *, order="mrv", side=None):
        self.state = _native.engine([(a.size, b.size, _ops(a, b)) for a, b in pairs], side,
                                    domains, order == "lexicographic")
        self.stats = SearchStats() if stats is None else stats
        self.stop = self.stats.node_limit  # stats.nodes may not pass it

    def _counted(self, call, *args):
        """call(*args, budget) with the budget left; its solution, once its
        nodes are counted."""
        stats, stop = self.stats, self.stop
        used, sol = call(*args, None if stop is None else max(stop - stats.nodes, 0))
        stats.nodes += used
        if stop is not None and stats.nodes > stop:
            raise NodeLimitReached("node limit exceeded")
        return sol

    def root(self) -> bool:
        """Propagate the initial domains; False when they admit no solution."""
        return self.state.root()

    def solutions(self):
        """Yield complete assignments, as tuples of values; with
        lexicographic order they arrive in lexicographic order of the value
        vector."""
        if self.root():
            while (sol := self._counted(self.state.search)) is not None:
                yield sol

    def first_without(self, var, val):
        """First solution from the current state with val removed from
        var's domain, or None after an exhaustive search; the state is
        restored either way."""
        return self._counted(self.state.first_without, var, val)

    def settle(self, var, words) -> bool:
        """Keep only the values of words (see _words) in var's domain, for
        every later search; False on a wipeout."""
        return self.state.settle(var, words)


def _consistent_domains(a, b, d, max_arity, *, stats=None):
    """Root arc consistency for homomorphisms a -> b from the domains d.

    d is an (a.size, w) array of uint64 words over b's carrier (see
    _words). Every operation of arity at most max_arity is revised to a
    fixpoint in both directions: input support (each value of an argument
    has a consistent partner for every other argument) and output image
    (each value of a result is the image of a value tuple of every argument
    tuple that produces it). Before that, the diagonal rule over the same
    operations: an x with op_A(x, …, x) = x keeps only the y with
    op_B(y, …, y) = y, which the revision, reading the tuple's arguments and
    result as distinct variables, cannot see; for a constant, the rule is
    the whole constraint. The pruning is sound, so arity 3 or more is left
    to the search. One C function does it all, root in _native.c. Returns
    the pruned words, or None when a domain empties.
    """
    d, removed = _native.root(b.size, [op for op in _ops(a, b) if op[0] <= max_arity], d)
    if stats is not None:
        stats.root_pruned += removed
    return d


def _hom_engine(a, b, stats, d, *, order="mrv", side=None):
    if d is None:
        d = np.ones((a.size, b.size), dtype=bool)
    d = _consistent_domains(a, b, _words(d), 1, stats=stats)
    if d is None:
        return None
    return _Engine([(a, b)], [d], stats, order=order, side=side)


def _search_hom(a, b, stats, *, d=None, side=None):
    """First homomorphism a -> b the search finds, not yet re-verified."""
    eng = _hom_engine(a, b, stats, d, side=side)
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
            # the argsort of a permutation is its inverse
            return is_homomorphism(Mapping(y.size, x.size, np.argsort(g.values)), y, x)
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


def _solve_hom(inst, stats, d=None):
    return _verified(inst, _search_hom(inst.X, inst.Y, stats, d=d), None)


def _fibers(a_values, b_values):
    """Domain matrix d[v, w] = (a[v] == b[w])."""
    return np.asarray(a_values)[:, None] == np.asarray(b_values)[None, :]


def _solve_right_factor(inst, stats):
    # g(x) ranges over the h-fiber over f(x)
    return _solve_hom(inst, stats, _fibers(inst.f.values, inst.h.values))


def _solve_left_factor(inst, stats):
    seeds = {}
    for x in range(inst.X.size):
        y, z = inst.g.values[x], inst.f.values[x]
        if seeds.setdefault(y, z) != z:
            return None
    d = np.ones((inst.Y.size, inst.Z.size), dtype=bool)
    for y, z in seeds.items():
        d[y] = False
        d[y, z] = True
    return _verified(inst, None, _search_hom(inst.Y, inst.Z, stats, d=d))


def _solve_factor_pair(inst, stats):
    """One combined search over g- and h-variables with the channeling
    constraint, after the cardinality bound |im f| <= |Y|; a retraction is
    the full factor of the identity with Z = X."""
    x, y = inst.X, inst.Y
    z = inst.Z if inst.Z is not None else x
    f_values = inst.f.values if inst.f is not None else tuple(range(x.size))
    if len(set(f_values)) > y.size:
        return None  # im f = h(im g) has at most |Y| elements
    dh = _consistent_domains(y, z, _words(np.ones((y.size, z.size), dtype=bool)), 2,
                             stats=stats)
    if dh is None:
        return None
    # channel: g(x) = y forces h(y) = f(x); dh does not depend on g, so
    # pruning g once against it is already a fixpoint
    channel = _bools(dh, z.size)[:, list(f_values)].T
    if stats is not None:
        stats.root_pruned += x.size * y.size - int(channel.sum())
    dg = _consistent_domains(x, y, _words(channel), 2, stats=stats)
    if dg is None:
        return None
    eng = _Engine([(x, y), (y, z)], [dg, dh], stats,
                  side=_channel(x.size, y.size, z.size, f_values))
    sol = next(eng.solutions(), None)
    if sol is None:
        return None
    return _verified(
        inst, Mapping(x.size, y.size, sol[: x.size]), Mapping(y.size, z.size, sol[x.size:])
    )


def _solve_isomorphism(inst, stats):
    if inst.X.size != inst.Y.size:
        return None
    g = _search_hom(inst.X, inst.Y, stats, side=_injective(inst.X.size))
    return _verified(inst, g, None)


# Each instance kind: the maps it requires, the maps it may carry, its search.
_KINDS = {
    "hom": ((), (), _solve_hom),
    "right-factor": (("f", "h"), (), _solve_right_factor),
    "left-factor": (("f", "g"), (), _solve_left_factor),
    "full-factor": (("f",), (), _solve_factor_pair),
    "retraction": ((), ("f",), _solve_factor_pair),  # implied Z = X, f = identity
    "isomorphism": ((), (), _solve_isomorphism),
}
KINDS = tuple(_KINDS)


def decide(inst: FactorizationInstance, *, stats=None):
    """Decide any instance kind: (g, h) with the map the kind does not solve
    for set to None, or None for an exhaustive "no".

    The instance is validated once. Once the search nodes counted in stats
    pass stats.node_limit, NodeLimitReached is raised instead of an answer.
    """
    inst.validate()
    return _KINDS[inst.kind][2](inst, stats)


def _expect(inst, *kinds):
    if inst.kind not in kinds:
        raise InstanceError(f"expected a {kinds[0]} instance, got {inst.kind}")
    return inst


def _algebra_pair(kind, a, b):
    if a.signature != b.signature:
        raise SignatureMismatch("algebras do not share a signature")
    problems = _malformed([("first algebra", a), ("second algebra", b)])
    if problems:
        raise AlgebraError("; ".join(problems))
    return FactorizationInstance(kind, a, b)


def find_homomorphism(a, b, *, stats=None):
    """First homomorphism a -> b, or None.

    None means exhaustive refutation. Once the search nodes counted in stats
    pass stats.node_limit, NodeLimitReached is raised instead of an answer.
    """
    pair = _solve_hom(_algebra_pair("hom", a, b), stats)
    return None if pair is None else pair[0]


def enumerate_homomorphisms(a, b, limit, *, stats=None):
    """Distinct homomorphisms in lexicographic order, up to limit."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    inst = _algebra_pair("hom", a, b)
    eng = _hom_engine(a, b, stats, None, order="lexicographic")
    if eng is None:
        return []
    return [
        _verified(inst, Mapping(a.size, b.size, sol), None)[0]
        for sol in itertools.islice(eng.solutions(), limit)
    ]


def find_right_factor(inst: FactorizationInstance, *, stats=None):
    """Homomorphism g: X -> Y with h∘g = f, or None.

    Each variable's initial domain is the h-fiber over f(x), so the
    composition identity holds by construction on any witness.
    """
    pair = decide(_expect(inst, "right-factor"), stats=stats)
    return None if pair is None else pair[0]


def find_left_factor(inst: FactorizationInstance, *, stats=None):
    """Homomorphism h: Y -> Z with h∘g = f, or None.

    The partial assignment h(g(x)) := f(x) is seeded first and the instance
    is rejected immediately when g identifies points that f separates.
    """
    pair = decide(_expect(inst, "left-factor"), stats=stats)
    return None if pair is None else pair[1]


def find_factorization(inst: FactorizationInstance, *, stats=None):
    """Pair (g, h) with f = h∘g, or None.

    One combined search over g- and h-variables with the channeling
    constraint h(g(x)) = f(x). A retraction instance is accepted too. When
    |im f| > |Y| the answer is None at once: im f = h(im g) has at most |Y|
    elements.
    """
    return decide(_expect(inst, "full-factor", "retraction"), stats=stats)


def decide_retraction(x: FiniteAlgebra, y: FiniteAlgebra, *, stats=None):
    """Pair (g: X->Y, h: Y->X) with h∘g = id_X, or None; None at once when
    |X| > |Y|, since g must then be injective."""
    return _solve_factor_pair(_algebra_pair("retraction", x, y), stats)


def decide_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra, *, stats=None):
    """Bijective homomorphism with homomorphic inverse, or None."""
    pair = _solve_isomorphism(_algebra_pair("isomorphism", a, b), stats)
    return None if pair is None else pair[0]
