"""Root arc consistency plus backtracking with forward checking for
homomorphism factorization.

One constraint engine drives every variant. Variables are elements of the
source carrier(s), values are elements of the target carrier(s), and each
operation table contributes functional constraints: once the arguments of a
tuple are assigned, the image of the result collapses to a single value.
Unary operations therefore propagate in chains, which the encodings rely on
heavily. Before any branching, one numpy routine, _consistent_domains,
prunes the domains to arc consistency in both directions (input support and
output image): over operations of arity at most 1 for single-map searches,
and at most 2, joined by the channel h(g(x)) = f(x), for the combined g/h
search. That search first applies the cardinality bound: im f = h(im g)
has at most |Y| elements, so |im f| > |Y| (for a retraction, |X| > |Y|) is
an exhaustive "no" before any root pass or search. The one search budget is
SearchStats: every search counts its nodes in the SearchStats it is given,
and once they pass its node_limit it raises NodeLimitReached, an explicit
"unknown" outcome, distinct from an exhaustive "no". Searches that share
one SearchStats share its limit.

Every search is built one way: the root pass prunes the bool domains, then
_Engine takes the constraints of its (source, target) pairs, laid side by
side, and converts the domains once to Python int bitmasks over the target
carrier. Each variable gets one numpy-compiled entry per tuple it occurs
in, naming the tuple's other variables and the target table sliced by the
variable's value, so that a binary table with one argument fixed becomes a
row lookup. The tables are compiled once per algebra, in two halves, each
kept in a bounded cache keyed by the algebra's content: what the source
decides (the incidences and the entries' variables) and what the target
decides (its sliced tables); a pair only zips the two. propagate runs the
entries inline, in ascending constraint order, with a stack of newly fixed
variables, which a variable enters once, when it becomes fixed. The search
itself holds an explicit stack of branching frames, not Python recursion,
so its depth is bounded only by the number of variables. Searches differ
only by hooks run on each newly fixed variable, such as injectivity for
isomorphisms and the channel h(g(x)) = f(x) for the combined g/h search.

What each instance kind means lives here and nowhere else: decide dispatches
on the kind, full factors and retractions share one combined search over g-
and h-variables, and every witness an entry point returns has passed
verify_witness, the single per-kind check, exactly once (through _verified).
Every entry point validates its input once, first, so a malformed table or
map raises AlgebraError: decide and the find_* functions through
FactorizationInstance.validate, the entry points that take two algebras
through _malformed. The _solve_* functions behind them assume a valid
instance, so a caller that builds an instance from checked parts may call
them directly.
"""

from __future__ import annotations

import functools
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

KINDS = ("hom", "right-factor", "left-factor", "full-factor", "retraction", "isomorphism")


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


def _malformed(named):
    """One line per (name, algebra) pair whose tables validate_algebra rejects."""
    out = []
    for name, alg in named:
        problems = validate_algebra(alg)
        if problems:
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
        out = []
        if self.kind not in KINDS:
            out.append(f"unknown kind {self.kind!r}")
            return out
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


# Propagator kinds. When variable v is fixed to a value a, each constraint
# on v is checked through v's compiled entry (kind, i, j, tab, aux): the
# other variables of the constraint and target tables indexed by a.
_FORCE = 0  # (o, -, vals, -): every input is v, so o := vals[a]
_ROW = 1  # (o, w, rows, pres): w fills the other input, o the output: rows[a][w] = o
_PAIR = 2  # (x1, x2, pre1, pre2): v is the output of the tuple (x1, x2)
_PRE = 3  # (x, -, pre, -): x within the mask pre[a]; v is the output of a tuple
#           of x alone, or v fills one input and x both the other and the output
_TABLE = 4  # (inputs, o, table, strides): arity 3 or more, checked generically


def _masks(b):
    """Python int bitmasks over the last axis of a bool array (bit y set iff
    b[..., y]), as nested lists: the engine's domain representation."""
    packed = np.packbits(b, axis=-1, bitorder="little")
    width = packed.shape[-1]
    if width <= 8:
        words = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
        words[..., :width] = packed
        return words.view("<u8")[..., 0].tolist()
    data = packed.tobytes()
    flat = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return np.array(flat, dtype=object).reshape(packed.shape[:-1]).tolist()


def _preimages(values, nb):
    """pre[..., c]: mask of the positions y of the last axis with values[..., y] = c."""
    pre = np.zeros(values.shape[:-1] + (nb,), dtype=object)
    lead = [i[..., None] for i in np.indices(values.shape[:-1], sparse=True)]
    np.add.at(pre, (*lead, values), np.array([1 << y for y in range(values.shape[-1])],
                                             dtype=object))
    return pre.tolist()


def _slot2(code):
    """Entry slot of a binary incidence from the bits v = x1, v = x2, o = x2,
    o = x1 and x1 = x2."""
    p1, p2, o2, o1, same = (code >> k & 1 for k in range(5))
    if p1 and p2:
        return 0
    if p1:
        return 2 if o2 else 1
    if p2:
        return 4 if o1 else 3
    return 5 if same else 6


_SLOTS2 = np.array([_slot2(code) for code in range(32)], dtype=np.int8)
_KINDS2 = (_FORCE, _ROW, _PRE, _ROW, _PRE, _PRE, _PAIR)
_ENDS2 = np.array([(0, 0, 2, 0, 1, 1, 1), (0, 2, 0, 1, 0, 0, 2)])  # i, j per slot: 0 o, 1 x1, 2 x2
_CACHED = 32  # algebras kept by each compile cache


@functools.lru_cache(maxsize=_CACHED)
def _source_half(a):
    """The half of a's compiled entries that a's own tables decide: per
    operation, (slot, ends, cut) over its incidences (variable, tuple) in
    order of variable, then tuple. slot indexes the target half's entry
    kinds; ends holds the entry's i and j fields as rows, before any
    offset (for arity 3 or more i spans one row per input); cut[v] is where
    variable v's incidences start. Equal algebras share one cached copy."""
    out = []
    bound = np.arange(a.size + 1)
    for name, arity in a.signature.ops:
        ta = a.table(name)
        cols = np.arange(ta.size)
        xs = np.indices((a.size,) * arity).reshape(arity, ta.size)
        inc = np.zeros((a.size, ta.size), dtype=bool)  # [element, tuple]
        inc[ta, cols] = True
        for x in xs:
            inc[x, cols] = True
        var, t = np.nonzero(inc)  # by element, then ascending tuple
        xs, o = xs[:, t], ta[t]
        if arity == 1:
            slot = (xs[0] != var).view(np.int8)  # 0: v is the input; 1: v is only the output
            first = np.where(slot, xs[0], o)
            ends = np.stack([first, first])
        elif arity == 2:
            x1, x2 = xs
            slot = _SLOTS2[(x1 == var) + 2 * (x2 == var) + 4 * (o == x2) + 8 * (o == x1)
                           + 16 * (x1 == x2)]
            ends = np.stack([o, x1, x2])[_ENDS2[:, slot], np.arange(len(var))]
        else:  # one slot: _FORCE for arity 0, _TABLE for 3 or more
            slot = np.zeros(len(var), dtype=np.int8)
            ends = np.vstack([xs, o]) if arity else np.stack([o, o])
        ends = ends.astype(np.int32)  # narrow types: the cache keeps 32 of these
        slot.setflags(write=False)
        ends.setflags(write=False)
        out.append((slot, ends, np.searchsorted(var, bound).tolist()))
    return tuple(out)


@functools.lru_cache(maxsize=_CACHED)
def _target_half(b):
    """The half of the compiled entries that the target b decides: per
    operation, a (3, slots) object array of each slot's entry kind, table
    and auxiliary table (see the propagator kinds above). Cached like
    _source_half; engines only read these tables."""
    out = []
    nb = b.size
    for name, arity in b.signature.ops:
        tb = b.table(name)
        if arity == 0:
            slots = [(_FORCE, [int(tb[0])] * nb, None)]
        elif arity >= 3:
            strides = tuple(nb ** (arity - 1 - i) for i in range(arity))
            slots = [(_TABLE, tb.tolist(), strides)]
        elif arity == 1:
            slots = [(_FORCE, tb.tolist(), None), (_PRE, _preimages(tb, nb), None)]
        else:
            t = tb.reshape(nb, nb)
            diag, pre1, pre2 = np.diagonal(t), _preimages(t, nb), _preimages(t.T, nb)
            tabs = (diag.tolist(), t.tolist(), _masks(t == np.arange(nb)), t.T.tolist(),
                    _masks(t.T == np.arange(nb)), _preimages(diag, nb), pre1)
            auxs = (None, pre1, None, pre2, None, None, pre2)
            slots = list(zip(_KINDS2, tabs, auxs))
        shared = np.empty((3, len(slots)), dtype=object)
        for k, (kind, tab, aux) in enumerate(slots):
            shared[0, k], shared[1, k], shared[2, k] = kind, tab, aux
        shared.setflags(write=False)
        out.append(shared)
    return tuple(out)


def _compile(pairs):
    """Every variable's compiled entries, in ascending constraint order, for
    homomorphisms a -> b of each (a, b) in pairs: value(op_A(x̄)) ==
    op_B(values of x̄) for every tuple x̄ of a. Each pair's variables follow
    those of the pairs before it. An entry (kind, i, j, tab, aux) zips the
    source half's i and j, moved by the pair's offset, with the target
    half's kind, tab and aux of its slot."""
    props = []
    for a, b in pairs:
        offset = len(props)
        props += [[] for _ in range(a.size)]
        for (slot, ends, cut), shared in zip(_source_half(a), _target_half(b)):
            *ins, js = (ends + offset).tolist()
            i_s = ins[0] if len(ins) == 1 else list(zip(*ins))  # arity 3 or more: tuples
            kinds, tabs, auxs = shared[:, slot].tolist()
            entries = list(zip(kinds, i_s, js, tabs, auxs))
            for v in range(a.size):
                props[offset + v] += entries[cut[v]:cut[v + 1]]
    return props


class _Engine:
    """Backtracking over homomorphisms a -> b for each (a, b) in pairs, one
    bool domain matrix per pair (d[v, w]: v may go to w), with its own
    domains and trail. A domain is an int bitmask over the target carrier.
    Every side condition is a hook, run on each newly fixed variable. After
    root(), first_without and settle run several searches from one shared
    base state: first_without searches with one value removed and restores
    the state, settle narrows a domain to a mask for good."""

    def __init__(self, pairs, domains, stats, *, order="mrv", hooks=()):
        self.props = _compile(pairs)
        self.dom = [m for d in domains for m in _masks(d)]
        self.n_vars = len(self.dom)
        self.order = order
        self.stats = SearchStats() if stats is None else stats
        self.stop = self.stats.node_limit  # stats.nodes may not pass it
        self.hooks = tuple(hooks)
        self.trail = []  # (var, mask before the change)
        self.queue = []  # variables whose domain became a singleton, not yet propagated

    def force(self, var, val) -> bool:
        return self._restrict(var, self.dom[var] & 1 << val)

    def remove(self, var, val) -> bool:
        return self._restrict(var, self.dom[var] & ~(1 << val))

    def _restrict(self, var, allowed) -> bool:
        """Narrow var's domain to the mask allowed, a subset of it; False on
        a wipeout. var is queued when its domain becomes a singleton."""
        d = self.dom[var]
        if not allowed:
            return False
        if allowed != d:
            self.trail.append((var, d))
            self.dom[var] = allowed
            if not allowed & (allowed - 1):
                self.queue.append(var)
        return True

    def _undo(self, mark):
        trail, dom = self.trail, self.dom
        for var, old in reversed(trail[mark:]):
            dom[var] = old
        del trail[mark:]

    def _check_table(self, ins, out, table, strides) -> bool:
        """One constraint of arity 3 or more: with every input fixed, force
        the output; with one free input (repeats allowed), keep the values
        whose image lies in the output's domain, and the images."""
        idx_fixed = 0
        free_var = -1
        free_stride = 0
        for w, stride in zip(ins, strides):
            dw = self.dom[w]
            if not dw & (dw - 1):
                idx_fixed += (dw.bit_length() - 1) * stride
            elif w == free_var:
                free_stride += stride
            elif free_var == -1:
                free_var = w
                free_stride = stride
            else:
                return True  # two distinct free inputs: checked later
        if free_var == -1:
            return self.force(out, table[idx_fixed])
        rest = self.dom[free_var]
        dout = self.dom[out]
        allowed_y = allowed_out = 0
        while rest:
            low = rest & -rest
            rest ^= low
            v = table[idx_fixed + (low.bit_length() - 1) * free_stride]
            if free_var == out:
                if low >> v & 1:
                    allowed_y |= low
            elif dout >> v & 1:
                allowed_y |= low
                allowed_out |= 1 << v
        if not self._restrict(free_var, allowed_y):
            return False
        return free_var == out or self._restrict(out, allowed_out)

    def propagate(self) -> bool:
        """Propagate the queued variables to a fixpoint; False on a wipeout.
        A variable is queued once, when its domain becomes a singleton, so
        each popped variable is newly fixed and reaches the hooks and its
        entries once; after a fixpoint, the variables with more than one
        value left are exactly the unassigned ones. The queue is a stack
        and a variable's entries run in ascending constraint order: node
        counts depend on both (see test_node_counts_pinned)."""
        dom, trail, queue, props, hooks = self.dom, self.trail, self.queue, self.props, self.hooks
        while queue:
            v = queue.pop()
            a = dom[v].bit_length() - 1
            for hook in hooks:
                if not hook(self, v, a):
                    return False
            for kind, i, j, tab, aux in props[v]:
                # each entry ends in narrowing one variable x from dx to m
                if kind == _ROW:
                    x, dx, dw = i, dom[i], dom[j]
                    if not dw & (dw - 1):
                        m = dx & 1 << tab[a][dw.bit_length() - 1]
                    else:
                        # j free: keep the values whose image is in i's domain
                        if not dx & (dx - 1):
                            ay, m = dw & aux[a][dx.bit_length() - 1], dx
                        else:
                            row = tab[a]
                            ay = m = 0
                            rest = dw
                            while rest:
                                low = rest & -rest
                                rest ^= low
                                c = row[low.bit_length() - 1]
                                if dx >> c & 1:
                                    ay |= low
                                    m |= 1 << c
                        if not ay:
                            return False
                        if ay != dw:
                            trail.append((j, dw))
                            dom[j] = ay
                            if not ay & (ay - 1):
                                queue.append(j)
                elif kind == _PRE:
                    x, dx = i, dom[i]
                    m = dx & tab[a]
                elif kind == _FORCE:
                    x, dx = i, dom[i]
                    m = dx & 1 << tab[a]
                elif kind == _PAIR:
                    d1, d2 = dom[i], dom[j]
                    if d1 & (d1 - 1):
                        if d2 & (d2 - 1):
                            continue  # two free inputs: checked later
                        x, dx, m = i, d1, d1 & aux[d2.bit_length() - 1][a]
                    elif d2 & (d2 - 1):
                        x, dx, m = j, d2, d2 & tab[d1.bit_length() - 1][a]
                    elif tab[d1.bit_length() - 1][a] & d2:
                        continue
                    else:
                        return False
                elif self._check_table(i, j, tab, aux):
                    continue
                else:
                    return False
                if m != dx:
                    if not m:
                        return False
                    trail.append((x, dx))
                    dom[x] = m
                    if not m & (m - 1):
                        queue.append(x)
        return True

    def _pick(self):
        """The next variable to branch on, among those with more than one
        value left; None when every variable is assigned."""
        dom = self.dom
        if self.order == "lexicographic":
            return next((v for v, d in enumerate(dom) if d & (d - 1)), None)
        best = None
        size = 0
        for v, d in enumerate(dom):
            if d & (d - 1):
                c = d.bit_count()
                if best is None or c < size:
                    best, size = v, c
        return best

    def root(self) -> bool:
        """Propagate the initial domains; False when they admit no solution."""
        if not all(self.dom):  # _pick would read an empty domain as assigned
            return False
        self.queue[:] = [v for v, d in enumerate(self.dom) if not d & (d - 1)]
        return self.propagate()

    def solutions(self):
        """Yield complete assignments; with lexicographic order they arrive
        in lexicographic order of the value vector."""
        if self.root():
            yield from self._solve()

    def first_without(self, var, val):
        """First solution from the current state with val removed from
        var's domain, or None after an exhaustive search; the state is
        restored either way."""
        mark = len(self.trail)
        self.queue.clear()
        sol = None
        if self.remove(var, val) and self.propagate():
            sol = next(self._solve(), None)
        self._undo(mark)
        return sol

    def settle(self, var, allowed) -> bool:
        """Keep only the values in the mask allowed in var's domain, for
        every later search; False on a wipeout."""
        self.queue.clear()
        return self._restrict(var, self.dom[var] & allowed) and self.propagate()

    def _solve(self):
        """Yield the solutions below the current state, depth first. The
        search is an explicit stack of [variable, untried values, mark]
        frames, one per branching level, so its depth is not bounded by
        Python's recursion limit; each frame undoes its last value's changes
        before trying the next one."""
        stats, stop = self.stats, self.stop
        stack = []
        while True:
            var = self._pick()
            if var is None:
                yield tuple([d.bit_length() - 1 for d in self.dom])
            else:
                stack.append([var, self.dom[var], None])
            while stack:
                frame = stack[-1]
                if frame[2] is not None:
                    self._undo(frame[2])
                rest = frame[1]
                if not rest:
                    stack.pop()
                    continue
                low = rest & -rest
                frame[1] = rest ^ low
                stats.nodes += 1
                if stop is not None and stats.nodes > stop:
                    raise NodeLimitReached("node limit exceeded")
                frame[2] = len(self.trail)
                self.queue.clear()
                if self.force(frame[0], low.bit_length() - 1) and self.propagate():
                    break
            else:
                return


def _incidence(values, n):
    """Float32 one-hot matrix M[i, values[i]] = 1: a product with it
    gathers or counts along a table in one matrix multiply."""
    m = np.zeros((len(values), n), dtype=np.float32)
    m[np.arange(len(values)), values] = 1
    return m


def _revise_nullary(ca, cb, d):
    d = d.copy()
    d[ca, np.arange(d.shape[1]) != cb] = False
    return d


def _keep_images(d, reach, pre):
    """Output image: value c of z survives only if every tuple t with
    op_A(t) = z has some value tuple op_B sends to c (reach[t, c])."""
    return d & ~(pre @ (~reach).astype(np.float32) > 0)


def _revise_unary(ta, tb, pre, img_b, d):
    d = d & d.take(ta, axis=0).take(tb, axis=1)  # input support
    return _keep_images(d, d.astype(np.float32) @ img_b > 0, pre)


def _revise_binary(ta, tb, pre, img_b, d):
    na, nb = d.shape
    df = d.astype(np.float32)
    # input support: u of x1 needs, for every x2, some v in D[x2] with
    # tb[u, v] in D[ta[x1, x2]]; position 2 the same way round. One product
    # per position counts the supports of every (output, value, other
    # argument): by_x2[o, u, x2] = #{v in D[x2] : tb[u, v] in D[o]}, then
    # read at o = ta[x1, x2]; by_x1 likewise with the arguments swapped.
    rows = np.arange(na)
    by_x2 = (df.take(tb, axis=1).reshape(na * nb, nb) @ df.T).reshape(na, nb, na)
    by_x1 = (df.take(tb.T, axis=1).reshape(na * nb, nb) @ df.T).reshape(na, nb, na)
    sup1 = (by_x2[ta, :, rows] > 0).all(axis=1)  # [x1, x2, u], all over x2
    sup2 = (by_x1[ta.T, :, rows] > 0).all(axis=1)  # [x2, x1, v], all over x1
    d = d & sup1 & sup2
    df = d.astype(np.float32)
    # reach[x1, x2, c]: some (u, v) in D[x1] x D[x2] has tb[u, v] = c
    by_u = (df @ img_b).reshape(na, nb, nb)  # [x2, u, c]
    reach = df @ by_u.transpose(1, 0, 2).reshape(nb, na * nb)
    return _keep_images(d, reach.reshape(na * na, nb) > 0, pre)


def _revision(ta, tb, arity, na, nb):
    """The revision step of one operation as a function of the domains."""
    if arity == 0:
        return functools.partial(_revise_nullary, int(ta[0]), int(tb[0]))
    pre = _incidence(ta, na).T  # pre[z, t] = 1 iff op_A(t) = z
    if arity == 1:
        return functools.partial(_revise_unary, ta, tb, pre, _incidence(tb, nb))
    # img_b[v, (u, c)] = 1 iff tb[u, v] = c
    img_b = _incidence(tb, nb).reshape(nb, nb, nb).transpose(1, 0, 2).reshape(nb, nb * nb)
    return functools.partial(_revise_binary, ta.reshape(na, na), tb.reshape(nb, nb),
                             pre, img_b)


def _consistent_domains(a, b, d, max_arity, *, stats=None):
    """Root arc consistency for homomorphisms a -> b from the domains d.

    d is an (a.size, b.size) bool matrix. Every operation of arity at most
    max_arity is revised to a fixpoint in both directions: input support
    (each value of an argument has a consistent partner for every other
    argument) and output image (each value of a result is the image of a
    value tuple of every argument tuple that produces it). The pruning is
    sound, so arities of 3 or more are simply left to the search. Returns
    the pruned matrix, or None when some element's domain empties.
    """
    revisions = [
        _revision(a.table(name), b.table(name), arity, a.size, b.size)
        for name, arity in a.signature.ops
        if arity <= max_arity
    ]
    before = int(d.sum())
    while True:
        prev = d
        for revise in revisions:
            d = revise(d)
        alive = d.any(axis=1).all()
        if not alive or np.array_equal(d, prev):
            break
    if stats is not None:
        stats.root_pruned += before - int(d.sum())
    return d if alive else None


def _hom_engine(a, b, stats, d, *, order="mrv", hooks=()):
    if d is None:
        d = np.ones((a.size, b.size), dtype=bool)
    d = _consistent_domains(a, b, d, 1, stats=stats)
    if d is None:
        return None
    return _Engine([(a, b)], [d], stats, order=order, hooks=hooks)


def _search_hom(a, b, stats, *, d=None, hooks=()):
    """First homomorphism a -> b the search finds, not yet re-verified."""
    eng = _hom_engine(a, b, stats, d, hooks=hooks)
    sol = None if eng is None else next(eng.solutions(), None)
    return None if sol is None else Mapping(a.size, b.size, sol)


def _injective_hook(eng, var, val):
    # no other element shares var's value
    for w in range(eng.n_vars):
        if w != var and not eng.remove(w, val):
            return False
    return True


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


def _solve_hom(inst, stats, d=None):
    return _verified(inst, _search_hom(inst.X, inst.Y, stats, d=d), None)


def _solve_right_factor(inst, stats):
    # g(x) ranges over the h-fiber over f(x)
    d = np.array(inst.f.values)[:, None] == np.array(inst.h.values)[None, :]
    return _solve_hom(inst, stats, d)


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


def _solve_factor_pair(inst, stats):
    """One combined search over g- and h-variables with the channeling
    constraint, after the cardinality bound |im f| <= |Y|; a retraction is
    the full factor of the identity with Z = X."""
    x, y = inst.X, inst.Y
    z = inst.Z if inst.Z is not None else x
    f_values = inst.f.values if inst.f is not None else tuple(range(x.size))
    if len(set(f_values)) > y.size:
        return None  # im f = h(im g) has at most |Y| elements
    dh = _consistent_domains(y, z, np.ones((y.size, z.size), dtype=bool), 2, stats=stats)
    if dh is None:
        return None
    # channel: g(x) = y forces h(y) = f(x); dh does not depend on g, so
    # pruning g once against it is already a fixpoint
    channel = dh[:, list(f_values)].T
    if stats is not None:
        stats.root_pruned += x.size * y.size - int(channel.sum())
    dg = _consistent_domains(x, y, channel, 2, stats=stats)
    if dg is None:
        return None
    eng = _Engine([(x, y), (y, z)], [dg, dh], stats,
                  hooks=(_channel_hook(x.size, f_values),))
    sol = next(eng.solutions(), None)
    if sol is None:
        return None
    return _verified(
        inst, Mapping(x.size, y.size, sol[: x.size]), Mapping(y.size, z.size, sol[x.size:])
    )


def _solve_isomorphism(inst, stats):
    if inst.X.size != inst.Y.size:
        return None
    g = _search_hom(inst.X, inst.Y, stats, hooks=(_injective_hook,))
    return _verified(inst, g, None)


_SOLVERS = {
    "hom": _solve_hom,
    "right-factor": _solve_right_factor,
    "left-factor": _solve_left_factor,
    "full-factor": _solve_factor_pair,
    "retraction": _solve_factor_pair,
    "isomorphism": _solve_isomorphism,
}


def decide(inst: FactorizationInstance, *, stats=None):
    """Decide any instance kind: (g, h) with the map the kind does not solve
    for set to None, or None for an exhaustive "no".

    The instance is validated once. Once the search nodes counted in stats
    pass stats.node_limit, NodeLimitReached is raised instead of an answer.
    """
    inst.validate()
    return _SOLVERS[inst.kind](inst, stats)


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
