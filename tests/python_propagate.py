"""The search engine in Python: its compiled constraints, propagation and
search loop, the reference that tests/test_native_propagate.py and
tests/test_native_search.py compare the Engine in homfactor/_native.c
with, state for state and node for node, as numpy_root.py is the root
pass's reference.

Here the constraints are compiled with numpy, as the solver compiled them
before the compile moved into the C engine, and share no compile code with
it: every variable's list of entries (kind, i, j, tab, aux), the target
tables as Python int masks, each list starting with the variable's
side-condition entry, if any (compiled). The side conditions, both halves
(what the source's tables decide and what the target's do) and their zip
per pair are the solver's from before, without its caches.
tests/test_native_propagate.py checks the C compile through them, by
propagating from the same states with both.

propagate(dom, trail, queue, props) runs on an engine's own lists, with
domains as Python int masks, which have any width: it pops the queued
variables, runs each one's entries, and returns False on a wipeout;
_check_table checks an entry of arity 3 or more.

Engine is the search loop as the solver ran it in Python over those lists
(_pick, _solve, _undo, _restrict, first_without, settle), before the
search moved into C, over the reference propagate, with settle taking
uint64 words as the C engine's does. use(monkeypatch) makes the solver
and fcore search with it.
"""

import functools
import itertools

import numpy as np

from homfactor.solver import NodeLimitReached, SearchStats, _words


def _ints(words):
    """Python int bitmasks from uint64 words (see _words), as nested lists:
    the reference engine's domain representation."""
    if words.shape[-1] == 1:
        return words[..., 0].tolist()
    width = 8 * words.shape[-1]
    data = words.tobytes()
    flat = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return np.array(flat, dtype=object).reshape(words.shape[:-1]).tolist()


def _word_rows(masks, w):
    """Python int masks as rows of w uint64 words, the C engine's layout."""
    return np.array([[m >> 64 * k & (1 << 64) - 1 for k in range(w)] for m in masks],
                    dtype=np.uint64).reshape(len(masks), w)


def _mask(words):
    """The Python int mask of a sequence of uint64 words."""
    return sum(int(x) << 64 * k for k, x in enumerate(words))


def _restrict(dom, trail, queue, var, allowed) -> bool:
    """Narrow var's domain in dom to the mask allowed, a subset of it, with
    a trail record; False on a wipeout. var is queued when its domain
    becomes a singleton."""
    d = dom[var]
    if not allowed:
        return False
    if allowed != d:
        trail.append((var, d))
        dom[var] = allowed
        if not allowed & (allowed - 1):
            queue.append(var)
    return True

# Propagator kinds. When variable v is fixed to a value a, each constraint
# on v is checked through v's compiled entry (kind, i, j, tab, aux): the
# other variables of the constraint and target tables of masks indexed by a.
_ROW = 0  # (o, w, rows, pres): w fills the other input, o the output: rows[a][w] = o
_PAIR = 1  # (x1, x2, pre1, pre2): v is the output of the tuple (x1, x2)
_PRE = 2  # (x, -, pre, -): x within the mask pre[a]; v fills every input, or
#           is the output of a tuple of x alone, or fills one input and x the rest
_TABLE = 3  # (inputs, o, table, strides): arity 3 or more, checked generically
_EACH = 4  # (-, -, group, masks): every w in group[a] other than v within masks[a]


# Side conditions: one _EACH entry per variable, put first in its list by compiled
SIDES = ("_channel", "_injective", "_idempotent")


def use(monkeypatch, engine=None):
    """Make every search of homfactor.solver and homfactor.fcore run on
    engine(pairs, domains, stats, order=..., side=(name, args)), by default
    Engine over the side condition name(*args) built here: the solver's
    side-condition builders return their name and arguments instead."""
    from homfactor import fcore, solver

    for name in SIDES:
        tag = functools.partial(lambda name, *args: (name, args), name)
        monkeypatch.setattr(solver, name, tag)
        if hasattr(fcore, name):
            monkeypatch.setattr(fcore, name, tag)

    def reference(pairs, domains, stats, *, order="mrv", side=None):
        entries = () if side is None else globals()[side[0]](*side[1])
        return Engine(pairs, domains, stats, order=order, side=entries)

    monkeypatch.setattr(solver, "_Engine", engine or reference)


def _channel(n_x, n_y, n_z, f_values):
    """h(g(x)) = f(x) between g-variables [0, n_x) and h-variables [n_x,
    n_x + n_y): g(x) = y narrows h(y) to f(x), and h(y) = z removes y from
    every g-variable x with f(x) != z."""
    to_h = [[n_x + y] for y in range(n_y)]
    images = {z: [1 << z] * n_y for z in set(f_values)}
    to_g = [[x for x, fx in enumerate(f_values) if fx != z] for z in range(n_z)]
    full = (1 << n_y) - 1
    return ([(_EACH, None, None, to_h, images[z]) for z in f_values]
            + [(_EACH, None, None, to_g, [full ^ (1 << y)] * n_z) for y in range(n_y)])


def _injective(n):
    """No two of the n variables share a value."""
    full = (1 << n) - 1
    return [(_EACH, None, None, [list(range(n))] * n, [full ^ (1 << c) for c in range(n)])] * n


def _idempotent(n):
    """A value c is a fixed point: c goes to c."""
    return [(_EACH, None, None, [[c] for c in range(n)], [1 << c for c in range(n)])] * n


def _preimages(values, nb):
    """pre[..., c]: mask of the positions y of the last axis with values[..., y] = c."""
    pre = np.zeros(values.shape[:-1] + (nb,), dtype=object)
    lead = [i[..., None] for i in np.indices(values.shape[:-1], sparse=True)]
    np.add.at(pre, (*lead, values), np.array([1 << y for y in range(values.shape[-1])],
                                             dtype=object))
    return pre.tolist()


_KINDS2 = (_PRE, _ROW, _PRE, _ROW, _PRE, _PRE, _PAIR)
_ENDS2 = np.array([(0, 0, 2, 0, 1, 1, 1), (0, 2, 0, 1, 0, 0, 2)])  # i, j per slot: 0 o, 1 x1, 2 x2


def _source_half(a):
    """The half of a's compiled entries that a's own tables decide: per
    non-constant operation, (slot, ends, cut) over its incidences (variable,
    tuple) in order of variable, then tuple. slot indexes the target half's
    entry kinds; ends holds the entry's i and j fields as rows, before any
    offset (arity 3 or more: one i row per input); cut[v] is where variable
    v's incidences start."""
    out = []
    for name, arity in a.signature.ops:
        if not arity:
            continue
        ta = a.table(name)
        xs = np.indices((a.size,) * arity).reshape(arity, ta.size)
        # the (element, tuple) keys of every input and the output, sorted, repeats dropped
        keys = np.sort(np.vstack([xs, ta]) * ta.size + np.arange(ta.size), axis=None)
        var, t = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], ta.size)
        xs, o = xs[:, t], ta[t]
        if arity == 1:
            slot = (xs[0] != var).view(np.int8)  # 0: v is the input; 1: v is only the output
            ends = np.stack([np.where(slot, xs[0], o)] * 2)
        elif arity == 2:
            x1, x2 = xs
            # v is: both inputs 0; x1 1 (2 if o = x2); x2 3 (4 if o = x1); o alone 5 (x1 = x2) or 6
            slot = np.where(x1 == var, np.where(x2 == var, 0, 1 + (o == x2)),
                            np.where(x2 == var, 3 + (o == x1), 5 + (x1 != x2))).astype(np.int8)
            ends = np.stack([o, x1, x2])[_ENDS2[:, slot], np.arange(len(var))]
        else:  # one slot, _TABLE
            slot = np.zeros(len(var), dtype=np.int8)
            ends = np.vstack([xs, o])
        # narrow types: _malformed bounds carriers at 4,096 elements, so
        # every variable fits int16
        ends = ends.astype(np.int16)
        cut = np.searchsorted(var, np.arange(a.size + 1)).astype(np.int32)
        for arr in (slot, ends, cut):
            arr.setflags(write=False)
        out.append((slot, ends, cut))
    return tuple(out)


def _target_half(b):
    """The half of the compiled entries that the target b decides: per
    operation, a (3, slots) object array of each slot's entry kind, table
    and auxiliary table (see the propagator kinds above). A table value c is held
    as the mask 1 << c, one shared int object per c."""
    out = []
    nb = b.size
    onehot = np.array([1 << c for c in range(nb)], dtype=object)
    for name, arity in b.signature.ops:
        if not arity:
            continue
        tb = b.table(name)
        if arity >= 3:
            strides = tuple(nb ** (arity - 1 - i) for i in range(arity))
            slots = [(_TABLE, onehot[tb].tolist(), strides)]
        elif arity == 1:
            slots = [(_PRE, onehot[tb].tolist(), None), (_PRE, _preimages(tb, nb), None)]
        else:
            t = tb.reshape(nb, nb)
            diag, pre1, pre2 = np.diagonal(t), _preimages(t, nb), _preimages(t.T, nb)
            rows = onehot[t]
            tabs = (onehot[diag].tolist(), rows.tolist(), _ints(_words(t == np.arange(nb))),
                    rows.T.tolist(), _ints(_words(t.T == np.arange(nb))), _preimages(diag, nb),
                    pre1)
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
            *ins, js = (ends.astype(np.int32) + offset).tolist()
            i_s = ins[0] if len(ins) == 1 else list(zip(*ins))  # arity 3 or more: tuples
            kinds, tabs, auxs = shared[:, slot].tolist()
            entries = list(zip(kinds, i_s, js, tabs, auxs))
            cut = cut.tolist()
            for v in range(a.size):
                props[offset + v] += entries[cut[v]:cut[v + 1]]
    return props


def compiled(pairs, side=()):
    """Every variable's entries for the (source, target) pairs laid side by
    side, side[v] first in v's list."""
    out = _compile(pairs)
    for listed, entry in zip(out, side):
        listed.insert(0, entry)
    return out


def _check_table(dom, trail, queue, ins, out, table, strides) -> bool:
    """One constraint of arity 3 or more, on an engine's lists: with every
    input fixed, narrow the output to its image; with one free input
    (repeats allowed), keep the values whose image lies in the output's
    domain, and the images."""
    idx_fixed = 0
    free_var = -1
    free_stride = 0
    for w, stride in zip(ins, strides):
        dw = dom[w]
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
        return _restrict(dom, trail, queue, out, dom[out] & table[idx_fixed])
    rest = dom[free_var]
    dout = dom[out]
    allowed_y = allowed_out = 0
    while rest:
        low = rest & -rest
        rest ^= low
        v = table[idx_fixed + (low.bit_length() - 1) * free_stride]
        if free_var == out:
            if low & v:
                allowed_y |= low
        elif dout & v:
            allowed_y |= low
            allowed_out |= v
    if not _restrict(dom, trail, queue, free_var, allowed_y):
        return False
    return free_var == out or _restrict(dom, trail, queue, out, allowed_out)


def propagate(dom, trail, queue, props) -> bool:
    """Propagate the queued variables to a fixpoint; False on a wipeout.
    A variable is queued once, when its domain becomes a singleton, so
    each popped variable is newly fixed and reaches its entries once;
    after a fixpoint, the variables with more than one value left are
    exactly the unassigned ones. The queue is a stack and a variable's
    entries run side condition first, then in ascending constraint
    order."""
    while queue:
        v = queue.pop()
        a = dom[v].bit_length() - 1
        for kind, i, j, tab, aux in props[v]:
            # each entry ends in narrowing one variable x from dx to m
            if kind == _ROW:
                x, dx, dw = i, dom[i], dom[j]
                if not dw & (dw - 1):
                    m = dx & tab[a][dw.bit_length() - 1]
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
                            if dx & c:
                                ay |= low
                                m |= c
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
            elif kind == _EACH:
                mask = aux[a]
                for x in tab[a]:
                    dx = dom[x]
                    m = dx & mask
                    if m != dx and x != v:
                        if not m:
                            return False
                        trail.append((x, dx))
                        dom[x] = m
                        if not m & (m - 1):
                            queue.append(x)
                continue
            elif _check_table(dom, trail, queue, i, j, tab, aux):
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


class Engine:
    """Backtracking over homomorphisms a -> b for each (a, b) in pairs, from
    the root pass's domain words, one array per pair, with its own domains
    and trail. A domain is an int bitmask over the target carrier. side, a
    list of side-condition entries (see _channel), goes first in its
    variables' lists. After root(), first_without and settle run searches
    from one shared base state: first_without searches with one value
    removed and restores the state, settle narrows a domain to a mask for
    good.

    propagate() runs the queued variables to a fixpoint, False on a
    wipeout: propagate above, bound to this engine's lists and entries."""

    def __init__(self, pairs, domains, stats, *, order="mrv", side=()):
        self.dom = [m for d in domains for m in _ints(d)]
        ends = list(itertools.accumulate(a.size for a, _ in pairs))
        self.spans = list(zip([0] + ends, ends))  # each pair's variables
        self.order = order
        self.stats = SearchStats() if stats is None else stats
        self.stop = self.stats.node_limit  # stats.nodes may not pass it
        self.trail = []  # (var, mask before the change)
        self.queue = []  # variables whose domain became a singleton, not yet propagated
        self.propagate = functools.partial(propagate, self.dom, self.trail, self.queue,
                                           compiled(pairs, side))

    def _undo(self, mark):
        trail, dom = self.trail, self.dom
        for var, old in reversed(trail[mark:]):
            dom[var] = old
        del trail[mark:]

    def _pick(self):
        """The next variable to branch on, among those with more than one
        value left; None when every variable is assigned. The pairs are
        branched in order: the variable comes from the first pair that
        still has an unassigned one, so the combined search assigns every
        g-variable before any h-variable. Within the pair, MRV picks the
        smallest domain, the first on ties; "lexicographic" picks the first
        unassigned variable."""
        dom = self.dom
        if self.order == "lexicographic":
            return next((v for v, d in enumerate(dom) if d & (d - 1)), None)
        for lo, hi in self.spans:
            best = None
            size = 0
            for v, d in enumerate(dom[lo:hi], lo):
                if d & (d - 1):
                    c = d.bit_count()
                    if best is None or c < size:
                        best, size = v, c
            if best is not None:
                return best
        return None

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
        if (_restrict(self.dom, self.trail, self.queue, var, self.dom[var] & ~(1 << val))
                and self.propagate()):
            sol = next(self._solve(), None)
        self._undo(mark)
        return sol

    def settle(self, var, words) -> bool:
        """Keep only the values of the uint64 words in var's domain, for
        every later search; False on a wipeout."""
        allowed = _ints(np.asarray(words)[None])[0]
        self.queue.clear()
        return (_restrict(self.dom, self.trail, self.queue, var, self.dom[var] & allowed)
                and self.propagate())

    def _solve(self):
        """Yield the solutions below the current state, depth first. The
        search is an explicit stack of [variable, untried values, mark]
        frames, one per branching level, so its depth is not bounded by
        Python's recursion limit; each frame undoes its last value's changes
        before trying the next one."""
        stats, stop = self.stats, self.stop
        dom, trail, queue = self.dom, self.trail, self.queue
        stack = []
        while True:
            var = self._pick()
            if var is None:
                yield tuple([d.bit_length() - 1 for d in dom])
            else:
                stack.append([var, dom[var], None])
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
                frame[2] = len(trail)
                queue.clear()
                if _restrict(dom, trail, queue, frame[0], dom[frame[0]] & low) and self.propagate():
                    break
            else:
                return
