"""The C propagate (Engine.propagate, an engine that compiled its own pairs
in _native.engine) against the Python reference (python_propagate.propagate
over python_propagate.compiled, which compiles the same tables with numpy)
from the same random engine states, written into the engine's domain words
through a numpy view: the C compile's incidences and word rows never leave
the engine, so they are checked by what propagation does with them.

Every entry kind is covered: _ROW, _PRE and _PAIR from unary and binary
operations, _TABLE from lift_nary(..., 3), and _EACH from the three side
conditions. The targets have 63 to 200 elements, so the masks take one to
four uint64 words, and a full domain reaches the top bit of its last word
at 64 and 128 elements. The compile's corpora are the catalog and fcore
algebras, the wide-target pins' pairs, ternary lifts and every side
condition."""

import random

import numpy as np
import pytest
import python_propagate as reference
from python_propagate import _EACH, _PAIR, _PRE, _ROW, _TABLE, _ints, _mask, _word_rows

from homfactor import _native, solver
from homfactor.algebra import FiniteAlgebra
from homfactor.encodings import (
    encode_magma,
    encode_semigroup,
    encode_unary,
    lift_nary,
    make_fcore_instance,
)
from homfactor.graphs import Graph, complete_graph, cycle_graph, path_graph
from homfactor.solver import SearchStats, _Engine, _words, find_homomorphism
from homfactor.varieties import make_abelian, make_boolean, make_vspace, sample_fcore_instances

UNARY_BINARY = (("u", 1), ("mul", 2))
WIDTHS = [63, 64, 65, 127, 128, 129, 200]
# a ternary table on 102 or more elements passes the 2**20 table-entry
# limit, so no valid algebra has one
TERNARY_MAX = 101
# each side condition in the solver's arrays and in the reference's entries
SIDES = {name: (getattr(solver, name), getattr(reference, name))
         for name in ("_channel", "_injective", "_idempotent")}


def _random(rng, signature, n, inner=None):
    """A random algebra on n elements; with inner, one that inner embeds
    into as its first elements, so v -> v is a homomorphism."""
    tables = {}
    for name, k in signature:
        t = np.array([rng.randrange(n) for _ in range(n ** k)]).reshape((n,) * k)
        if inner is not None:
            t[(slice(inner.size),) * k] = inner.nd(name)
        tables[name] = t.reshape(-1)
    return FiniteAlgebra(signature, n, tables)


def _engine(pairs, side=None, *args):
    """What _native.engine takes for the pairs, its domain words one zero
    array per pair, and the reference's entries for it, with the side
    condition side(*args) in both forms."""
    arrays, entries = (None, ()) if side is None else (f(*args) for f in SIDES[side])
    zeros = [np.zeros((a.size, -(-b.size // 64)), dtype=np.uint64) for a, b in pairs]
    compiled = [(a.size, b.size, solver._ops(a, b)) for a, b in pairs]
    return (compiled, arrays, zeros), reference.compiled(pairs, entries)


def _random_state(rng, widths, solution):
    """Domains over the given target sizes, a third of them fixed, and the
    fixed variables queued in a random order. Every other state keeps the
    solution's value in each domain, so that its propagation may end in a
    fixpoint; the rest mostly end in a wipeout."""
    around = rng.random() < 0.5
    dom = []
    for nb, value in zip(widths, solution):
        r = rng.random()
        if r < 0.35:
            dom.append(1 << (value if around else rng.randrange(nb)))
        elif r < 0.55:
            dom.append((1 << nb) - 1)
        else:
            dom.append(rng.getrandbits(nb) | 1 << (value if around else rng.randrange(nb)))
    queue = [v for v, d in enumerate(dom) if not d & (d - 1)]
    rng.shuffle(queue)
    return dom, queue


def _run_c(built, dom, queue):
    """The C propagate from the state (dom, queue), on a fresh engine whose
    domains are written through the numpy view of its words."""
    state = _native.engine(*built, False)
    words = np.asarray(state)
    words[:] = _word_rows(dom, words.shape[1])
    ok = state.propagate(queue)
    return ok, _ints(words), [(v, _mask(old)) for v, old in state.trail], state.queue


def _run_python(entries, dom, queue):
    dom, trail, queue = list(dom), [], list(queue)
    ok = reference.propagate(dom, trail, queue, entries)
    return ok, dom, trail, queue


def _agree(built, widths, solution, seed, states=150):
    """Run both propagates from the same random states around a solution;
    return the kinds of entry the reference holds and the outcomes seen."""
    built, entries = built
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(states):
        dom, queue = _random_state(rng, widths, solution)
        expected = _run_python(entries, dom, queue)
        assert _run_c(built, dom, queue) == expected
        outcomes.add(expected[0])
    return {entry[0] for listed in entries for entry in listed}, outcomes


@pytest.mark.parametrize("nb", WIDTHS)
def test_unary_and_binary_entries_agree(nb):
    rng = random.Random(nb)
    a = _random(rng, UNARY_BINARY, 7)
    b = _random(rng, UNARY_BINARY, nb, a)
    kinds, outcomes = _agree(_engine([(a, b)]), [nb] * a.size, range(a.size), nb)
    assert kinds == {_ROW, _PRE, _PAIR}
    assert outcomes == {True, False}


@pytest.mark.parametrize("nb", WIDTHS)
def test_table_entries_agree(nb):
    # past TERNARY_MAX the ternary pair shares its engine with a unary pair
    # into nb elements, so that the engine's masks are nb wide
    rng = random.Random(nb)
    sig = (("mul", 2),)
    small = _random(rng, sig, 5)
    a, b = lift_nary(small, 3), lift_nary(_random(rng, sig, min(nb, TERNARY_MAX), small), 3)
    pairs, widths, solution = [(a, b)], [b.size] * a.size, [*range(a.size)]
    if nb > TERNARY_MAX:
        u = FiniteAlgebra((("u", 1),), 3, {"u": [1, 2, 0]})
        pairs.append((u, _random(rng, (("u", 1),), nb, u)))
        widths += [nb] * u.size
        solution += range(u.size)
    kinds, outcomes = _agree(_engine(pairs), widths, solution, nb)
    assert _TABLE in kinds and kinds <= {_TABLE, _PRE}
    assert outcomes == {True, False}


@pytest.mark.parametrize("nb", WIDTHS)
@pytest.mark.parametrize("side", ["_injective", "_idempotent"])
def test_injective_and_idempotent_entries_agree(nb, side):
    a = _random(random.Random(nb), (("u", 1),), nb)
    kinds, outcomes = _agree(_engine([(a, a)], side, nb), [nb] * nb, range(nb), nb)
    assert kinds == {_EACH, _PRE}
    assert outcomes == {True, False}


@pytest.mark.parametrize("nb", WIDTHS)
def test_channel_entries_agree(nb):
    # g: x -> y the embedding, h the identity of y, f = h∘g
    rng = random.Random(nb)
    x = _random(rng, UNARY_BINARY, 6)
    y = _random(rng, UNARY_BINARY, nb, x)
    built = _engine([(x, y), (y, y)], "_channel", x.size, nb, nb, range(x.size))
    solution = [*range(x.size), *range(nb)]
    # the Python reference takes most of the time here, more as nb grows
    kinds, outcomes = _agree(built, [nb] * len(solution), solution, nb,
                             states=100 if nb <= 64 else 50)
    assert kinds == {_EACH, _ROW, _PRE, _PAIR}
    assert outcomes == {True, False}


def test_a_target_past_64_elements_runs_the_c_propagate():
    a = FiniteAlgebra((("u", 1),), 4, {"u": [1, 2, 3, 0]})
    b = _random(random.Random(65), (("u", 1),), 65, a)
    full = [_words(np.ones((a.size, b.size), dtype=bool))]
    eng, ref = _Engine([(a, b)], full, None), reference.Engine([(a, b)], full, SearchStats())
    assert np.asarray(eng.state).shape == (a.size, 2)
    assert _ints(np.asarray(eng.state))[0] == (1 << 65) - 1
    assert list(eng.solutions()) == list(ref.solutions())
    assert eng.stats.nodes == ref.stats.nodes
    assert find_homomorphism(a, b).values == (0, 1, 2, 3)


def _relabelled(a, seed):
    """a with its elements permuted, a different algebra of the same shape."""
    perm = np.random.default_rng(seed).permutation(a.size)
    inverse = np.argsort(perm)
    tables = {}
    for name, k in a.signature.ops:
        t = a.nd(name)
        tables[name] = perm[t[np.ix_(*[inverse] * k)] if k else t].reshape(-1)
    return FiniteAlgebra(a.signature, a.size, tables)


def _catalog_and_fcore():
    """Pairs of catalog and fcore algebras: the three encodings of small
    graphs, make_fcore_instance's semigroups and the four varieties, whose
    vector spaces have operations of arity 0, 1 and 2."""
    g = Graph(True, 3, frozenset([(0, 1), (1, 2), (2, 0), (2, 1)]))
    out = [(encode_unary(g)[0], encode_unary(g)[0]), (encode_magma(cycle_graph(4))[0],
                                                      encode_magma(complete_graph(3))[0])]
    sg = [encode_semigroup(h)[0] for h in (path_graph(3), complete_graph(3))]
    x, z, _ = make_fcore_instance(cycle_graph(4))
    out += [(sg[0], sg[1]), (x, x), (x, z)]
    for variety in ("gset", "vspace", "boolean", "abelian"):
        x, z, _ = sample_fcore_instances(variety, 1, 16, seed=3)[0]
        out += [(x, x), (x, z)]
    return out


def _wide():
    """Pairs with 64-200-element targets, as the wide-target pins take: masks
    of one to four words, the top bit of a second word at 127."""
    z2, b7, z200 = make_abelian([2] * 7), make_boolean(7), make_abelian([2, 10, 10])
    return [(z2, _relabelled(z2, 1)), (make_boolean(3), b7), (make_abelian([10]), z200),
            (make_vspace(2, 7), make_vspace(2, 7)), (make_abelian([4, 4, 4]), z2)]


def _agree_around_a_map(pairs, seed, states):
    """_agree on the pairs' engine, the states around the first homomorphism
    of each pair the search finds (all 0 where it finds none)."""
    solution, widths = [], []
    for a, b in pairs:
        g = find_homomorphism(a, b)
        solution += g.values if g is not None else [0] * a.size
        widths += [b.size] * a.size
    return _agree(_engine(pairs), widths, solution, seed, states)


# The C compile's arrays, seen through propagation: from the same states,
# the engine narrows every domain as the reference's entries do, over the
# catalog and fcore algebras (three encodings, make_fcore_instance and the
# four varieties, constants among their operations), one at a time and
# three side by side.
@pytest.mark.parametrize("pairs", [[p] for p in _catalog_and_fcore()] + [_catalog_and_fcore()[:3]],
                         ids=lambda pairs: "+".join(f"{a.size}-{b.size}" for a, b in pairs))
def test_compiled_arrays_expand_to_the_reference_entries(pairs):
    kinds, outcomes = _agree_around_a_map(pairs, len(pairs), 60)
    assert kinds <= {_ROW, _PRE, _PAIR} and False in outcomes


# the same over the wide-target pins' pairs, 64-200-element targets
@pytest.mark.parametrize("pair", _wide(), ids=lambda p: f"{p[0].size}-{p[1].size}")
def test_wide_target_arrays_expand_to_the_reference_entries(pair):
    kinds, outcomes = _agree_around_a_map([pair], pair[1].size, 10)
    assert kinds <= {_ROW, _PRE, _PAIR} and outcomes


# the same over two lift_nary(·, 3) pairs side by side
def test_ternary_lift_arrays_expand_to_the_reference_entries():
    rng = random.Random(3)
    small = _random(rng, (("mul", 2),), 4)
    pair = (lift_nary(small, 3), lift_nary(_random(rng, (("mul", 2),), 9, small), 3))
    kinds, outcomes = _agree_around_a_map([pair, pair], 3, 60)
    assert _TABLE in kinds and outcomes == {True, False}


# the same with each side condition, into 1 to 130 elements
@pytest.mark.parametrize("n", [1, 5, 64, 130])
def test_side_condition_arrays_expand_to_the_reference_entries(n):
    a = _random(random.Random(n), UNARY_BINARY, n)
    for name in ("_injective", "_idempotent"):
        kinds, _ = _agree(_engine([(a, a)], name, n), [n] * n, range(n), n, 20)
        assert _EACH in kinds
    # a channel into a wider Z, with f = h∘g constant, so that f(x) has an
    # empty group of g-variables
    x = _random(random.Random(n), UNARY_BINARY, 3)
    z = _random(random.Random(n + 1), UNARY_BINARY, n + 3)
    f = [1, 1, 1]
    built = _engine([(x, a), (a, z)], "_channel", x.size, n, z.size, f)
    kinds, _ = _agree(built, [n] * x.size + [z.size] * n, [0] * (x.size + n), n, 20)
    assert _EACH in kinds


def test_an_unreadable_state_raises_instead_of_crashing():
    u = FiniteAlgebra((("u", 1),), 2, {"u": [1, 0]})
    t = u.table("u")
    zeros = [np.zeros((2, 1), dtype=np.uint64)]

    def ops(k=1, ta=t, tb=t):
        return [(k, ta, tb)]

    for pairs, side, dom, error in [
        ([(2, 2, ops(ta=t.astype(np.int32)))], None, zeros, ValueError),  # A's table not int64
        ([(2, 2, ops(tb=t.astype(float)))], None, zeros, ValueError),  # B's table not int64
        ([(2, 2, ops(tb=t[:1]))], None, zeros, ValueError),  # not n**k entries
        ([(2, 2, ops(2))], None, zeros, ValueError),
        ([(2, 2, ops(ta=np.array([1, -1])))], None, zeros, ValueError),  # a negative value
        ([(2, 2, ops(tb=np.array([0, 2])))], None, zeros, ValueError),  # a value past |B|
        ([(2, 3, ops(ta=np.array([0, 2]), tb=np.array([0, 1, 2])))], None,
         zeros, ValueError),  # a value past |A| in A's table, within |B|
        ([(2, 2, ops(63))], None, zeros, ValueError),  # an arity of 63
        ([(2, 2, [(1, t)])], None, zeros, TypeError),  # not (arity, table, table)
        ([(2, 0, [])], None, zeros, ValueError),  # an empty target
        ([(2, 4097, [])], None, [np.zeros((2, 65), dtype=np.uint64)], ValueError),
        ([(1 << 15, 2, [])], None, [np.zeros((1 << 15, 1), dtype=np.uint64)], ValueError),
        ([(2, 2)], None, zeros, TypeError),  # not (|A|, |B|, operations)
        ([(2, 2, ops())], solver._injective(3), zeros, ValueError),  # members past the variables
        ([(2, 2, ops())], solver._injective(2)[:2], zeros, TypeError),  # not (side, span, members)
        ([(2, 2, ops())], (np.array([[0, 64, 1]], np.int32),) + solver._injective(2)[1:], zeros,
         ValueError),
        ([(2, 2, ops())], (np.array([[0, -1, 2]], np.int32),) + solver._injective(2)[1:], zeros,
         ValueError),
        ([(2, 2, ops())], solver._injective(2)[:1] + (np.array([[1, 0]], np.int32),
                                                      solver._injective(2)[2]), zeros, ValueError),
        ([(2, 2, ops())], None, [np.zeros((2, 1), dtype=np.int64)], ValueError),  # words not uint64
        ([(2, 2, ops())], None, [np.zeros((2, 2), dtype=np.uint64)], ValueError),  # two words a row
        ([(2, 2, ops())], None, [np.zeros((1, 1), dtype=np.uint64)], ValueError),  # a row short
        ([(2, 2, ops())], None, zeros * 2, ValueError),  # two arrays for one pair
        ([], None, zeros, ValueError),  # no pairs
    ]:
        with pytest.raises(error):
            _native.engine(pairs, side, dom, False)

    def engine(rows, side=None):
        state = _native.engine([(2, 2, ops())], side, zeros, False)
        np.asarray(state)[:] = np.array(rows, dtype=np.uint64)
        return state

    one, two = np.ones(1, dtype=np.uint64), np.ones(2, dtype=np.uint64)
    states = [
        ([[1], [3]], lambda e: e.propagate([-1]), IndexError),  # a negative variable
        ([[1], [3]], lambda e: e.propagate([2]), IndexError),  # a variable past the domains
        ([[1], [3]], lambda e: e.propagate([0, 1, 0]), ValueError),  # more entries than variables
        ([[1], [4]], lambda e: e.propagate([0]), ValueError),  # a value past the target
        ([[1], [1 << 63]], lambda e: e.root(), ValueError),  # in the padding of the word
        ([[1], [0]], lambda e: e.propagate([0]), ValueError),  # an empty domain
        ([[1], [0]], lambda e: e.settle(0, one), ValueError),
        ([[3], [3]], lambda e: e.first_without(2, 0, None), IndexError),  # a variable past them
        ([[3], [3]], lambda e: e.first_without(1, 2, None), ValueError),  # a value past the target
        ([[3], [3]], lambda e: e.first_without(1, -1, None), ValueError),
        ([[3], [3]], lambda e: e.first_without(1, 0, -1), ValueError),  # a negative budget
        ([[3], [3]], lambda e: e.search(-1), ValueError),
        ([[3], [3]], lambda e: e.settle(-1, one), IndexError),
        ([[3], [3]], lambda e: e.settle(1, two), ValueError),  # two words, the target needs one
        ([[3], [3]], lambda e: e.settle(1, one.view(np.int64)), ValueError),  # words not uint64
        ([[3], [3]], lambda e: e.propagate(3), TypeError),  # not a sequence
    ]
    for rows, call, error in states:
        with pytest.raises(error):
            call(engine(rows))
    with pytest.raises(IndexError):  # value 1 has no side group
        engine([[2], [3]], solver._idempotent(1)).propagate([0])
    assert engine([[1], [0]]).root() is False  # an empty domain: no solution
    # a budget of 0 stops at the first node, and the search cannot go on
    state = engine([[3], [3]])
    assert state.root() and state.search(0) == (1, None)
    with pytest.raises(RuntimeError):
        state.search(None)
    state = engine([[3], [3]])
    assert state.root() and [state.search(None) for _ in range(3)] == [
        (1, (0, 1)), (1, (1, 0)), (0, None)]
    # g(0) = 1 forces g(1) = 0 with no branching, and the state comes back
    assert state.first_without(0, 0, 0) == (0, (1, 0)) and _ints(np.asarray(state)) == [3, 3]
