"""The C propagate (_native.propagate) against the Python reference
(python_propagate.propagate) from the same random engine states.

Every entry kind is covered: _ROW, _PRE and _PAIR from unary and binary
operations, _TABLE from lift_nary(..., 3), and _EACH from the three side
conditions. The targets have 63 to 200 elements, so the masks take one to
four uint64 words, and a full domain reaches the top bit of its last word
at 64 and 128 elements."""

import functools
import random

import numpy as np
import pytest
from python_propagate import propagate as python_propagate

from homfactor import _native
from homfactor.algebra import FiniteAlgebra
from homfactor.encodings import lift_nary
from homfactor.solver import (
    _EACH,
    _PAIR,
    _PRE,
    _ROW,
    _TABLE,
    _channel,
    _Engine,
    _idempotent,
    _injective,
    _words,
    find_homomorphism,
)

UNARY_BINARY = (("u", 1), ("mul", 2))
WIDTHS = [63, 64, 65, 127, 128, 129, 200]
# a ternary table on 102 or more elements passes the 2**20 table-entry
# limit, so no valid algebra has one
TERNARY_MAX = 101


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


def _engine(pairs, side=()):
    full = [_words(np.ones((a.size, b.size), dtype=bool)) for a, b in pairs]
    return _Engine(pairs, full, None, side=side)


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


def _run(eng, propagate, dom, queue):
    eng.dom[:] = dom
    eng.trail[:] = [(0, dom[0])]  # a record from before the call stays put
    eng.queue[:] = queue
    ok = propagate()
    return ok, list(eng.dom), list(eng.trail), list(eng.queue)


def _agree(eng, widths, solution, seed, states=150):
    """Run both propagates from the same random states around a solution;
    return the kinds of entry the engine holds and the outcomes seen."""
    assert eng.propagate.func is _native.propagate
    assert eng.propagate.args[4] == -(-max(widths) // 64)  # words per mask
    reference = functools.partial(python_propagate, eng.dom, eng.trail, eng.queue, eng.props)
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(states):
        dom, queue = _random_state(rng, widths, solution)
        python = _run(eng, reference, dom, queue)
        assert _run(eng, eng.propagate, dom, queue) == python
        outcomes.add(python[0])
    return {entry[0] for entries in eng.props for entry in entries}, outcomes


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
    # into nb elements, so that its table entries run on nb-wide masks
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
@pytest.mark.parametrize("side", [_injective, _idempotent])
def test_injective_and_idempotent_entries_agree(nb, side):
    a = _random(random.Random(nb), (("u", 1),), nb)
    kinds, outcomes = _agree(_engine([(a, a)], side(nb)), [nb] * nb, range(nb), nb)
    assert kinds == {_EACH, _PRE}
    assert outcomes == {True, False}


@pytest.mark.parametrize("nb", WIDTHS)
def test_channel_entries_agree(nb):
    # g: x -> y the embedding, h the identity of y, f = h∘g
    rng = random.Random(nb)
    x = _random(rng, UNARY_BINARY, 6)
    y = _random(rng, UNARY_BINARY, nb, x)
    eng = _engine([(x, y), (y, y)], _channel(x.size, nb, nb, range(x.size)))
    solution = [*range(x.size), *range(nb)]
    # the Python reference takes most of the time here, more as nb grows
    kinds, outcomes = _agree(eng, [nb] * len(solution), solution, nb,
                             states=100 if nb <= 64 else 50)
    assert kinds == {_EACH, _ROW, _PRE, _PAIR}
    assert outcomes == {True, False}


def test_a_target_past_64_elements_runs_the_c_propagate():
    a = FiniteAlgebra((("u", 1),), 4, {"u": [1, 2, 3, 0]})
    b = _random(random.Random(65), (("u", 1),), 65, a)
    eng, ref = _engine([(a, b)]), _engine([(a, b)])
    assert eng.propagate.func is _native.propagate and eng.propagate.args[4] == 2
    assert eng.dom[0] == (1 << 65) - 1
    ref.propagate = functools.partial(python_propagate, ref.dom, ref.trail, ref.queue, ref.props)
    assert list(eng.solutions()) == list(ref.solutions())
    assert eng.stats.nodes == ref.stats.nodes
    assert find_homomorphism(a, b).values == (0, 1, 2, 3)


def test_an_unreadable_state_raises_instead_of_crashing():
    pre = [[(_PRE, 1, None, [1, 2], None)], []]
    cases = [
        ([1, 3], [0], [[(_PRE, -1, None, [1, 2], None)], []], 1, IndexError),  # negative variable
        ([1, 3], [0], [[(_PRE, 5, None, [1, 2], None)], []], 1, IndexError),  # past dom
        ([1, 3], [0], [[(_PRE, 1, None, (1, 2), None)], []], 1, TypeError),  # a tuple table
        ([1, 3], [0], [[(9, 1, None, [1, 2], None)], []], 1, ValueError),  # unknown kind
        ([1, 3], [0], [[(_PRE, 1, None)], []], 1, TypeError),  # not a 5-tuple
        ([1, 3], [1], [[], (_PRE, 0, None, [1, 2], None)], 1, TypeError),  # entries not a list
        ([1, -3], [0], pre, 1, OverflowError),  # a negative mask
        ([1, -3], [0], pre, 2, OverflowError),
        ([1, 3], [0], [[(_PRE, 1, None, [~2, 2], None)], []], 2, OverflowError),
        ([1, 1 << 64], [0], pre, 1, OverflowError),  # a mask wider than w words
        ([1, 1 << 128], [0], pre, 2, OverflowError),
        ([1, 3.0], [0], pre, 2, TypeError),  # a mask that is no int
        ([1, 3], [0], pre, 0, ValueError),  # w out of range
        ([1, 3], [0], pre, 65, ValueError),
    ]
    for dom, queue, props, w, error in cases:
        with pytest.raises(error):
            _native.propagate(dom, [], queue, props, w)
