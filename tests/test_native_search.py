"""The C search (the Engine in _native.c behind solver._Engine) against the
Python reference search (python_propagate.Engine, the solver's loop over
Python int masks before it moved into C), through the same entry points:
the same answers and witnesses, node counts, root_pruned counts,
enumeration sequences, the node at which NodeLimitReached fires, and the
maps fcore._retractions yields through first_without and settle. The
instances are seeded random algebras (hypothesis, derandomized), one
signature among them mixing a constant with unary, binary and ternary
operations, targets of 65 to 200 elements (masks of two to four words),
ternary lifts (lift_nary(·, 3)), and the corpora of the propagate
comparison."""

import random

import numpy as np
import pytest
import python_propagate as reference
from test_native_propagate import UNARY_BINARY, _catalog_and_fcore, _random, _relabelled, _wide

from homfactor import fcore
from homfactor.algebra import FiniteAlgebra, Mapping
from homfactor.encodings import encode_semigroup, lift_nary, make_fcore_instance
from homfactor.graphs import graph_catalog
from homfactor.solver import (
    NodeLimitReached,
    SearchStats,
    _Engine,
    _words,
    decide_isomorphism,
    decide_retraction,
    enumerate_homomorphisms,
    find_homomorphism,
)
from homfactor.varieties import make_vspace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=25)
CAP = 3000  # node limit of every comparison: both searches stop at the same node past it
MIXED = (("c", 0), ("u", 1), ("mul", 2), ("t", 3))


def _outcome(call, limit):
    """(answer, nodes, root_pruned) of call(stats) under the node limit; the
    answer is NodeLimitReached when the limit fired."""
    stats = SearchStats(node_limit=limit)
    try:
        out = call(stats)
    except NodeLimitReached:
        out = NodeLimitReached
    return out, stats.nodes, stats.root_pruned


def _agree(call, limit=CAP):
    """The C search's outcome of call, once the reference's is the same."""
    mine = _outcome(call, limit)
    with pytest.MonkeyPatch.context() as mp:
        reference.use(mp)
        theirs = _outcome(call, limit)
    assert mine == theirs
    return mine


def _calls(a, b):
    """Every search kind on the pair: a homomorphism, the first 40 in
    lexicographic order, a retraction, an isomorphism onto a relabelled
    copy, and the f-core loop of a over the map to one element."""
    const = Mapping(a.size, 1, (0,) * a.size)
    return [
        lambda s: find_homomorphism(a, b, stats=s),
        lambda s: enumerate_homomorphisms(a, b, 40, stats=s),
        lambda s: decide_retraction(a, b, stats=s),
        lambda s: decide_isomorphism(a, _relabelled(a, a.size), stats=s),
        lambda s: list(fcore._retractions(a, const, s)),
    ]


def _agree_all(calls, cut):
    """Each call agrees, unlimited (to CAP) and, past its first node, cut
    short at cut(nodes) nodes, where NodeLimitReached must fire for both
    at the node after."""
    out = []
    for call in calls:
        answer, nodes, _ = _agree(call)
        out.append(answer)
        if 1 < nodes <= CAP:
            limit = cut(nodes)
            assert _agree(call, limit)[:2] == (NodeLimitReached, limit + 1)
    return out


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), nb=st.integers(1, 9),
                  cut=st.floats(0, 1))
def test_random_searches_match_the_reference(seed, n, nb, cut):
    rng = random.Random(seed)
    a = _random(rng, UNARY_BINARY, n)
    b = _random(rng, UNARY_BINARY, nb, a if nb >= n and rng.random() < 0.5 else None)
    _agree_all(_calls(a, b), lambda nodes: 1 + int(cut * (nodes - 2)))


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), nb=st.integers(1, 6),
                  cut=st.floats(0, 1))
def test_mixed_signature_searches_match_the_reference(seed, n, nb, cut):
    # a constant beside operations of arity 1, 2 and 3 in one signature, so
    # that one engine runs every branch of the C compile
    rng = random.Random(seed)
    a = _random(rng, MIXED, n)
    b = _random(rng, MIXED, nb, a if nb >= n and rng.random() < 0.5 else None)
    _agree_all(_calls(a, b), lambda nodes: 1 + int(cut * (nodes - 2)))


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), nb=st.integers(65, 200),
                  cut=st.floats(0, 1))
def test_multiword_searches_match_the_reference(seed, n, nb, cut):
    # the source embeds into the wide target as its first elements, so the
    # searches find maps, and a retraction's h-variables have one-word masks
    # while its g-variables have two to four
    rng = random.Random(seed)
    a = _random(rng, UNARY_BINARY, n)
    b = _random(rng, UNARY_BINARY, nb, a)
    calls = [lambda s: find_homomorphism(a, b, stats=s),
             lambda s: enumerate_homomorphisms(a, b, 40, stats=s),
             lambda s: decide_retraction(a, b, stats=s)]
    _agree_all(calls, lambda nodes: 1 + int(cut * (nodes - 2)))


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), nb=st.integers(2, 7))
def test_ternary_lift_searches_match_the_reference(seed, n, nb):
    rng = random.Random(seed)
    small = _random(rng, (("mul", 2),), n)
    big = _random(rng, (("mul", 2),), max(n, nb), small if rng.random() < 0.5 else None)
    a, b = lift_nary(small, 3), lift_nary(big, 3)
    calls = [lambda s: find_homomorphism(a, b, stats=s),
             lambda s: enumerate_homomorphisms(a, b, 20, stats=s)]
    _agree_all(calls, lambda nodes: nodes // 2)


@pytest.mark.parametrize("pair", _catalog_and_fcore() + _wide(),
                         ids=lambda p: f"{p[0].size}-{p[1].size}")
def test_corpus_searches_match_the_reference(pair):
    a, b = pair
    calls = [lambda s: find_homomorphism(a, b, stats=s),
             lambda s: enumerate_homomorphisms(a, b, 30, stats=s),
             lambda s: decide_retraction(a, b, stats=s)]
    if a.size == b.size:
        calls.append(lambda s: decide_isomorphism(a, b, stats=s))
    for call in calls:  # the node limit is cut short in the tests above and below
        _agree(call)


def test_fcore_retractions_match_the_reference():
    # first_without and settle: the maps of the decremental loop, on the
    # f-core instances of the graphs with 1-4 vertices and the wide-target
    # pins' 128-element vector space (masks of two words)
    fx = make_vspace(2, 7)
    insts = [(x, f) for x, _, f in map(make_fcore_instance, graph_catalog(1, 4))]
    insts += [(fx, Mapping(128, 2, tuple(x & 1 for x in range(128)))),
              (fx, Mapping(128, 4, tuple(x >> 5 for x in range(128))))]
    found = 0
    for x, f in insts:
        maps, nodes, _ = _agree(lambda s: list(fcore._retractions(x, f, s)))
        found += len(maps)
        if nodes > 1:
            assert _agree(lambda s: list(fcore._retractions(x, f, s)), nodes // 2)[:2] == (
                NodeLimitReached, nodes // 2 + 1)
    assert found > 10


def test_node_limit_fires_at_the_same_node_on_retraction_corpus():
    encs = [encode_semigroup(g)[0] for g in graph_catalog(2, 4)]
    fired = 0
    for x in encs[::2]:
        for y in encs[1::2]:
            for limit in (1, 7):
                answer, nodes, _ = _agree(lambda s: decide_retraction(x, y, stats=s), limit)
                fired += answer is NodeLimitReached
                assert answer is not NodeLimitReached or nodes == limit + 1
    assert fired > 5


def test_engines_leave_no_memory_behind():
    # 20,000 engines built, searched, cut short by first_without and settle,
    # and dropped, the trail past its first allocation of one record per
    # variable: the traced memory grows by less than 64 KB in all, about 3
    # bytes an engine, where one engine's buffers alone take about 300
    import tracemalloc

    u = FiniteAlgebra((("u", 1),), 6, {"u": [1, 2, 0, 4, 5, 3]})
    y = FiniteAlgebra((("u", 1),), 9, {"u": [1, 2, 0, 4, 5, 3, 7, 8, 6]})
    full = [_words(np.ones((6, 9), dtype=bool))]
    below = [_words(np.arange(9) < k) for k in (6, 3)]

    def cycle(k):
        for i in range(k):
            eng = _Engine([(u, y)], full, None, order="lexicographic" if i % 2 else "mrv")
            assert eng.root() and eng.first_without(0, 0) is not None
            for words in below:
                assert all(eng.settle(v, words) for v in range(u.size))
            assert next(eng.solutions()) is not None
        return eng

    eng = cycle(500)
    assert len(eng.state.trail) > u.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cycle(20_000)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
