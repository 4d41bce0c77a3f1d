"""Solver answers against the full function-space scan on random algebras,
and under relabelling of either carrier."""

import pytest
from conftest import brute_homs

from homfactor.algebra import FiniteAlgebra, Mapping, compose
from homfactor.solver import FactorizationInstance, decide, verify_witness

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _relabel(alg, perm):
    """alg with each element e renamed perm[e]."""
    inv = [0] * alg.size
    for e, p in enumerate(perm):
        inv[p] = e
    funcs = {
        name: (lambda *xs, name=name: perm[alg.apply(name, *(inv[x] for x in xs))])
        for name in alg.signature.names
    }
    return FiniteAlgebra.from_function(alg.signature, alg.size, funcs)


def _after(perm, m):
    """perm ∘ m."""
    return Mapping(m.dom_size, m.cod_size, tuple(perm[v] for v in m.values))


def _before(m, perm):
    """m ∘ perm⁻¹: the same map read on a relabelled domain."""
    values = [0] * m.dom_size
    for e, p in enumerate(perm):
        values[p] = m.values[e]
    return Mapping(m.dom_size, m.cod_size, tuple(values))


def _brute_answer(kind, x, y):
    homs = brute_homs(x, y)
    if kind == "hom":
        return bool(homs)
    back = brute_homs(y, x)
    if kind == "retraction":
        ident = Mapping.identity(x.size)
        return any(compose(h, g) == ident for g in homs for h in back)
    return x.size == y.size and any(
        len(set(g.values)) == y.size and any(compose(h, g) == Mapping.identity(x.size)
                                             for h in back)
        for g in homs
    )


@st.composite
def _cases(draw):
    """(x, y, relabelled side, permutation): y is drawn independently of x
    or as a relabelled copy of it, so that every kind sees both answers."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    ops = [(f"o{i}", k) for i, k in enumerate(arities)]

    def algebra(n):
        cells = st.integers(0, n - 1)
        return FiniteAlgebra(ops, n, {
            name: draw(st.lists(cells, min_size=n**k, max_size=n**k)) for name, k in ops
        })

    x = algebra(draw(st.integers(1, 4)))
    if draw(st.booleans()):
        y = _relabel(x, draw(st.permutations(range(x.size))))
    else:
        y = algebra(draw(st.integers(1, 4)))
    side = draw(st.sampled_from("XY"))
    perm = draw(st.permutations(range((x if side == "X" else y).size)))
    return x, y, side, perm


@pytest.mark.parametrize("kind", ["hom", "retraction", "isomorphism"])
@hypothesis.settings(max_examples=150, derandomize=True, deadline=None)
@hypothesis.given(case=_cases())
def test_random_algebras_match_scan_and_relabelling(kind, case):
    x, y, side, perm = case
    pair = decide(FactorizationInstance(kind, x, y))
    assert (pair is not None) == _brute_answer(kind, x, y)
    if side == "X":
        inst = FactorizationInstance(kind, _relabel(x, perm), y)
    else:
        inst = FactorizationInstance(kind, x, _relabel(y, perm))
    assert (decide(inst) is None) == (pair is None)
    if pair is None:
        return
    g, h = pair
    if side == "X":
        g, h = _before(g, perm), h and _after(perm, h)
    else:
        g, h = _after(perm, g), h and _before(h, perm)
    assert verify_witness(inst, g, h)
