"""Solver answers against the full function-space scan on random algebras,
and under relabelling of either carrier; the three factor kinds against a
scan over the maps they solve for."""

import pytest
from conftest import brute_homs

from homfactor.algebra import FiniteAlgebra, Mapping, compose
from homfactor.solver import FactorizationInstance, decide, verify_witness
from homfactor.varieties import make_abelian

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


@st.composite
def _factor_cases(draw):
    """(x, y, z, f, g, h) with f: X -> Z, g: X -> Y and h: Y -> Z drawn from
    brute_homs. Every algebra has an idempotent element e (each operation
    maps (e, ..., e) to e), so the constant map onto it is a homomorphism and
    every draw has maps to pick from. Z is X, a relabelled X or drawn
    afresh. Y is X or Z, or drawn afresh with at least as many elements as
    im f, or with fewer (when im f has two or more)."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    ops = [(f"o{i}", k) for i, k in enumerate(arities)]

    def algebra(n):
        e = draw(st.integers(0, n - 1))
        tables = {}
        for name, k in ops:
            cells = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
            cells[sum(e * n**i for i in range(k))] = e
            tables[name] = cells
        return FiniteAlgebra(ops, n, tables)

    x = algebra(draw(st.integers(1, 4)))
    z = draw(st.sampled_from(["x", "relabelled", "fresh"]))
    if z == "x":
        z = x
    elif z == "relabelled":
        z = _relabel(x, draw(st.permutations(range(x.size))))
    else:
        z = algebra(draw(st.integers(1, 4)))
    # largest images first: hypothesis favours the front of the list
    f = draw(st.sampled_from(sorted(brute_homs(x, z), key=lambda m: -len(set(m.values)))))
    y = draw(st.sampled_from(["smaller", "x", "z", "fresh"]))
    if y in ("x", "z"):
        y = x if y == "x" else z
    else:
        image = len(set(f.values))
        if y == "smaller":
            y = algebra(draw(st.integers(1, max(1, image - 1))))
        else:
            y = algebra(draw(st.integers(image, 4)))
    g = draw(st.sampled_from(brute_homs(x, y)))
    h = draw(st.sampled_from(brute_homs(y, z)))
    return x, y, z, f, g, h


_Z4, _Z2 = make_abelian([4]), make_abelian([2])


@pytest.mark.parametrize("kind", ["right-factor", "left-factor", "full-factor"])
@hypothesis.settings(max_examples=150, derandomize=True, deadline=None)
@hypothesis.given(case=_factor_cases())
@hypothesis.example(case=(_Z4, _Z2, _Z4, Mapping.identity(4), Mapping(4, 2, (0, 1, 0, 1)),
                          Mapping(2, 4, (0, 2))))  # |im f| = 4 > |Y| = 2
def test_factor_kinds_match_scan(kind, case):
    x, y, z, f, g, h = case
    if kind == "right-factor":
        inst = FactorizationInstance(kind, x, y, z, f=f, h=h)
        expected = any(compose(h, gs) == f for gs in brute_homs(x, y))
    elif kind == "left-factor":
        inst = FactorizationInstance(kind, x, y, z, f=f, g=g)
        expected = any(compose(hs, g) == f for hs in brute_homs(y, z))
    else:
        inst = FactorizationInstance(kind, x, y, z, f=f)
        hs_all = brute_homs(y, z)
        expected = any(compose(hs, gs) == f for gs in brute_homs(x, y) for hs in hs_all)
    pair = decide(inst)
    assert (pair is not None) == expected
    if pair is not None:
        assert verify_witness(inst, *pair)
