"""f-cores against the |X|^|X| scan: pool algebras and random algebras."""

import numpy as np
import pytest
from conftest import brute_min_retraction_image

from homfactor.algebra import FiniteAlgebra, Mapping, is_retraction_respecting
from homfactor.fcore import brute_fcore, is_fcore
from homfactor.solver import enumerate_homomorphisms
from homfactor.varieties import _ABELIAN_POOL, make_abelian

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _point(x):
    """The one-element algebra of x's signature."""
    return FiniteAlgebra(x.signature, 1, {name: [0] for name in x.signature.names})


def _check_against_scan(x, f, z):
    res = brute_fcore(x, f, z)
    best = brute_min_retraction_image(x, f)
    assert len(res.image) == best
    assert is_retraction_respecting(res.retraction, x, f)
    assert is_fcore(x, f, z) == (best == x.size)


@pytest.mark.parametrize(
    "orders", [o for o in _ABELIAN_POOL if np.prod(o) <= 6], ids=str
)
def test_pool_algebras_match_scan(orders):
    x = make_abelian(list(orders))
    _check_against_scan(x, Mapping.constant(x.size, 1, 0), _point(x))
    for f in enumerate_homomorphisms(x, x, x.size ** x.size):
        _check_against_scan(x, f, x)


@st.composite
def _algebra_and_f(draw):
    n = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    ops = [(f"o{i}", k) for i, k in enumerate(arities)]
    cells = st.integers(0, n - 1)
    tables = {
        name: draw(st.lists(cells, min_size=n**k, max_size=n**k)) for name, k in ops
    }
    x = FiniteAlgebra(ops, n, tables)
    endos = enumerate_homomorphisms(x, x, 16)
    pick = draw(st.integers(0, len(endos)))
    if pick == len(endos):
        return x, Mapping.constant(n, 1, 0), _point(x)
    return x, endos[pick], x


@hypothesis.settings(max_examples=120, derandomize=True, deadline=None)
@hypothesis.given(_algebra_and_f())
def test_random_algebras_match_scan(case):
    _check_against_scan(*case)
