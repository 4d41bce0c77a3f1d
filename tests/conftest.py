"""Shared independent oracles for the test suite.

brute_homs enumerates every map of the full function space and filters by
the homomorphism definition directly, with the numpy is_homomorphism of
numpy_checks.py; it shares no code with the search engine or the rest of
_native.c and anchors the solver's completeness claims.
brute_min_retraction_image does the same for f-cores.
"""

import itertools

import pytest

from homfactor.algebra import Mapping
from numpy_checks import is_homomorphism


def brute_homs(a, b, cap=2_000_000):
    """All homomorphisms a -> b by exhaustive scan of b.size ** a.size maps."""
    total = b.size**a.size
    if total > cap:
        raise AssertionError(f"function space too large for brute force: {total}")
    out = []
    for values in itertools.product(range(b.size), repeat=a.size):
        m = Mapping(a.size, b.size, values)
        if is_homomorphism(m, a, b):
            out.append(m)
    return out


def brute_min_retraction_image(x, f):
    """Independent oracle: scan all |X|^|X| endomaps for f-respecting
    retractions and return the least image size. Idempotence and f∘r = f
    are checked in plain Python, and only their survivors pay for the
    homomorphism check."""
    best = x.size
    fv = f.values
    for values in itertools.product(range(x.size), repeat=x.size):
        if len(set(values)) >= best or any(
            values[w] != w or fv[v] != fv[w] for v, w in enumerate(values)
        ):
            continue
        if is_homomorphism(Mapping(x.size, x.size, values), x, x):
            best = len(set(values))
    return best


def brute_hom_exists_pruned(a, b):
    """Backtracking over raw maps with direct table checks; no propagation,
    no variable ordering: an engine-independent yes/no oracle for cases
    where the full scan is infeasible."""
    ops = [(a.nd(name), b.nd(name), arity) for name, arity in a.signature.ops]
    n = a.size
    psi = [-1] * n

    def consistent():
        for ta, tb, arity in ops:
            for tup in itertools.product(range(n), repeat=arity):
                if any(psi[t] < 0 for t in tup):
                    continue
                out = ta[tup] if arity else ta[()]
                if psi[out] < 0:
                    continue
                img = tb[tuple(psi[t] for t in tup)] if arity else tb[()]
                if img != psi[out]:
                    return False
        return True

    def rec(v):
        if v == n:
            return True
        for w in range(b.size):
            psi[v] = w
            if consistent() and rec(v + 1):
                return True
            psi[v] = -1
        return False

    return rec(0)


@pytest.fixture(scope="session")
def gadgets():
    from homfactor.encodings import make_gadgets

    return make_gadgets()
