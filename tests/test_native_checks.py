"""The table checks in C (hom, outside and restrict in _native.c, behind
is_homomorphism, validate_algebra and induced_subalgebra of
homfactor.algebra) against their numpy reference (numpy_checks.py): the
same is_homomorphism answers, validate_algebra problem lists and
induced_subalgebra tables, index maps and ClosureError messages, over
seeded random algebras (hypothesis, derandomized) with operations of arity
0 to 3 and ternary lifts (lift_nary(·, 3)). Also: malformed tables are
refused with an AlgebraError that names them, an arity past the C reader's
bound is refused at validation, and the C functions keep no memory across
20,000 calls each."""

import itertools
import random
import re

import numpy as np
import numpy_checks as reference
import pytest
from test_native_propagate import _random

from homfactor import _native
from homfactor.algebra import (
    AlgebraError,
    ClosureError,
    FiniteAlgebra,
    Mapping,
    induced_subalgebra,
    is_homomorphism,
    validate_algebra,
)
from homfactor.cli import main
from homfactor.encodings import lift_nary
from homfactor.fcore import brute_fcore
from homfactor.io import write_algebra
from homfactor.solver import enumerate_homomorphisms, find_homomorphism

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
MIXED = (("c", 0), ("u", 1), ("mul", 2), ("t", 3))


def _pairs(rng, na, nb):
    """(A, B) pairs over MIXED and over ternary lifts of one binary
    operation; the second pair of each kind has B embed A, so that B's
    homomorphisms from A include the inclusion."""
    out = []
    for lift in (False, True):
        sig = (("mul", 2),) if lift else MIXED
        a = _random(rng, sig, na)
        b = _random(rng, sig, nb)
        c = _random(rng, sig, na + nb, inner=a)
        if lift:
            a, b, c = (lift_nary(x, 3) for x in (a, b, c))
        out += [(a, b), (a, c)]
    return out


@SETTINGS
@hypothesis.given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 4))
def test_is_homomorphism_matches_the_reference(seed, na, nb):
    rng = random.Random(seed)
    for a, b in _pairs(rng, na, nb):
        maps = [Mapping(a.size, b.size, [rng.randrange(b.size) for _ in range(a.size)])
                for _ in range(10)]
        maps += enumerate_homomorphisms(a, b, 10)
        for m in maps:
            assert is_homomorphism(m, a, b) == reference.is_homomorphism(m, a, b), (a, b, m)


def _broken(rng, alg):
    """alg with one to all of its tables broken, each one way: a wrong
    length, a negative entry, an entry past the carrier, a missing table or
    an extra one."""
    tables = {name: list(t) for name, t in alg.tables.items()}
    for name in rng.sample(sorted(tables), rng.randint(1, len(tables))):
        how = rng.randrange(5)
        if how == 0:
            tables[name] = tables[name][:-1] if rng.random() < 0.5 else tables[name] + [0]
        elif how in (1, 2):
            i = rng.randrange(len(tables[name]))
            tables[name][i] = -rng.randint(1, 3) if how == 1 else alg.size + rng.randrange(3)
        elif how == 3:
            del tables[name]
        else:
            tables[f"extra_{name}"] = [0]
    return FiniteAlgebra(alg.signature, alg.size, tables)


@SETTINGS
@hypothesis.given(st.integers(0, 2**32), st.integers(1, 4))
def test_validate_algebra_matches_the_reference_on_malformed_tables(seed, n):
    rng = random.Random(seed)
    for a, _ in _pairs(rng, n, 1):
        bad = _broken(rng, a)
        mine = validate_algebra(bad)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "outside", reference.outside)
            theirs = validate_algebra(bad)
        assert mine == theirs and mine, (bad.tables, mine, theirs)


def _closure(alg, gens):
    """The least subset holding gens that alg's operations keep."""
    s = set(gens)
    while True:
        more = {alg.apply(name, *t) for name, k in alg.signature.ops
                for t in itertools.product(sorted(s), repeat=k)} - s
        if not more:
            return s
        s |= more


def _restricted(restrict, a, subset):
    """restrict(a, subset) as (tables, index, labels), or its ClosureError message."""
    try:
        sub, index = restrict(a, subset)
    except ClosureError as err:
        return str(err)
    return {k: t.tolist() for k, t in sub.tables.items()}, index, sub.size, sub.labels


@SETTINGS
@hypothesis.given(st.integers(0, 2**32), st.integers(1, 6))
def test_induced_subalgebra_matches_the_reference(seed, n):
    rng = random.Random(seed)
    for a, _ in _pairs(rng, n, 1):
        if rng.random() < 0.5:
            a = FiniteAlgebra(a.signature, a.size, a.tables, [f"e{i}" for i in range(a.size)])
        gens = rng.sample(range(a.size), rng.randint(1, a.size))
        for subset in (gens, _closure(a, gens)):
            mine = _restricted(induced_subalgebra, a, subset)
            assert mine == _restricted(reference.induced_subalgebra, a, subset)
        assert not isinstance(mine, str)  # the closure is closed


def test_malformed_tables_raise_algebra_errors_that_name_them():
    # -1 is no element: it used to read as the last one, so {1} looked closed
    bad = FiniteAlgebra([("u", 1)], 2, {"u": [1, -1]})
    with pytest.raises(AlgebraError, match=re.escape("table for 'u' has entries outside [0, 2)")):
        induced_subalgebra(bad, [1])
    # an entry past B's carrier, which used to raise numpy's IndexError
    a = FiniteAlgebra([("u", 1)], 2, {"u": [1, 0]})
    b = FiniteAlgebra([("u", 1)], 2, {"u": [1, 2]})
    with pytest.raises(AlgebraError, match=re.escape("table for 'u' has entries outside [0, 2)")):
        is_homomorphism(Mapping.identity(2), a, b)
    short = FiniteAlgebra([("mul", 2)], 2, {"mul": [0, 1, 1]})
    for check in (lambda: is_homomorphism(Mapping.identity(2), short, short),
                  lambda: induced_subalgebra(short, [0])):
        with pytest.raises(AlgebraError, match="table for 'mul' has 3 entries, expected 4"):
            check()


def test_an_arity_past_62_is_refused_at_validation(tmp_path, capsys):
    message = "operation 'f' has arity 63, more than 62"
    alg = FiniteAlgebra([("f", 63)], 1, {"f": [0]})
    assert validate_algebra(alg) == [message]
    assert validate_algebra(FiniteAlgebra([("f", 62)], 1, {"f": [0]})) == []
    for call in (lambda: find_homomorphism(alg, alg),
                 lambda: brute_fcore(alg, Mapping.identity(1)),
                 lambda: is_homomorphism(Mapping.identity(1), alg, alg)):
        with pytest.raises(AlgebraError, match=message):
            call()
    write_algebra(alg, tmp_path / "wide.alg")
    (tmp_path / "i.instance").write_text("instance hom\nX wide.alg\nY wide.alg\n")
    assert main(["decide", "--instance", str(tmp_path / "i.instance"),
                 "--witness", str(tmp_path / "w")]) == 2
    assert capsys.readouterr() == (
        "", f"error: X is malformed: {message}; Y is malformed: {message}\n")


def test_the_checks_keep_no_memory():
    import tracemalloc

    a = _random(random.Random(5), MIXED, 4)
    ops = [(k, a.tables[name], a.tables[name]) for name, k in MIXED]
    restrict = [(k, a.tables[name]) for name, k in MIXED]
    closed, open_ = sorted(_closure(a, [1])), [0]
    assert closed != open_
    bad = np.array([0, 1, 2, 9], dtype=np.int64)

    calls = [  # each with the type of its outcome
        (lambda: _native.hom(range(4), 4, ops), bool),
        (lambda: _native.hom([0, 4], 4, ops), ValueError),
        (lambda: _native.hom(range(4), 4, [(1, bad, bad)]), ValueError),
        (lambda: _native.outside(bad, 4), bool),
        (lambda: _native.restrict(4, closed, restrict), list),
        (lambda: _native.restrict(4, open_, restrict), tuple),
        (lambda: _native.restrict(4, closed, restrict + [(1, bad)]), ValueError),
        (lambda: _native.restrict(4, [1, 1], restrict), ValueError),
    ]

    def cycle(k):
        for _ in range(k):
            for call, outcome in calls:
                try:
                    out = call()
                except ValueError as err:
                    out = err
                assert type(out) is outcome

    cycle(500)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cycle(20_000)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
