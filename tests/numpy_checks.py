"""The numpy table checks, kept as a reference for the C ones behind
homfactor.algebra (hom, outside and restrict in _native.c), and as the
checks of the conftest oracles, which share no code with _native.c.

is_homomorphism and induced_subalgebra are the numpy bodies that
homfactor.algebra ran before its checks moved into C, and outside is
validate_algebra's numpy value test.
"""

import numpy as np

from homfactor.algebra import (
    AlgebraError,
    ClosureError,
    FiniteAlgebra,
    SizeMismatch,
    _require_signatures,
)


def outside(t, n):
    """Whether some entry of the int64 table t lies outside [0, n)."""
    # tables are int64, so a negative entry reads as a huge unsigned one
    return bool(t.size and t.view(np.uint64).max() >= n)


def is_homomorphism(m, a, b):
    """True iff m(op_A(x...)) == op_B(m(x)...) for every operation and tuple."""
    _require_signatures(a, b)
    if m.dom_size != a.size or m.cod_size != b.size:
        raise SizeMismatch(
            f"mapping is {m.dom_size}->{m.cod_size}, algebras are {a.size}, {b.size}"
        )
    vals = np.asarray(m.values, dtype=np.int64)
    for name, arity in a.signature.ops:
        tb = b.nd(name)
        if arity == 0:
            rhs = tb
        elif arity == 1:
            rhs = tb[vals]
        elif arity == 2:
            rhs = tb[vals[:, None], vals]
        else:
            rhs = tb[np.ix_(*([vals] * arity))]
        if not np.array_equal(vals[a.nd(name)], rhs):
            return False
    return True


def induced_subalgebra(a, subset):
    """Restrict to a closed subset, re-indexed to 0..|subset|-1.

    Returns the restricted algebra and the old->new index mapping. Raises
    ClosureError naming the violating operation and tuple when the subset
    is not closed.
    """
    elems = sorted(set(int(e) for e in subset))
    if not elems:
        raise AlgebraError("subset is empty")
    if elems[0] < 0 or elems[-1] >= a.size:
        raise AlgebraError("subset element out of range")
    index = {old: new for new, old in enumerate(elems)}
    lookup = np.full(a.size, -1, dtype=np.int64)  # new index, -1 outside the subset
    lookup[elems] = np.arange(len(elems))
    tables = {}
    for name, arity in a.signature.ops:
        values = a.nd(name)[np.ix_(*[elems] * arity)]
        new = lookup[values]
        first = int(new.argmin())  # the first -1: the lexicographically first violating tuple
        if new.flat[first] < 0:
            tup = tuple(elems[i] for i in np.unravel_index(first, values.shape))
            v = int(values.flat[first])
            raise ClosureError(f"not closed: {name}{tup} = {v} is outside the subset")
        tables[name] = new
    labels = tuple(a.labels[e] for e in elems) if a.labels else None
    return FiniteAlgebra(a.signature, len(elems), tables, labels), index
