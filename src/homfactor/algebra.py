"""Finite algebras as dense operation tables over carriers {0..n-1}.

Tables are flat integer sequences in row-major order: the table of a k-ary
operation has n**k entries, indexed lexicographically by argument tuple.
Nullary operations are 1-entry tables. All values are immutable after
construction and safe to share across workers.

The checks that read tables run in C (_native.c): is_homomorphism,
validate_algebra's value test and induced_subalgebra's restriction. As the
solver's do, they read a table only after checking its length and every
value, so a malformed table raises AlgebraError naming it, never a wrong
answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _native

__all__ = [
    "AlgebraError",
    "SignatureMismatch",
    "SizeMismatch",
    "ClosureError",
    "Signature",
    "FiniteAlgebra",
    "Mapping",
    "PropertyReport",
    "validate_algebra",
    "is_homomorphism",
    "compose",
    "is_retraction_respecting",
    "induced_subalgebra",
    "check_properties",
]

# table entries of one algebra: lift_nary and make_semilattice_X build no
# more, and every solver and f-core entry point takes no more
_MAX_TABLE_ENTRIES = 1 << 20
# arity of an operation: the C table reader's bound, past which n**k
# overflows int64 at every n > 1
_MAX_ARITY = 62


class AlgebraError(ValueError):
    """Malformed or mismatched algebraic data."""


class SignatureMismatch(AlgebraError):
    pass


class SizeMismatch(AlgebraError):
    pass


class ClosureError(AlgebraError):
    """A subset is not closed under some operation."""


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) pairs shared by all algebras in a problem."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple((str(n), int(a)) for n, a in self.ops))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.ops)

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise AlgebraError(f"unknown operation {name!r}")


class FiniteAlgebra:
    """Operation tables over the carrier {0..n-1}.

    Equality is structural: same signature, size and tables. Labels are a
    presentation layer only and do not participate in equality. Construction
    does not validate; use :func:`validate_algebra` to get a report, so that
    deliberately broken tables can be represented and diagnosed.
    """

    __slots__ = ("signature", "size", "tables", "labels")

    def __init__(self, signature, size, tables, labels=None):
        if not isinstance(signature, Signature):
            signature = Signature(tuple(signature))
        self.signature = signature
        self.size = int(size)
        norm = {}
        for name, flat in tables.items():
            arr = np.array(flat, dtype=np.int64).reshape(-1)
            arr.setflags(write=False)
            norm[name] = arr
        self.tables = norm
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def from_function(cls, signature, size, funcs, labels=None):
        """Build dense tables from callables, one per operation name."""
        if not isinstance(signature, Signature):
            signature = Signature(tuple(signature))
        tables = {}
        for name, arity in signature.ops:
            fn = funcs[name]
            tables[name] = [fn(*t) for t in itertools.product(range(size), repeat=arity)]
        return cls(signature, size, tables, labels)

    def table(self, name: str) -> np.ndarray:
        return self.tables[name]

    def nd(self, name: str) -> np.ndarray:
        """Table reshaped to (n,)*arity; only meaningful on validated algebras."""
        return self.tables[name].reshape((self.size,) * self.signature.arity(name))

    def apply(self, name: str, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return int(self.tables[name][idx])

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return self is other or (
            self.signature == other.signature
            and self.size == other.size
            and self.tables.keys() == other.tables.keys()
            and all(np.array_equal(self.tables[k], other.tables[k]) for k in self.tables)
        )

    def __hash__(self):
        return hash(
            (self.signature, self.size, tuple(self.tables[k].tobytes() for k in sorted(self.tables)))
        )

    def __repr__(self):
        ops = ", ".join(f"{n}/{a}" for n, a in self.signature.ops)
        return f"FiniteAlgebra(size={self.size}, ops=[{ops}])"


@dataclass(frozen=True)
class Mapping:
    """Total function between two carriers; the unit of all homomorphism reasoning."""

    dom_size: int
    cod_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        # tuple() of a list allocates the tuple at its final size; of a
        # generator it grows one and frees it into CPython's cache for that
        # size, which keeps up to 2,000 tuples per size between full garbage
        # collections (a few MB of peak memory in a long run)
        object.__setattr__(self, "values", tuple([int(v) for v in self.values]))
        if self.dom_size < 1 or self.cod_size < 1:
            raise AlgebraError("mapping carrier sizes must be positive")
        if len(self.values) != self.dom_size:
            raise AlgebraError(
                f"mapping has {len(self.values)} values, expected {self.dom_size}"
            )
        if any(v < 0 or v >= self.cod_size for v in self.values):
            raise AlgebraError("mapping value out of range")

    def __call__(self, x: int) -> int:
        return self.values[x]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    @staticmethod
    def identity(n: int) -> "Mapping":
        return Mapping(n, n, tuple(range(n)))

    @staticmethod
    def constant(dom_size: int, cod_size: int, value: int) -> "Mapping":
        return Mapping(dom_size, cod_size, (value,) * dom_size)


def validate_algebra(alg: FiniteAlgebra) -> list[str]:
    """Report every violated invariant; an empty report means well-formed."""
    problems = []
    seen = set()
    for name, arity in alg.signature.ops:
        if name in seen:
            problems.append(f"duplicate operation name {name!r}")
        seen.add(name)
        if arity < 0:
            problems.append(f"operation {name!r} has negative arity")
        elif arity > _MAX_ARITY:
            problems.append(f"operation {name!r} has arity {arity}, more than {_MAX_ARITY}")
    if alg.size < 1:
        problems.append(f"carrier size {alg.size} is not positive")
        return problems
    for name, arity in alg.signature.ops:
        if name not in alg.tables:
            problems.append(f"missing table for operation {name!r}")
            continue
        t = alg.tables[name]
        expected = alg.size**arity
        if t.size != expected:
            problems.append(
                f"table for {name!r} has {t.size} entries, expected {expected}"
            )
        if _native.outside(t, alg.size):
            problems.append(f"table for {name!r} has entries outside [0, {alg.size})")
    names = alg.signature.names
    for name in alg.tables:
        if name not in names:
            problems.append(f"table for {name!r} not in signature")
    if alg.labels is not None:
        if len(alg.labels) != alg.size:
            problems.append(f"{len(alg.labels)} labels for {alg.size} elements")
        if len(set(alg.labels)) != len(alg.labels):
            problems.append("labels are not pairwise distinct")
    return problems


def _refused(err: ValueError, *algs: FiniteAlgebra) -> AlgebraError:
    """The error for tables that a C check refused with err: what
    validate_algebra reports on algs, or else err's own message."""
    problems = dict.fromkeys(p for alg in algs for p in validate_algebra(alg))
    return AlgebraError("; ".join(problems) or str(err))


def _require_signatures(a: FiniteAlgebra, b: FiniteAlgebra):
    if a.signature != b.signature:
        raise SignatureMismatch(
            f"signatures differ: {a.signature.ops} vs {b.signature.ops}"
        )


def is_homomorphism(m: Mapping, a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """True iff m(op_A(x...)) == op_B(m(x)...) for every operation and tuple."""
    _require_signatures(a, b)
    if m.dom_size != a.size or m.cod_size != b.size:
        raise SizeMismatch(
            f"mapping is {m.dom_size}->{m.cod_size}, algebras are {a.size}, {b.size}"
        )
    ops = [(arity, a.tables[name], b.tables[name]) for name, arity in a.signature.ops]
    try:
        return _native.hom(m.values, b.size, ops)
    except ValueError as err:
        raise _refused(err, a, b) from err


def compose(outer: Mapping, inner: Mapping) -> Mapping:
    """Apply inner first, then outer."""
    if inner.cod_size != outer.dom_size:
        raise SizeMismatch(
            f"cannot compose {outer.dom_size}->{outer.cod_size} after "
            f"{inner.dom_size}->{inner.cod_size}"
        )
    return Mapping(
        inner.dom_size, outer.cod_size, [outer.values[v] for v in inner.values]
    )


def is_retraction_respecting(r: Mapping, x: FiniteAlgebra, f: Mapping) -> bool:
    """True iff r is an idempotent endomorphism of x with f∘r = f."""
    if r.dom_size != x.size or r.cod_size != x.size:
        raise SizeMismatch(f"retraction is {r.dom_size}->{r.cod_size} on algebra of size {x.size}")
    if f.dom_size != x.size:
        raise SizeMismatch(f"f has domain {f.dom_size}, algebra has size {x.size}")
    if not is_homomorphism(r, x, x):
        return False
    rv, fv = r.values, f.values
    return all(rv[w] == w and fv[w] == fv[v] for v, w in enumerate(rv))


def induced_subalgebra(a: FiniteAlgebra, subset) -> tuple[FiniteAlgebra, dict[int, int]]:
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
    ops = a.signature.ops
    try:
        out = _native.restrict(a.size, elems, [(arity, a.tables[name]) for name, arity in ops])
    except ValueError as err:
        raise _refused(err, a) from err
    if isinstance(out, tuple):  # the first violating operation and tuple
        name, arity = ops[out[0]]
        tup = tuple(elems[i] for i in np.unravel_index(out[1], (len(elems),) * arity))
        v = a.apply(name, *tup)
        raise ClosureError(f"not closed: {name}{tup} = {v} is outside the subset")
    tables = {name: np.frombuffer(t, dtype=np.int64) for (name, _), t in zip(ops, out)}
    labels = tuple(a.labels[e] for e in elems) if a.labels else None
    return FiniteAlgebra(a.signature, len(elems), tables, labels), index


@dataclass(frozen=True)
class PropertyReport:
    associative: bool
    commutative: bool
    idempotent: bool
    meet_semilattice: bool


def check_properties(a: FiniteAlgebra, name: str) -> PropertyReport:
    """Exhaustive equational flags for one binary operation."""
    if a.signature.arity(name) != 2:
        raise AlgebraError(f"operation {name!r} is not binary")
    t = a.nd(name)
    associative = bool(np.array_equal(t[t], t[:, t]))
    commutative = bool(np.array_equal(t, t.T))
    idempotent = bool(np.array_equal(np.diagonal(t), np.arange(a.size)))
    return PropertyReport(
        associative=associative,
        commutative=commutative,
        idempotent=idempotent,
        meet_semilattice=associative and commutative and idempotent,
    )
