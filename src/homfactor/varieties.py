"""Builders and validators for the structured families the specialized core
constructions apply to: permutation-action algebras, finite vector spaces,
Boolean algebras, and abelian groups.

Membership is always validated from the tables themselves; nothing is
trusted from a manifest. Samplers are deterministic given a seed.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    Signature,
    is_homomorphism,
    validate_algebra,
)
from .solver import FactorizationInstance, enumerate_homomorphisms

__all__ = [
    "ABELIAN_SIGNATURE",
    "BOOLEAN_SIGNATURE",
    "vspace_signature",
    "gset_signature",
    "make_abelian",
    "make_vspace",
    "make_boolean",
    "make_gset",
    "validate_abelian",
    "validate_vspace",
    "validate_boolean",
    "validate_gset",
    "gset_orbits",
    "boolean_atoms",
    "boolean_hom",
    "vspace_hom",
    "sample_fcore_instances",
    "sample_rf_instances",
]

ABELIAN_SIGNATURE = Signature((("add", 2), ("neg", 1), ("zero", 0)))
BOOLEAN_SIGNATURE = Signature(
    (("meet", 2), ("join", 2), ("not", 1), ("bot", 0), ("top", 0))
)


def vspace_signature(p: int) -> Signature:
    ops = [("add", 2), ("neg", 1), ("zero", 0)]
    ops += [(f"s{k}", 1) for k in range(p)]
    return Signature(tuple(ops))


def gset_signature(m: int) -> Signature:
    return Signature(tuple((f"g{k}", 1) for k in range(m)))


def _digits(shape) -> np.ndarray:
    """Digits of every element of a product of cyclic factors, one column each.

    Returns an int array of shape (len(shape), size): column x holds the
    digits of element x in mixed radix over ``shape``, most significant
    digit first; ``np.ravel_multi_index(digits, shape)`` encodes back.
    Abelian groups (``make_abelian``) number their elements this way, so
    row i is the coordinate in the i-th cyclic factor. Vector spaces
    (``make_vspace``, ``vspace_hom``) number F_p^d in base p with the
    *least* significant digit first: coordinate i of element x is row
    d-1-i of ``_digits((p,) * d)``.
    """
    return np.indices(shape).reshape(len(shape), math.prod(shape))


def make_abelian(orders) -> FiniteAlgebra:
    """Direct product of cyclic groups, elements numbered as in ``_digits``."""
    orders = tuple(int(o) for o in orders)
    digits = _digits(orders)
    mod = np.array(orders)[:, None]
    add = (digits[:, :, None] + digits[:, None, :]) % mod[:, :, None]
    tables = {
        "add": np.ravel_multi_index(tuple(add), orders),
        "neg": np.ravel_multi_index(tuple(-digits % mod), orders),
        "zero": [0],
    }
    return FiniteAlgebra(ABELIAN_SIGNATURE, digits.shape[1], tables)


def make_vspace(p: int, d: int) -> FiniteAlgebra:
    """F_p^d with one scalar operation per field element, numbered as in ``_digits``.

    Every operation acts digit by digit, so the abelian tables of (p,)*d are
    the vector-space tables whichever digit is taken as least significant.
    """
    shape = (p,) * d
    base = make_abelian(shape)
    digits = _digits(shape)
    tables = dict(base.tables)
    for k in range(p):
        tables[f"s{k}"] = np.ravel_multi_index(tuple(k * digits % p), shape)
    return FiniteAlgebra(vspace_signature(p), base.size, tables)


def make_boolean(k: int) -> FiniteAlgebra:
    """Powerset of k atoms as bitmasks."""
    size = 1 << k
    full = size - 1
    return FiniteAlgebra.from_function(
        BOOLEAN_SIGNATURE,
        size,
        {
            "meet": lambda x, y: x & y,
            "join": lambda x, y: x | y,
            "not": lambda x: full ^ x,
            "bot": lambda: 0,
            "top": lambda: full,
        },
    )


def make_gset(action_tables) -> FiniteAlgebra:
    """Algebra with one unary operation per listed permutation table."""
    if not action_tables:
        raise AlgebraError("need at least one action table")
    n = len(action_tables[0])
    sig = gset_signature(len(action_tables))
    tables = {f"g{k}": list(t) for k, t in enumerate(action_tables)}
    return FiniteAlgebra(sig, n, tables)


def validate_abelian(alg: FiniteAlgebra) -> list[str]:
    return validate_algebra(alg) or _abelian_laws(alg)


def validate_vspace(alg: FiniteAlgebra) -> tuple[int, list[str]]:
    """Returns (p, problems); p is 0 when the signature is not scalar-shaped."""
    problems = validate_algebra(alg)
    return (0, problems) if problems else _vspace_laws(alg)


def validate_boolean(alg: FiniteAlgebra) -> list[str]:
    return validate_algebra(alg) or _boolean_laws(alg)


def validate_gset(alg: FiniteAlgebra) -> list[str]:
    """A group action presented through its operation tables.

    Checks: every operation is a unary bijection, some operation is the
    identity, and the set of table functions is closed under composition.
    Any abstract group acting on the carrier acts through exactly this
    permutation group, so orbits and equivariance are fully determined.
    """
    return validate_algebra(alg) or _gset_laws(alg)


# The laws checks below test a variety's signature and equations on an
# algebra that validate_algebra already accepts.


def _abelian_laws(alg: FiniteAlgebra) -> list[str]:
    names = alg.signature.names
    if set(names) != {"add", "neg", "zero"}:
        return [f"unexpected signature {names} for an abelian group"]
    return _group_laws(alg)


def _group_laws(alg: FiniteAlgebra) -> list[str]:
    add = alg.nd("add")
    neg = alg.nd("neg")
    zero = int(alg.table("zero")[0])
    n = alg.size
    checks = [
        (np.array_equal(add[add], add[:, add]), "addition is not associative"),
        (np.array_equal(add, add.T), "addition is not commutative"),
        (np.array_equal(add[zero], np.arange(n)), "zero is not an identity"),
        (np.array_equal(add[np.arange(n), neg], np.full(n, zero)), "negation is not an inverse"),
    ]
    return [msg for ok, msg in checks if not ok]


def _vspace_laws(alg: FiniteAlgebra) -> tuple[int, list[str]]:
    names = set(alg.signature.names)
    scalars = sorted(
        int(nm[1:]) for nm in names if nm.startswith("s") and nm[1:].isdigit()
    )
    p = len(scalars)
    if scalars != list(range(p)) or names != {"add", "neg", "zero"} | {f"s{k}" for k in range(p)}:
        return 0, [f"unexpected signature {sorted(names)} for a vector space"]
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        return 0, [f"scalar count {p} is not prime"]
    problems = _group_laws(alg)
    add = alg.nd("add")
    zero = int(alg.table("zero")[0])
    n = alg.size
    s = [alg.nd(f"s{k}") for k in range(p)]
    if not np.array_equal(s[1], np.arange(n)):
        problems.append("scalar 1 is not the identity")
    if not np.array_equal(s[0], np.full(n, zero)):
        problems.append("scalar 0 is not the zero map")
    for a in range(p):
        if not np.array_equal(s[a][add], add[np.ix_(s[a], s[a])]):
            problems.append(f"scalar {a} is not additive")
        for b in range(p):
            if not np.array_equal(s[a][s[b]], s[(a * b) % p]):
                problems.append(f"scalars {a},{b} do not compose")
            if not np.array_equal(add[s[a], s[b]], s[(a + b) % p]):
                problems.append(f"scalars {a},{b} do not add")
    if not np.array_equal(alg.nd("neg"), s[p - 1]):
        problems.append("negation disagrees with scalar p-1")
    size = alg.size
    while size > 1 and size % p == 0:
        size //= p
    if size != 1:
        problems.append(f"carrier size {alg.size} is not a power of {p}")
    return p, problems


def _boolean_laws(alg: FiniteAlgebra) -> list[str]:
    if set(alg.signature.names) != {"meet", "join", "not", "bot", "top"}:
        return [f"unexpected signature {alg.signature.names} for a Boolean algebra"]
    n = alg.size
    meet = alg.nd("meet")
    join = alg.nd("join")
    comp = alg.nd("not")
    bot = int(alg.table("bot")[0])
    top = int(alg.table("top")[0])
    ar = np.arange(n)
    rows = ar[:, None]
    grid = np.broadcast_to(rows, (n, n))
    checks = [
        (np.array_equal(meet, meet.T), "meet not commutative"),
        (np.array_equal(join, join.T), "join not commutative"),
        (np.array_equal(meet[meet], meet[:, meet]), "meet not associative"),
        (np.array_equal(join[join], join[:, join]), "join not associative"),
        (np.array_equal(meet[rows, join], grid), "absorption (meet over join) fails"),
        (np.array_equal(join[rows, meet], grid), "absorption (join over meet) fails"),
        (np.array_equal(meet[ar, comp], np.full(n, bot)), "complement misses bottom"),
        (np.array_equal(join[ar, comp], np.full(n, top)), "complement misses top"),
        (
            np.array_equal(meet[:, join], join[meet[:, :, None], meet[:, None, :]]),
            "meet does not distribute over join",
        ),
    ]
    return [msg for ok, msg in checks if not ok]


def _gset_laws(alg: FiniteAlgebra) -> list[str]:
    if not alg.signature.ops or any(a != 1 for _, a in alg.signature.ops):
        return ["signature is not all-unary"]
    n = alg.size
    funcs = [tuple(alg.table(name).tolist()) for name, _ in alg.signature.ops]
    problems = [
        f"operation {name} is not a bijection"
        for (name, _), t in zip(alg.signature.ops, funcs)
        if len(set(t)) != n
    ]
    if problems:
        return problems
    fset = set(funcs)
    if tuple(range(n)) not in fset:
        problems.append("no identity operation")
    if any(tuple(t1[v] for v in t2) not in fset for t1 in fset for t2 in fset):
        problems.append("operations are not closed under composition")
    return problems


def gset_orbits(alg: FiniteAlgebra) -> list[list[int]]:
    """Orbits of the action, each sorted, ordered by least element."""
    n = alg.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for name, _ in alg.signature.ops:
        t = alg.table(name)
        for x in range(n):
            rx, ry = find(x), find(int(t[x]))
            if rx != ry:
                parent[ry] = rx
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values(), key=min)


def boolean_atoms(alg: FiniteAlgebra) -> list[int]:
    """Minimal nonzero elements under x <= y iff x∧y = x."""
    meet = alg.nd("meet")
    bot = int(alg.table("bot")[0])
    below = [
        [y for y in range(alg.size) if y not in (bot, x) and meet[y, x] == y]
        for x in range(alg.size)
    ]
    return [x for x in range(alg.size) if x != bot and not below[x]]


def _inverse_image(x: FiniteAlgebra, z: FiniteAlgebra, pairs) -> list[int]:
    """The map X -> Z sending e to the join of the atoms beta of Z whose
    (alpha, beta) pair, one per atom of Z, has alpha below e."""
    meet_x = x.nd("meet")
    join_z = z.nd("join")
    values = []
    for e in range(x.size):
        acc = int(z.table("bot")[0])
        for alpha, beta in pairs:
            if meet_x[alpha, e] == alpha:
                acc = int(join_z[acc, beta])
        values.append(acc)
    return values


def boolean_hom(x: FiniteAlgebra, z: FiniteAlgebra, atom_to_atom) -> Mapping:
    """Hom 2^S -> 2^T from a function atoms(Z) -> atoms(X), by preimage."""
    pairs = [(atom_to_atom[i], beta) for i, beta in enumerate(boolean_atoms(z))]
    m = Mapping(x.size, z.size, _inverse_image(x, z, pairs))
    if not is_homomorphism(m, x, z):
        raise AlgebraError("atom map does not induce a homomorphism")
    return m


def vspace_hom(p: int, d_from: int, d_to: int, matrix) -> tuple[Mapping, FiniteAlgebra, FiniteAlgebra]:
    """Linear map F_p^d_from -> F_p^d_to given by a d_to x d_from matrix."""
    x = make_vspace(p, d_from)
    z = make_vspace(p, d_to)
    coords = _digits((p,) * d_from)[::-1]  # coordinate c is row c
    image = np.asarray(matrix, dtype=np.int64).reshape(d_to, d_from) @ coords % p
    # broadcast: into F_p^0 every element ravels to the one scalar 0
    values = np.broadcast_to(np.ravel_multi_index(tuple(image[::-1]), (p,) * d_to), x.size)
    return Mapping(x.size, z.size, values), x, z


def _cyclic_action_tables(m: int, orbit_sizes) -> list[list[int]]:
    """Z_m acting on disjoint orbits whose sizes divide m; op k rotates by k."""
    starts = []
    total = 0
    for d in orbit_sizes:
        if m % d:
            raise AlgebraError(f"orbit size {d} does not divide {m}")
        starts.append(total)
        total += d
    tables = []
    for k in range(m):
        t = [0] * total
        for start, d in zip(starts, orbit_sizes):
            for i in range(d):
                t[start + i] = start + (i + k) % d
        tables.append(t)
    return tables


def _sample_gset(rng: random.Random, max_size: int):
    """A surjective equivariant map between two actions of one cyclic group."""
    while True:  # redrawn until X's cover of every target orbit fits max_size
        m = rng.choice([2, 2, 3, 4])
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        z_sizes = [rng.choice(divisors) for _ in range(rng.randint(1, 2))]
        x_sizes = [rng.choice([d for d in divisors if d % dz == 0]) for dz in z_sizes]
        if sum(x_sizes) <= max_size:
            break
    targets = list(range(len(z_sizes)))
    while sum(x_sizes) < max_size and rng.random() < 0.6:
        j = rng.randrange(len(z_sizes))
        dz = z_sizes[j]
        mult = rng.choice([d for d in divisors if d % dz == 0])
        if sum(x_sizes) + mult > max_size:
            break
        x_sizes.append(mult)
        targets.append(j)
    x = make_gset(_cyclic_action_tables(m, x_sizes))
    z = make_gset(_cyclic_action_tables(m, z_sizes))
    z_starts = []
    acc = 0
    for d in z_sizes:
        z_starts.append(acc)
        acc += d
    values = []
    for dx, j in zip(x_sizes, targets):
        dz = z_sizes[j]
        off = rng.randrange(dz)
        for i in range(dx):
            values.append(z_starts[j] + (i + off) % dz)
    return x, z, Mapping(x.size, z.size, values)


_ABELIAN_POOL = [
    (2,), (3,), (4,), (2, 2), (5,), (6,), (8,), (2, 4), (9,), (2, 2, 2),
    (12,), (2, 6), (16,), (4, 4), (2, 8), (3, 3),
]


def _sample_abelian(rng: random.Random, max_size: int):
    while True:
        orders = rng.choice([o for o in _ABELIAN_POOL if np.prod(o) <= max_size])
        x = make_abelian(orders)
        quotients = [rng.choice([d for d in range(1, o + 1) if o % d == 0]) for o in orders]
        keep = [i for i, q in enumerate(quotients) if q > 1]
        if not keep:
            continue
        z_orders = [quotients[i] for i in keep]
        z = make_abelian(z_orders)

        digits = _digits(orders)[keep] % np.array(z_orders)[:, None]
        values = np.ravel_multi_index(tuple(digits), z_orders).tolist()
        return x, z, Mapping(x.size, z.size, values)


def _sample_vspace(rng: random.Random, max_size: int):
    p = rng.choice([2, 2, 3])
    d = rng.randint(1, 4 if p == 2 else 2)
    while p**d > max_size:
        d -= 1
    e = rng.randint(1, d)
    while True:
        matrix = [[rng.randrange(p) for _ in range(d)] for _ in range(e)]
        f, x, z = vspace_hom(p, d, e, matrix)
        if len(f.image) == z.size:
            return x, z, f


def _sample_boolean(rng: random.Random, max_size: int):
    k = rng.randint(1, 4)
    while (1 << k) > max_size:
        k -= 1
    j = rng.randint(1, k)
    x = make_boolean(k)
    z = make_boolean(j)
    injection = rng.sample(range(k), j)
    atom_to_atom = [boolean_atoms(x)[i] for i in injection]
    return x, z, boolean_hom(x, z, atom_to_atom)


_SAMPLERS = {
    "abelian": _sample_abelian,
    "vspace": _sample_vspace,
    "boolean": _sample_boolean,
    "gset": _sample_gset,
}


# the least max_size at which every draw of the sampler fits: the vector
# space sampler may draw p = 3
_MIN_SIZE = {"abelian": 2, "vspace": 3, "boolean": 2, "gset": 1}


def sample_fcore_instances(variety: str, count: int, max_size: int, seed: int):
    """Deterministic (X, Z, f) triples with f a surjective homomorphism."""
    low = _MIN_SIZE[variety]
    if max_size < low:
        raise AlgebraError(f"{variety} samples need a max size of at least {low}, got {max_size}")
    rng = random.Random(seed)
    sampler = _SAMPLERS[variety]
    return [sampler(rng, max_size) for _ in range(count)]


def _hom_into(rng: random.Random, variety: str, z: FiniteAlgebra, max_size: int):
    """Some algebra Y with a homomorphism h: Y -> Z, not always surjective."""
    for _ in range(50):
        y, z2, h = _SAMPLERS[variety](rng, max_size)
        if y.signature != z.signature:
            continue
        if z2 == z:
            return y, h
        homs = enumerate_homomorphisms(y, z, limit=50)
        if homs:
            return y, rng.choice(homs)
    return None


def sample_rf_instances(variety: str, count: int, max_size: int, seed: int):
    """Deterministic right-factor instances within one variety."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x, z, f = _SAMPLERS[variety](rng, max_size)
        picked = None
        for _ in range(20):
            picked = _hom_into(rng, variety, z, max_size)
            if picked is not None:
                break
        if picked is None:
            continue
        y, h = picked
        out.append(FactorizationInstance("right-factor", x, y, z, f=f, h=h))
    return out
