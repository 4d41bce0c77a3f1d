import hashlib
import itertools

import pytest

from homfactor.algebra import AlgebraError, FiniteAlgebra, is_homomorphism
from homfactor.varieties import (
    _ABELIAN_POOL,
    ABELIAN_SIGNATURE,
    boolean_atoms,
    boolean_hom,
    gset_orbits,
    make_abelian,
    make_boolean,
    make_gset,
    make_vspace,
    sample_fcore_instances,
    sample_rf_instances,
    validate_abelian,
    validate_boolean,
    validate_gset,
    validate_vspace,
    vspace_hom,
    vspace_signature,
)


def test_abelian_builder_and_validator():
    for orders in ((2,), (4,), (2, 2), (6,), (2, 4), (3, 3)):
        alg = make_abelian(orders)
        assert validate_abelian(alg) == []
    broken = FiniteAlgebra(
        make_abelian([2]).signature, 2, {"add": [0, 1, 1, 1], "neg": [0, 1], "zero": [0]}
    )
    assert validate_abelian(broken)


def test_vspace_builder_and_validator():
    for p, d in ((2, 1), (2, 3), (3, 2)):
        alg = make_vspace(p, d)
        got_p, problems = validate_vspace(alg)
        assert got_p == p and problems == []
    # an abelian group is not a vector space presentation
    assert validate_vspace(make_abelian([4]))[0] == 0


def test_boolean_builder_and_validator():
    for k in (1, 2, 3, 4):
        alg = make_boolean(k)
        assert validate_boolean(alg) == []
        assert len(boolean_atoms(alg)) == k
    broken = FiniteAlgebra(
        make_boolean(1).signature,
        2,
        {"meet": [0, 0, 0, 1], "join": [0, 1, 1, 1], "not": [0, 1], "bot": [0], "top": [1]},
    )
    assert validate_boolean(broken)  # complement fails


def test_gset_builder_and_validator():
    x = make_gset([[0, 1, 2, 3], [1, 0, 3, 2]])
    assert validate_gset(x) == []
    assert gset_orbits(x) == [[0, 1], [2, 3]]
    not_closed = make_gset([[0, 1, 2], [1, 2, 0]])  # 3-cycle without its square
    assert validate_gset(not_closed)
    not_bij = make_gset([[0, 0, 0]])
    assert validate_gset(not_bij)


def test_boolean_hom_from_atom_map():
    x = make_boolean(3)
    z = make_boolean(2)
    atoms = boolean_atoms(x)
    f = boolean_hom(x, z, [atoms[0], atoms[2]])
    assert is_homomorphism(f, x, z)
    assert len(f.image) == z.size


def test_vspace_hom_matrix():
    f, x, z = vspace_hom(2, 3, 2, [[1, 0, 1], [0, 1, 1]])
    assert is_homomorphism(f, x, z)
    assert len(f.image) == 4


def test_every_small_matrix_gives_a_linear_map():
    for p, d_from, d_to in ((2, 2, 2), (3, 2, 1)):
        for entries in itertools.product(range(p), repeat=d_from * d_to):
            matrix = [entries[r * d_from:(r + 1) * d_from] for r in range(d_to)]
            f, x, z = vspace_hom(p, d_from, d_to, matrix)
            assert is_homomorphism(f, x, z), (p, matrix)


def test_abelian_numbering_is_mixed_radix_most_significant_first():
    # element x is the x-th tuple of itertools.product, i.e. mixed radix
    # with the first coordinate most significant
    for orders in _ABELIAN_POOL:
        elems = list(itertools.product(*(range(o) for o in orders)))
        index = {t: x for x, t in enumerate(elems)}
        expected = FiniteAlgebra.from_function(
            ABELIAN_SIGNATURE,
            len(elems),
            {
                "add": lambda x, y: index[
                    tuple((a + b) % o for a, b, o in zip(elems[x], elems[y], orders))
                ],
                "neg": lambda x: index[tuple(-a % o for a, o in zip(elems[x], orders))],
                "zero": lambda: 0,
            },
        )
        assert make_abelian(orders) == expected, orders


def _base_p(x, p, d):
    """Coordinates of x in F_p^d, least significant digit first."""
    return tuple(x // p**i % p for i in range(d))


def test_vspace_numbering_is_base_p_least_significant_first():
    for p, d in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)):
        index = {_base_p(x, p, d): x for x in range(p**d)}

        def scale(k):
            return lambda x: index[tuple(k * a % p for a in _base_p(x, p, d))]

        funcs = {
            "add": lambda x, y: index[
                tuple((a + b) % p for a, b in zip(_base_p(x, p, d), _base_p(y, p, d)))
            ],
            "neg": lambda x: index[tuple(-a % p for a in _base_p(x, p, d))],
            "zero": lambda: 0,
        }
        funcs.update({f"s{k}": scale(k) for k in range(p)})
        expected = FiniteAlgebra.from_function(vspace_signature(p), p**d, funcs)
        assert make_vspace(p, d) == expected, (p, d)


def test_vspace_hom_values():
    # column c of the matrix is the image of the c-th unit vector, p**c
    assert vspace_hom(2, 2, 1, [[1, 0]])[0].values == (0, 1, 0, 1)
    assert vspace_hom(2, 2, 1, [[0, 1]])[0].values == (0, 0, 1, 1)
    assert vspace_hom(2, 1, 3, [[1], [0], [1]])[0].values == (0, 5)
    assert vspace_hom(3, 2, 2, [[1, 2], [0, 1]])[0].values == (0, 1, 2, 5, 3, 4, 7, 8, 6)
    for p, d_from, d_to, matrix in ((2, 3, 2, [[1, 0, 1], [0, 1, 1]]), (3, 2, 1, [[2, 1]])):
        f = vspace_hom(p, d_from, d_to, matrix)[0]
        for x in range(p**d_from):
            coords = _base_p(x, p, d_from)
            image = [sum(m * c for m, c in zip(row, coords)) % p for row in matrix]
            assert _base_p(f(x), p, d_to) == tuple(image)


def test_samplers_are_deterministic_and_valid():
    for variety in ("abelian", "vspace", "boolean", "gset"):
        a = sample_fcore_instances(variety, 4, 16, seed=7)
        b = sample_fcore_instances(variety, 4, 16, seed=7)
        assert [(x.size, z.size, f.values) for x, z, f in a] == [
            (x.size, z.size, f.values) for x, z, f in b
        ]
        for x, z, f in a:
            assert x.size <= 16
            assert is_homomorphism(f, x, z)
            assert len(f.image) == z.size  # surjective


def test_samplers_reject_a_max_size_below_their_smallest_draw():
    for variety, low in (("abelian", 2), ("vspace", 3), ("boolean", 2), ("gset", 1)):
        for max_size in range(low):
            with pytest.raises(AlgebraError, match=f"max size of at least {low}, got {max_size}"):
                sample_fcore_instances(variety, 3, max_size, seed=0)
        assert all(x.size <= low for x, _, _ in sample_fcore_instances(variety, 20, low, seed=0))
    # every bound the gset sampler accepts holds for every draw
    for max_size in range(1, 8):
        for seed in range(50):
            sizes = [x.size for x, _, _ in sample_fcore_instances("gset", 6, max_size, seed=seed)]
            assert max(sizes) <= max_size, (max_size, seed, sizes)


def test_gset_samples_at_sizes_12_and_16_pinned():
    # the bench, criteria 8-9 and the f-core tests sample gset instances at
    # these sizes, so their draws stay fixed
    def tables(alg):
        return [alg.table(name).tolist() for name, _ in alg.signature.ops]

    digests = {}
    for max_size in (12, 16):
        draws = [
            (tables(x), tables(z), f.values)
            for seed in range(200)
            for x, z, f in sample_fcore_instances("gset", 6, max_size, seed=seed)
        ]
        digests[max_size] = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
    assert digests == {12: "ee1a9b81d0cd422f", 16: "57245b1107cedc8a"}


def test_rf_instance_sampler():
    for variety in ("abelian", "vspace", "boolean", "gset"):
        insts = sample_rf_instances(variety, 3, 16, seed=11)
        for inst in insts:
            assert inst.problems() == []
            assert inst.kind == "right-factor"


def _edit(alg, name, pos, value):
    """alg with entry pos of one table set to value."""
    tables = {nm: alg.table(nm).tolist() for nm in alg.signature.names}
    tables[name][pos] = value
    return FiniteAlgebra(alg.signature, alg.size, tables)


def _s3():
    """The symmetric group on 3 points in the abelian signature."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteAlgebra.from_function(ABELIAN_SIGNATURE, 6, {
        "add": lambda a, b: index[tuple(perms[a][perms[b][v]] for v in range(3))],
        "neg": lambda a: index[tuple(sorted(range(3), key=perms[a].__getitem__))],
        "zero": lambda: 0,
    })


def _cyclic_with_scalars(p, n):
    """Z_n with p scalar tables s_k(x) = k*x mod n, a vector space only when n is a power of p."""
    base = make_abelian([n])
    tables = {nm: base.table(nm).tolist() for nm in base.signature.names}
    tables.update({f"s{k}": [k * x % n for x in range(n)] for k in range(p)})
    return FiniteAlgebra(vspace_signature(p), n, tables)


_Z3 = make_abelian([3])
_F2_2, _F3 = make_vspace(2, 2), make_vspace(3, 1)
_B2 = make_boolean(2)

# one broken table or law per case, with the exact report each validator gives
_BROKEN = [
    ("abelian", FiniteAlgebra(ABELIAN_SIGNATURE, 2, {"add": [0, 1, 1], "neg": [0, 1], "zero": [0]}),
     ["table for 'add' has 3 entries, expected 4"]),
    ("abelian", _B2,
     ["unexpected signature ('meet', 'join', 'not', 'bot', 'top') for an abelian group"]),
    ("abelian", _edit(_Z3, "add", 4, 0), ["addition is not associative"]),
    ("abelian", _s3(), ["addition is not commutative"]),
    ("abelian", FiniteAlgebra(ABELIAN_SIGNATURE, 2, {"add": [0, 1, 1, 0], "neg": [1, 0], "zero": [1]}),
     ["zero is not an identity"]),
    ("abelian", _edit(_Z3, "neg", 1, 1), ["negation is not an inverse"]),
    ("vspace", _edit(_F2_2, "s1", 0, 9), (0, ["table for 's1' has entries outside [0, 4)"])),
    ("vspace", make_boolean(1),
     (0, ["unexpected signature ['bot', 'join', 'meet', 'not', 'top'] for a vector space"])),
    ("vspace", make_abelian([4]), (0, ["scalar count 0 is not prime"])),
    ("vspace", _cyclic_with_scalars(4, 4), (0, ["scalar count 4 is not prime"])),
    ("vspace", _edit(_edit(_F2_2, "neg", 1, 2), "s1", 1, 2),
     (2, ["negation is not an inverse", "scalar 1 is not the identity",
          "scalar 1 is not additive"])),
    ("vspace", _edit(_F2_2, "s0", 1, 1),
     (2, ["scalar 0 is not the zero map", "scalar 0 is not additive", "scalars 0,0 do not add",
          "scalars 0,1 do not add", "scalars 1,0 do not add", "scalars 1,1 do not add"])),
    ("vspace", _edit(_edit(_F2_2, "s1", 1, 2), "s1", 2, 1),
     (2, ["scalar 1 is not the identity", "scalars 1,1 do not compose",
          "negation disagrees with scalar p-1"])),
    ("vspace", _edit(_F3, "neg", 1, 1),
     (3, ["negation is not an inverse", "negation disagrees with scalar p-1"])),
    ("vspace", _cyclic_with_scalars(2, 3),
     (2, ["scalars 1,1 do not add", "negation disagrees with scalar p-1",
          "carrier size 3 is not a power of 2"])),
    ("boolean", _edit(_B2, "bot", 0, 4), ["table for 'bot' has entries outside [0, 4)"]),
    ("boolean", _Z3, ["unexpected signature ('add', 'neg', 'zero') for a Boolean algebra"]),
    ("boolean", _edit(_B2, "join", 1, 0),
     ["join not commutative", "join not associative", "meet does not distribute over join"]),
    ("boolean", _edit(_B2, "not", 3, 3), ["complement misses bottom"]),
    ("boolean", _edit(_B2, "not", 0, 0), ["complement misses top"]),
    ("gset", FiniteAlgebra([("g0", 1)], 2, {"g0": [0, 2]}),
     ["table for 'g0' has entries outside [0, 2)"]),
    ("gset", _Z3, ["signature is not all-unary"]),
    ("gset", FiniteAlgebra([], 2, {}), ["signature is not all-unary"]),
    ("gset", make_gset([[0, 1, 2], [0, 0, 1]]), ["operation g1 is not a bijection"]),
    ("gset", make_gset([[1, 0]]),
     ["no identity operation", "operations are not closed under composition"]),
]

_VALIDATORS = {"abelian": validate_abelian, "vspace": validate_vspace,
               "boolean": validate_boolean, "gset": validate_gset}


@pytest.mark.parametrize("variety,alg,report", _BROKEN)
def test_validator_reports_are_pinned(variety, alg, report):
    assert _VALIDATORS[variety](alg) == report
