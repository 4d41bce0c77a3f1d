import itertools
import random
import re

import pytest

from homfactor.algebra import (
    AlgebraError,
    ClosureError,
    FiniteAlgebra,
    Mapping,
    Signature,
    SignatureMismatch,
    SizeMismatch,
    check_properties,
    compose,
    induced_subalgebra,
    is_homomorphism,
    is_retraction_respecting,
    validate_algebra,
)
from homfactor.encodings import encode_semigroup, lift_nary, make_semilattice_X
from homfactor.graphs import cycle_graph, path_graph
from homfactor.varieties import make_abelian


def test_validate_target_semigroup_clean(gadgets):
    assert validate_algebra(gadgets.target_semigroup) == []
    assert gadgets.target_semigroup.size == 5
    assert gadgets.target_semigroup.table("mul").size == 25


def test_validate_reports_range_violation():
    bad = FiniteAlgebra(Signature((("mul", 2),)), 2, {"mul": [0, 1, 1, 2]})
    report = validate_algebra(bad)
    assert any("outside" in p for p in report)


def test_validate_reports_missing_entries():
    bad = FiniteAlgebra(Signature((("mul", 2),)), 2, {"mul": [0, 1, 1]})
    report = validate_algebra(bad)
    assert any("expected 4" in p for p in report)
    empty = FiniteAlgebra(Signature((("mul", 2),)), 2, {})
    assert any("missing table" in p for p in validate_algebra(empty))


def test_validate_labels():
    alg = FiniteAlgebra(Signature((("f", 1),)), 2, {"f": [0, 1]}, labels=("x", "x"))
    assert any("distinct" in p for p in validate_algebra(alg))
    alg = FiniteAlgebra(Signature((("f", 1),)), 2, {"f": [0, 1]}, labels=("x",))
    assert validate_algebra(alg) == ["1 labels for 2 elements"]


def test_validate_reports_signature_faults():
    dup = FiniteAlgebra(Signature((("f", 1), ("f", 1))), 2, {"f": [0, 1]})
    assert validate_algebra(dup) == ["duplicate operation name 'f'"]
    neg = FiniteAlgebra(Signature((("f", -1),)), 2, {"f": [0]})
    assert "operation 'f' has negative arity" in validate_algebra(neg)
    # a carrier that is not positive is reported alone: no table can fit it
    empty = FiniteAlgebra(Signature((("f", 1),)), 0, {})
    assert validate_algebra(empty) == ["carrier size 0 is not positive"]
    extra = FiniteAlgebra(Signature((("f", 1),)), 2, {"f": [0, 1], "g": [1, 0]})
    assert validate_algebra(extra) == ["table for 'g' not in signature"]


def test_identity_is_homomorphism(gadgets):
    z = gadgets.target_semigroup
    assert is_homomorphism(Mapping.identity(5), z, z)


def test_constant_to_zero_is_homomorphism(gadgets):
    xg, _ = encode_semigroup(cycle_graph(4))
    z = gadgets.target_semigroup
    # element 0 of the target is the absorbing idempotent
    assert is_homomorphism(Mapping.constant(xg.size, 5, 0), xg, z) is False or True
    const = Mapping.constant(5, 5, 0)
    assert is_homomorphism(const, z, z)


def test_swap_breaks_homomorphism(gadgets):
    # swapping a and b on the five-element target: a·a = c but b·b = b2
    z = gadgets.target_semigroup
    swap = Mapping(5, 5, (0, 2, 1, 3, 4))
    assert not is_homomorphism(swap, z, z)


def _is_hom_reference(m, a, b):
    """is_homomorphism as a plain loop over every operation and tuple."""
    v = m.values
    return all(
        v[a.apply(name, *xs)] == b.apply(name, *(v[x] for x in xs))
        for name, arity in a.signature.ops
        for xs in itertools.product(range(a.size), repeat=arity)
    )


def test_is_homomorphism_matches_a_plain_loop():
    rng = random.Random(19)
    pairs = []
    # one operation of each arity 0..3 on small random tables, where a
    # random map is often a homomorphism
    for arity in range(4):
        for n, k in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2)):
            sig = [("op", arity)]
            a, b = (FiniteAlgebra(sig, size, {"op": [rng.randrange(size) for _ in range(size**arity)]})
                    for size in (n, k))
            pairs += [(a, b), (a, a)]
    # ternary lifts of semigroup encodings, with the identity among the maps
    s, t = (lift_nary(encode_semigroup(g)[0], 3) for g in (cycle_graph(3), path_graph(2)))
    pairs += [(s, t), (s, s), (t, s)]
    answers = set()
    for a, b in pairs:
        maps = [Mapping(a.size, b.size, [rng.randrange(b.size) for _ in range(a.size)])
                for _ in range(20)]
        maps += [Mapping.constant(a.size, b.size, c) for c in range(b.size)]
        if a.size == b.size:
            maps.append(Mapping.identity(a.size))
        for m in maps:
            answer = is_homomorphism(m, a, b)
            assert answer == _is_hom_reference(m, a, b), (a.signature.ops, a.size, b.size, m)
            answers.add((a.signature.ops[0][1], answer))
    assert answers == {(k, ok) for k in range(4) for ok in (False, True)}


def test_homomorphism_signature_and_size_errors(gadgets):
    z = gadgets.target_semigroup
    flat = gadgets.flat_semilattice
    with pytest.raises(SignatureMismatch):
        is_homomorphism(Mapping(5, 4, (0,) * 5), z, flat)
    with pytest.raises(SizeMismatch):
        is_homomorphism(Mapping(4, 5, (0,) * 4), z, z)


def test_compose_identity_and_constant():
    f = Mapping(3, 4, (1, 2, 3))
    assert compose(Mapping.identity(4), f) == f
    assert compose(f, Mapping.identity(3)) == f
    const = Mapping.constant(4, 2, 1)
    assert compose(const, f) == Mapping.constant(3, 2, 1)
    with pytest.raises(SizeMismatch):
        compose(f, f)


def test_retraction_identity_always_respects(gadgets):
    z = gadgets.target_semigroup
    assert is_retraction_respecting(Mapping.identity(5), z, Mapping.constant(5, 2, 0))


def test_retraction_requires_idempotence():
    z4 = make_abelian([4])
    shift = Mapping(4, 4, (1, 2, 3, 0))  # not idempotent (not even an endo hom)
    assert not is_retraction_respecting(shift, z4, Mapping.identity(4))
    neg = Mapping(4, 4, (0, 3, 2, 1))  # endomorphism, but neg∘neg = id != neg
    assert not is_retraction_respecting(neg, z4, Mapping.constant(4, 1, 0))


def test_retraction_on_klein_projection():
    v = make_abelian([2, 2])  # elements 2*x0 + x1
    f = Mapping(4, 2, (0, 0, 1, 1))  # first coordinate
    collapse = Mapping(4, 4, (0, 0, 2, 2))  # kill second coordinate
    assert is_retraction_respecting(collapse, v, f)
    other = Mapping(4, 4, (0, 1, 0, 1))  # kills the first coordinate: f∘r != f
    assert not is_retraction_respecting(other, v, f)


def test_induced_subalgebra_full_carrier(gadgets):
    z = gadgets.target_semigroup
    sub, index = induced_subalgebra(z, range(5))
    assert sub == z
    assert index == {i: i for i in range(5)}


def test_induced_subalgebra_closure_error(gadgets):
    # {a} in the five-element target: a·a = c lies outside
    with pytest.raises(ClosureError) as err:
        induced_subalgebra(gadgets.target_semigroup, {1})
    assert "mul(1, 1) = 4" in str(err.value)
    # {b, b2}: b·b = b2 stays inside; b·b2, b2·b and b2·b2 = 0 leave it, and
    # the first of them in lexicographic order is named
    with pytest.raises(ClosureError, match=re.escape("not closed: mul(2, 3) = 0 is outside")):
        induced_subalgebra(gadgets.target_semigroup, {2, 3})


def test_induced_subalgebra_retraction_image():
    v = make_abelian([2, 2])
    collapse = Mapping(4, 4, (0, 0, 2, 2))
    image = sorted(set(collapse.values))
    sub, index = induced_subalgebra(v, image)
    assert sub.size == 2
    assert validate_algebra(sub) == []
    assert index == {0: 0, 2: 1}


def test_check_properties_target_semigroup(gadgets):
    rep = check_properties(gadgets.target_semigroup, "mul")
    assert rep.associative and rep.commutative
    assert not rep.idempotent and not rep.meet_semilattice


def test_check_properties_semilattice():
    alg, _, _ = make_semilattice_X(1)
    rep = check_properties(alg, "meet")
    assert rep.meet_semilattice


def test_check_properties_requires_binary(gadgets):
    with pytest.raises(AlgebraError):
        check_properties(gadgets.two_point_unary, "f")


def test_mapping_validation():
    with pytest.raises(AlgebraError):
        Mapping(3, 2, (0, 1, 2))
    with pytest.raises(AlgebraError):
        Mapping(3, 2, (0, 1))
    with pytest.raises(AlgebraError):
        Mapping(0, 2, ())


def test_structural_equality_ignores_labels(gadgets):
    z = gadgets.target_semigroup
    clone = FiniteAlgebra(z.signature, z.size, {"mul": z.table("mul")})
    assert clone == z
    assert hash(clone) == hash(z)


def test_nullary_tables_have_one_entry():
    alg = make_abelian([3])
    assert alg.table("zero").size == 1
    assert validate_algebra(alg) == []
    assert alg.apply("zero") == 0
