import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
import python_propagate as reference

from conftest import brute_homs
from numpy_root import numpy_root, root
from python_propagate import _ints

from homfactor.algebra import (
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    SignatureMismatch,
    compose,
    is_homomorphism,
)
from homfactor.encodings import (
    encode_magma,
    encode_semigroup,
    encode_unary,
    lift_nary,
    make_fcore_instance,
    make_gadgets,
    make_rf_instance,
    make_semilattice_X,
    make_unary_lf_instance,
)
from homfactor.fcore import (
    InapplicableReport,
    abelian_fcore,
    brute_fcore,
    fixed_z_right_factor,
    is_fcore,
)
from homfactor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_catalog,
    graph_hom,
    graph_retract,
    path_graph,
)
from homfactor.varieties import (
    make_abelian,
    make_boolean,
    make_gset,
    make_vspace,
    sample_fcore_instances,
    sample_rf_instances,
)
from homfactor import _native, solver
from homfactor.solver import (
    FactorizationInstance,
    InstanceError,
    NodeLimitReached,
    SearchStats,
    _bools,
    _Engine,
    _malformed,
    _words,
    decide,
    decide_isomorphism,
    decide_retraction,
    enumerate_homomorphisms,
    find_factorization,
    find_homomorphism,
    find_left_factor,
    find_right_factor,
)

K2, K3, C4, P4 = complete_graph(2), complete_graph(3), cycle_graph(4), path_graph(4)


def test_find_homomorphism_identity(gadgets):
    z = gadgets.target_semigroup
    assert find_homomorphism(z, z) is not None


def test_semigroup_hom_always_exists(gadgets):
    # constant map onto the absorbing idempotent
    xg, _ = encode_semigroup(K3)
    yh, _ = encode_semigroup(K2)
    w = find_homomorphism(xg, yh)
    assert w is not None and is_homomorphism(w, xg, yh)


def test_unary_hom_matches_graph_oracle():
    k3d, k2d = K3.as_directed(), K2.as_directed()
    a3, _ = encode_unary(k3d)
    a2, _ = encode_unary(k2d)
    assert find_homomorphism(a3, a2) is None
    assert graph_hom(k3d, k2d) is None
    assert (find_homomorphism(a2, a3) is None) == (graph_hom(k2d, k3d) is None)


def test_find_homomorphism_signature_mismatch(gadgets):
    with pytest.raises(SignatureMismatch):
        find_homomorphism(gadgets.target_semigroup, gadgets.flat_semilattice)


def test_right_factor_examples():
    inst = make_rf_instance(K2, K2)
    g = find_right_factor(inst)
    assert g is not None
    assert compose(inst.h, g) == inst.f
    assert find_right_factor(make_rf_instance(K3, K2)) is None


def test_right_factor_bijective_h(gadgets):
    # h bijective: the only candidate is h^{-1}∘f
    z = gadgets.target_semigroup
    inst = FactorizationInstance(
        "right-factor", z, z, z, f=Mapping.identity(5), h=Mapping.identity(5)
    )
    assert find_right_factor(inst) == Mapping.identity(5)
    inst2 = FactorizationInstance(
        "right-factor", z, z, z, f=Mapping.constant(5, 5, 0), h=Mapping.identity(5)
    )
    assert find_right_factor(inst2) == Mapping.constant(5, 5, 0)


def test_left_factor_seed_conflict(gadgets):
    # g identifies points that f separates: rejected before any search
    z = gadgets.target_semigroup
    inst = FactorizationInstance(
        "left-factor", z, z, z, f=Mapping.identity(5), g=Mapping.constant(5, 5, 0)
    )
    assert find_left_factor(inst) is None


def test_left_factor_consistent_constant(gadgets):
    z = gadgets.target_semigroup
    f_const = Mapping.constant(5, 5, 0)
    g = Mapping.constant(5, 5, 0)
    inst = FactorizationInstance("left-factor", z, z, z, f=f_const, g=g)
    h = find_left_factor(inst)
    assert h is not None and compose(h, g) == f_const


def test_left_factor_surjective_seed_unique(gadgets):
    z = gadgets.target_semigroup
    inst = FactorizationInstance(
        "left-factor", z, z, z, f=Mapping.identity(5), g=Mapping.identity(5)
    )
    assert find_left_factor(inst) == Mapping.identity(5)


def test_full_factor_through_self(gadgets):
    z = gadgets.target_semigroup
    f = Mapping.constant(5, 5, 0)
    inst = FactorizationInstance("full-factor", z, z, z, f=f)
    pair = find_factorization(inst)
    assert pair is not None
    g, h = pair
    assert compose(h, g) == f


def _brute_factors(x, y, z):
    """Every composite h∘g over the full map spaces X -> Y -> Z."""
    hs = brute_homs(y, z)
    return {compose(h, g) for g in brute_homs(x, y) for h in hs}


def _small_triples(gadgets):
    z5, xk1 = gadgets.target_semigroup, encode_semigroup(complete_graph(1))[0]
    c4, c2, c2f = make_gset([(1, 2, 3, 0)]), make_gset([(1, 0)]), make_gset([(1, 0, 2)])
    z2, z4, z22 = make_abelian([2]), make_abelian([4]), make_abelian([2, 2])
    return [
        (z5, xk1, z5), (xk1, z5, xk1), (z4, z22, z4), (z22, z4, z22), (z4, z2, z4),
        (c4, c2f, c4), (c4, c2, c2f), (c2f, make_gset([(0, 1)]), c2f),
    ]


def test_full_factor_matches_brute_force(gadgets):
    for x, y, z in _small_triples(gadgets):
        composites = _brute_factors(x, y, z)
        for f in brute_homs(x, z):
            pair = find_factorization(FactorizationInstance("full-factor", x, y, z, f=f))
            assert (pair is not None) == (f in composites)
            if pair is not None:
                assert compose(pair[1], pair[0]) == f


def test_retraction_matches_brute_force(gadgets):
    pairs = [(x, y) for x, y, _ in _small_triples(gadgets)]
    z2, z22 = make_abelian([2]), make_abelian([2, 2])
    c2, c22 = make_gset([(1, 0)]), make_gset([(1, 0, 3, 2)])
    pairs += [(z2, z22), (c2, c22), (gadgets.target_semigroup, gadgets.target_semigroup)]
    answers = set()
    for x, y in pairs:
        expected = Mapping.identity(x.size) in _brute_factors(x, y, x)
        assert (decide_retraction(x, y) is not None) == expected
        answers.add(expected)
    assert answers == {True, False}


def test_full_factor_matches_graph_retract():
    # X = Z = encoding of K2, f = id, Y = encoding of C4
    xk2, _ = encode_semigroup(K2)
    xc4, _ = encode_semigroup(C4)
    inst = FactorizationInstance(
        "full-factor", xk2, xc4, xk2, f=Mapping.identity(xk2.size)
    )
    assert (find_factorization(inst) is not None) == (graph_retract(K2, C4) is not None)


def test_decide_retraction_examples(gadgets):
    z = gadgets.target_semigroup
    g, h = decide_retraction(z, z)
    assert (g, h) == (Mapping.identity(5), Mapping.identity(5))
    assert compose(h, g) == Mapping.identity(5)
    xk2, _ = encode_semigroup(K2)
    xk3, _ = encode_semigroup(K3)
    xc4, _ = encode_semigroup(C4)
    assert decide_retraction(xk2, xc4) is not None
    assert decide_retraction(xk3, xc4) is None


def test_decide_isomorphism():
    xc4, _ = encode_semigroup(C4)
    xp4, _ = encode_semigroup(P4)
    assert xc4.size != xp4.size  # differ in pair-element count
    assert decide_isomorphism(xc4, xp4) is None
    # permuted copy of the five-element target
    gadgets = make_gadgets()
    z = gadgets.target_semigroup
    perm = (2, 0, 4, 1, 3)
    inv = [0] * 5
    for i, v in enumerate(perm):
        inv[v] = i
    from homfactor.algebra import FiniteAlgebra

    table = [
        perm[z.apply("mul", inv[x], inv[y])] for x in range(5) for y in range(5)
    ]
    z_perm = FiniteAlgebra(z.signature, 5, {"mul": table})
    iso = decide_isomorphism(z, z_perm)
    assert iso is not None and tuple(iso.values) == perm


def test_search_deeper_than_the_recursion_limit():
    # every map of the identity operation on 1,200 elements to the one on 2
    # is a homomorphism, and the search branches once per element: 1,200
    # levels, past Python's default recursion limit of 1,000
    x = FiniteAlgebra([("u", 1)], 1200, {"u": list(range(1200))})
    y = FiniteAlgebra([("u", 1)], 2, {"u": [0, 1]})
    stats = SearchStats()
    g = find_homomorphism(x, y, stats=stats)
    assert g == Mapping.constant(1200, 2, 0)
    assert stats.nodes == 1200


def test_enumerate_homomorphisms(gadgets):
    z = gadgets.target_semigroup
    homs = enumerate_homomorphisms(z, z, limit=1000)
    assert Mapping.identity(5) in homs
    assert Mapping.constant(5, 5, 0) in homs
    values = [m.values for m in homs]
    assert values == sorted(values)
    assert enumerate_homomorphisms(z, z, limit=1)[0] == homs[0]
    with pytest.raises(ValueError):
        enumerate_homomorphisms(z, z, limit=0)


def _enumeration_runs(gadgets):
    """(count, digest of the value vectors in order) per enumeration case:
    the test pairs of this suite and the encodings suite, G-sets with and
    without fixed points, unary encodings and ternary lifts, each in full
    and cut at 5."""
    z, src = gadgets.target_semigroup, gadgets.source_semigroup
    gsets = [make_gset(t) for t in ([(1, 0)], [(1, 0, 2)], [(0, 2, 1), (1, 0, 2)],
                                    [(1, 2, 3, 0)], [(1, 0, 3, 2)])]
    unary = [encode_unary(g)[0] for g in graph_catalog(1, 2, directed=True)]
    cases = {
        "semigroup": [(z, z), (z, src), (src, z)],
        "lifted": [(lift_nary(a, 3), lift_nary(b, 3)) for a, b in ((z, z), (z, src), (src, z))],
        "abelian": [(make_abelian(o), make_abelian(o)) for o in ([2, 2], [2, 4], [6])],
        "gset": [(a, b) for a in gsets for b in gsets if a.signature == b.signature],
        "unary": [(a, b) for a in unary for b in unary],
    }
    out = {}
    for name, pairs in cases.items():
        for limit in (2000, 5):
            seqs = [[m.values for m in enumerate_homomorphisms(a, b, limit)] for a, b in pairs]
            out[f"{name} {limit}"] = (sum(map(len, seqs)), _digest(seqs))
    return out


def test_enumeration_sequences_pinned(gadgets):
    # measured before the diagonal root rule and the pair-ordered branching:
    # lexicographic enumeration yields the same homomorphisms in the same order
    assert _enumeration_runs(gadgets) == {
        "semigroup 2000": (69, "d1baf89f14ae950f"),
        "semigroup 5": (15, "c4d554051b5eb285"),
        "lifted 2000": (69, "d1baf89f14ae950f"),
        "lifted 5": (15, "c4d554051b5eb285"),
        "abelian 2000": (54, "48f4be4320eb679e"),
        "abelian 5": (15, "d5fdacad804d81d1"),
        "gset 2000": (55, "e5d4f69ec8f59e4f"),
        "gset 5": (40, "be72565b98ca2154"),
        "unary 2000": (25, "290bbe91e61fc087"),
        "unary 5": (25, "290bbe91e61fc087"),
    }


def test_solver_complete_at_desk_scale(gadgets):
    # everywhere the full map space is scannable, solver output equals it
    z = gadgets.target_semigroup
    src = gadgets.source_semigroup
    flat = gadgets.flat_semilattice
    sl1, _, _ = make_semilattice_X(1)
    xk1, _ = encode_semigroup(complete_graph(1))
    pairs = [(z, z), (z, src), (src, z), (xk1, z), (sl1, flat), (flat, sl1)]
    for a, b in pairs:
        expected = brute_homs(a, b)
        got = enumerate_homomorphisms(a, b, limit=len(expected) + 5)
        assert got == expected
        assert (find_homomorphism(a, b) is not None) == bool(expected)


def test_determinism(gadgets):
    xg, _ = encode_semigroup(C4)
    yh, _ = encode_semigroup(K2)
    w1 = find_homomorphism(xg, yh)
    w2 = find_homomorphism(xg, yh)
    assert w1 == w2
    inst = make_rf_instance(C4, K2)
    assert find_right_factor(inst) == find_right_factor(inst)


def test_node_limit_is_unknown_not_no():
    inst = make_rf_instance(cycle_graph(4), cycle_graph(4))
    assert find_right_factor(inst) is not None
    stats = SearchStats(node_limit=1)
    with pytest.raises(NodeLimitReached):
        find_right_factor(inst, stats=stats)
    assert stats.nodes >= 1


def test_node_limit_must_be_positive():
    for limit in (0, -1):
        with pytest.raises(ValueError, match="node_limit must be positive"):
            SearchStats(node_limit=limit)


def test_shared_stats_share_one_node_limit():
    # a "yes" then a branchy "no": the shared limit stops the second search
    # short, which must raise rather than answer "no"
    first = make_rf_instance(cycle_graph(4), cycle_graph(4))
    second = make_rf_instance(complete_graph(4), complete_graph(3))
    counts = []
    for inst in (first, second):
        stats = SearchStats()
        find_right_factor(inst, stats=stats)
        counts.append(stats.nodes)
    assert counts[1] > 1
    shared = SearchStats(node_limit=sum(counts))
    assert find_right_factor(first, stats=shared) is not None
    assert find_right_factor(second, stats=shared) is None
    shared = SearchStats(node_limit=sum(counts) - 1)
    assert find_right_factor(first, stats=shared) is not None
    with pytest.raises(NodeLimitReached):
        find_right_factor(second, stats=shared)
    assert shared.nodes == sum(counts)
    # the second decision alone fits the same limit
    assert find_right_factor(second, stats=SearchStats(node_limit=sum(counts) - 1)) is None


def test_composition_of_witnesses_is_homomorphism(gadgets):
    z = gadgets.target_semigroup
    f = Mapping.constant(5, 5, 0)
    inst = FactorizationInstance("full-factor", z, z, z, f=f)
    g, h = find_factorization(inst)
    assert is_homomorphism(compose(h, g), z, z)


def test_instance_validation_errors(gadgets):
    z = gadgets.target_semigroup
    flat = gadgets.flat_semilattice
    bad = FactorizationInstance("right-factor", z, flat, z, f=Mapping.identity(5))
    problems = bad.problems()
    assert any("signature" in p for p in problems)
    assert any("missing map h" in p for p in problems)
    with pytest.raises(InstanceError):
        bad.validate()
    unknown = FactorizationInstance("mystery", z, z)
    assert unknown.problems() == ["unknown kind 'mystery'"]
    not_hom = FactorizationInstance(
        "right-factor", z, z, z, f=Mapping(5, 5, (0, 2, 1, 3, 4)), h=Mapping.identity(5)
    )
    assert any("f is not a homomorphism" in p for p in not_hom.problems())


def _constant_and_unary(u):
    return FiniteAlgebra([("c", 0), ("u", 1)], 2, {"c": [0], "u": u})


def test_instance_problem_messages():
    # X = ({0,1}; c = 0, u = id), Y = ({0,1}; c = 0, u = swap): the only
    # map Y -> X is the constant 0, and there is no map X -> Y at all
    x, y = _constant_and_unary([0, 1]), _constant_and_unary([1, 0])
    ident, zero = Mapping.identity(2), Mapping.constant(2, 2, 0)
    cases = [
        (FactorizationInstance("left-factor", x, y, f=ident, g=zero),
         "Z is required for this kind"),
        (FactorizationInstance("hom", x, y, g=ident), "unexpected map g for kind hom"),
        (FactorizationInstance("left-factor", x, y, x, f=ident, g=ident),
         "g is not a homomorphism X -> Y"),
        (FactorizationInstance("right-factor", x, y, x, f=ident, h=ident),
         "h is not a homomorphism Y -> Z"),
        (FactorizationInstance("right-factor", x, y, x, f=Mapping.identity(3), h=zero),
         "mapping is 3->3, algebras are 2, 2"),
        (FactorizationInstance("retraction", x, x, y), "retraction kind requires Z = X"),
    ]
    for inst, message in cases:
        assert inst.problems() == [message]
        with pytest.raises(InstanceError, match=message):
            decide(inst)


def test_enumerate_is_empty_when_the_root_pass_refutes():
    x, y = _constant_and_unary([0, 1]), _constant_and_unary([1, 0])
    stats = SearchStats()
    assert enumerate_homomorphisms(x, y, 10, stats=stats) == []
    assert stats.nodes == 0 and stats.root_pruned > 0
    assert enumerate_homomorphisms(y, x, 10) == [Mapping.constant(2, 2, 0)]


def test_retraction_instance_invariants(gadgets):
    z = gadgets.target_semigroup
    ok = FactorizationInstance("retraction", z, z, z, f=Mapping.identity(5))
    assert ok.problems() == []
    bad = FactorizationInstance("retraction", z, z, z, f=Mapping.constant(5, 5, 0))
    assert any("identity" in p for p in bad.problems())


def test_solver_matches_independent_brute_on_semigroup_family():
    # engine-independent pruned backtracker over the full encoding family
    from conftest import brute_hom_exists_pruned
    from homfactor.graphs import graph_catalog

    encs = [encode_semigroup(g)[0] for g in graph_catalog(1, 3)]
    for a in encs:
        for b in encs:
            assert (find_homomorphism(a, b) is not None) == brute_hom_exists_pruned(a, b)


def test_solver_matches_independent_brute_on_unary_family():
    from conftest import brute_hom_exists_pruned
    from homfactor.graphs import graph_catalog

    encs = [
        encode_unary(g)[0]
        for g in graph_catalog(2, 3, directed=True, connected=True)
    ]
    for a in encs[:6]:
        for b in encs[:6]:
            assert (find_homomorphism(a, b) is not None) == brute_hom_exists_pruned(a, b)


def test_node_limit_does_not_change_witness(gadgets):
    inst = make_rf_instance(cycle_graph(4), complete_graph(2))
    unlimited = find_right_factor(inst)
    generous = find_right_factor(inst, stats=SearchStats(node_limit=10_000))
    assert unlimited == generous


def test_isomorphism_of_permuted_encodings():
    from homfactor.algebra import FiniteAlgebra

    base, _ = encode_semigroup(complete_graph(2))
    n = base.size
    perm = tuple((i + 3) % n for i in range(n))
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    table = [
        perm[base.apply("mul", inv[x], inv[y])] for x in range(n) for y in range(n)
    ]
    twisted = FiniteAlgebra(base.signature, n, {"mul": table})
    iso = decide_isomorphism(base, twisted)
    assert iso is not None
    assert is_homomorphism(iso, base, twisted)
    assert len(set(iso.values)) == n


# ---------------------------------------------------------------- root consistency


def test_root_consistency_keeps_every_homomorphism(gadgets):
    # from full and from seeded random domains: every homomorphism that
    # fits the start survives, and None means that none fits
    rng = np.random.default_rng(7)
    algs = [  # operations of arity 0, 1 and 2
        gadgets.target_semigroup, gadgets.source_semigroup, gadgets.flat_semilattice,
        gadgets.two_point_unary, make_abelian([2]), make_abelian([4]), make_abelian([2, 2]),
        make_gset([(1, 0)]), make_gset([(1, 0, 2)]), make_gset([(1, 2, 3, 0)]),
        make_gset([(1, 0, 3, 2)]),
    ]
    algs += [encode_semigroup(g)[0] for g in graph_catalog(1, 3)]
    algs += [encode_magma(g)[0] for g in graph_catalog(2, 3)]
    algs += [encode_unary(g)[0] for g in graph_catalog(1, 3, directed=True)]
    pairs, refuted, pruned = 0, set(), set()
    for a in algs:
        for b in algs:
            if a.signature != b.signature or b.size**a.size > 20_000:
                continue
            pairs += 1
            rows = np.arange(a.size)
            homs = [m.values for m in brute_homs(a, b)]
            starts = [np.ones((a.size, b.size), dtype=bool)]
            starts += [rng.random((a.size, b.size)) < 0.7 for _ in range(3)]
            for d0 in starts:
                fits = [v for v in homs if d0[rows, v].all()]
                for max_arity in (1, 2):
                    d = root(a, b, d0, max_arity)
                    key = (max(arity for _, arity in a.signature.ops), max_arity)
                    if d is None:
                        assert fits == [], (a, b, max_arity)
                        refuted.add(key)
                        continue
                    assert (d <= d0).all()
                    for v in fits:
                        assert d[rows, v].all(), (a, b, max_arity, v)
                    if (d != d0).any():
                        pruned.add(key)
    # the routine must actually prune and refute, binary operations
    # included, or the checks above prove nothing
    assert pairs >= 100
    assert {(1, 1), (2, 2)} <= refuted and {(1, 1), (2, 1), (2, 2)} <= pruned


def _reference_root(a, b, d, max_arity):
    """Plain-loop fixpoint of input support and output image: for every
    tuple of every operation of arity at most max_arity, with one value per
    position drawn from that position's domain (a repeated element is
    drawn independently), the value tuples whose image lies in the domain
    of the tuple's result fit; each position keeps its values in some
    fitting tuple, and the result keeps the images of the fitting tuples.
    A tuple (x, …, x) whose result is x itself fits only the value tuples
    (y, …, y) whose image is y, so x keeps only those y."""
    dom = [{v for v in range(b.size) if d[x][v]} for x in range(a.size)]
    changed = True
    while changed:
        changed = False
        for name, arity in a.signature.ops:
            if arity > max_arity:
                continue
            for x in range(a.size):
                if arity and a.apply(name, *[x] * arity) == x:
                    values = {y for y in dom[x] if b.apply(name, *[y] * arity) == y}
                    if values != dom[x]:
                        dom[x] = values
                        changed = True
            for xs in itertools.product(range(a.size), repeat=arity):
                out = a.apply(name, *xs)
                fit = [us for us in itertools.product(*(dom[x] for x in xs))
                       if b.apply(name, *us) in dom[out]]
                keep = [(x, {us[i] for us in fit}) for i, x in enumerate(xs)]
                keep.append((out, {b.apply(name, *us) for us in fit}))
                for x, values in keep:
                    if not dom[x] <= values:
                        dom[x] &= values
                        changed = True
    if not all(dom):
        return None
    return [[v in dom[x] for v in range(b.size)] for x in range(a.size)]


def test_root_consistency_is_the_reference_fixpoint():
    # b is random; a is a fresh random algebra of any size, or a relabelled
    # copy of b with up to two cells changed whose start domains contain
    # the relabelling (random algebras alone are mostly refuted or kept).
    # The C routine meets two references: the plain loop above, and the
    # numpy routine, whose removed count it must match too
    rng = np.random.default_rng(11)
    seen = {"refuted": 0, "pruned": 0, "kept": 0}
    for _ in range(1000):
        arities = sorted(rng.choice(3, size=rng.integers(1, 4)).tolist())
        ops = [(f"o{i}", k) for i, k in enumerate(arities)]
        nb = int(rng.integers(1, 6))
        tb = {name: rng.integers(0, nb, nb**k) for name, k in ops}
        copy = rng.random() < 0.5
        na = nb if copy else int(rng.integers(1, 6))
        d0 = rng.random((na, nb)) < rng.uniform(0.4, 1.0)
        if copy:
            perm = rng.permutation(nb)  # a's element perm[e] is b's e
            inv = np.argsort(perm)
            ta = {name: perm[tb[name].reshape((nb,) * k)[np.ix_(*[inv] * k)]].reshape(-1)
                  for name, k in ops}
            for _ in range(rng.integers(0, 3)):
                name, k = ops[rng.integers(len(ops))]
                ta[name][rng.integers(nb**k)] = rng.integers(nb)
            d0[perm, np.arange(nb)] = True
        else:
            ta = {name: rng.integers(0, na, na**k) for name, k in ops}
        a, b = FiniteAlgebra(ops, na, ta), FiniteAlgebra(ops, nb, tb)
        stats = SearchStats()
        d = root(a, b, d0, 2, stats=stats)
        expected = _reference_root(a, b, d0.tolist(), 2)
        by_numpy, removed = numpy_root(a, b, d0, 2)
        assert stats.root_pruned == removed, (a.tables, b.tables, d0)
        if d is None:
            assert expected is None and by_numpy is None, (a.tables, b.tables, d0)
            seen["refuted"] += 1
            continue
        assert d.tolist() == expected == by_numpy.tolist(), (a.tables, b.tables, d0)
        seen["pruned" if (d != d0).any() else "kept"] += 1
    assert min(seen.values()) >= 100, seen


def _homomorphic_copy(rng, b, na):
    """An algebra a on na elements and a map phi: a -> b that is a
    homomorphism wherever b's value has a preimage under phi: each entry of
    a is such a preimage, or a random element where there is none."""
    phi = rng.integers(0, b.size, na)
    tables = {}
    for name, k in b.signature.ops:
        tables[name] = []
        for xs in itertools.product(range(na), repeat=k):
            pre = np.flatnonzero(phi == b.apply(name, *phi[list(xs)]))
            tables[name].append(rng.choice(pre) if len(pre) else rng.integers(na))
    return FiniteAlgebra(b.signature, na, tables), phi


def test_root_consistency_over_wide_targets_is_the_numpy_fixpoint():
    # targets of 65 to 200 elements, so every domain spans two to four
    # words: the C routine's domains and removed counts are numpy's
    rng = np.random.default_rng(12)
    seen = {"refuted": 0, "pruned": 0, "kept": 0}
    words = set()
    for _ in range(300):
        arities = sorted(rng.choice(3, size=rng.integers(1, 4)).tolist())
        ops = [(f"o{i}", k) for i, k in enumerate(arities)]
        nb = int(rng.integers(65, 201))
        small = int(rng.integers(2, nb))  # values drawn from [0, small) or all of b
        tb = {name: rng.integers(0, small if rng.random() < 0.5 else nb, nb**k)
              for name, k in ops}
        b = FiniteAlgebra(ops, nb, tb)
        a, phi = _homomorphic_copy(rng, b, int(rng.integers(1, 9)))
        d0 = rng.random((a.size, nb)) < rng.uniform(0.3, 1.0)
        if rng.random() < 0.5:
            d0[np.arange(a.size), phi] = True
        for max_arity in (1, 2):
            stats = SearchStats()
            d = root(a, b, d0, max_arity, stats=stats)
            expected, removed = numpy_root(a, b, d0, max_arity)
            assert stats.root_pruned == removed, (a.tables, b.tables, d0, max_arity)
            if d is None:
                assert expected is None, (a.tables, b.tables, d0, max_arity)
                seen["refuted"] += 1
                continue
            assert np.array_equal(d, expected), (a.tables, b.tables, d0, max_arity)
            seen["pruned" if (d != d0).any() else "kept"] += 1
        words.add(-(-nb // 64))
    assert words == {2, 3, 4}
    assert min(seen.values()) >= 30, seen


def test_root_pruned_on_a_wipeout_is_the_numpy_count():
    # the count covers every sweep up to the one that emptied a domain,
    # which moves if the routine stops early or narrows in place
    rng = np.random.default_rng(13)
    wipeouts = set()
    for _ in range(600):
        arities = sorted(rng.choice(3, size=rng.integers(1, 4)).tolist())
        ops = [(f"o{i}", k) for i, k in enumerate(arities)]
        nb = int(rng.integers(2, 9))
        b = FiniteAlgebra(ops, nb, {name: rng.integers(0, nb, nb**k) for name, k in ops})
        a, _ = _homomorphic_copy(rng, b, int(rng.integers(2, 9)))
        d0 = rng.random((a.size, nb)) < rng.uniform(0.5, 1.0)
        for max_arity in (1, 2):
            stats = SearchStats()
            d = root(a, b, d0, max_arity, stats=stats)
            expected, removed = numpy_root(a, b, d0, max_arity)
            assert (d is None) == (expected is None)
            assert stats.root_pruned == removed, (a.tables, b.tables, d0, max_arity)
            if d is None:
                wipeouts.add(removed)
    assert len(wipeouts) >= 20, sorted(wipeouts)


def test_root_consistency_leaves_arity_three_to_the_search(gadgets):
    # the lifted pairs of test_lift_preserves_homomorphisms reach the search
    # with their domains untouched
    z, src = gadgets.target_semigroup, gadgets.source_semigroup
    for a, b in ((z, z), (z, src), (src, z)):
        full = np.ones((a.size, b.size), dtype=bool)
        d = root(lift_nary(a, 3), lift_nary(b, 3), full, 2)
        assert np.array_equal(d, full)


def test_root_pass_revises_a_large_binary_operation_in_little_memory():
    # x·y = x on 204 elements: the root pass's scratch, O((|A| + |B|)·|B| /
    # 64) words, comes from Python's allocator, so tracemalloc sees it; the
    # numpy revision held about 255 MB of n³ temporaries here
    n = 204
    lz = FiniteAlgebra([("mul", 2)], n, {"mul": np.repeat(np.arange(n), n)})
    full = np.ones((n, n), dtype=bool)
    tracemalloc.start()
    try:
        d = root(lz, lz, full, 2)
        root_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        pair = decide_retraction(lz, lz)
        decide_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(d, full)  # every element is idempotent
    assert pair is not None
    assert root_peak < 4e6 and decide_peak < 64e6, (root_peak, decide_peak)


def test_root_refuses_arrays_it_cannot_read():
    # the C root reads the tables and domains in place, so it checks their
    # dtype, length and layout before it touches them
    t, d = np.array([1, 0]), np.full((2, 1), 3, dtype=np.uint64)
    assert _native.root(2, [(1, t, t)], d)[1] == 0
    for ops, dom, error in [
        ([(1, t, t[:1])], d, ValueError),  # a table short of n**k entries
        ([(1, t, t.astype(np.int32))], d, ValueError),
        ([(1, t, t.astype(float))], d, ValueError),
        ([(1, t)], d, TypeError),
        ([(1, t, t)], d.astype(np.uint32), ValueError),  # not words
        ([(1, t, t)], np.frombuffer(bytes(16), dtype=np.uint64), ValueError),  # read-only
    ]:
        with pytest.raises(error):
            _native._ext.root(2, ops, dom)


def test_root_refuses_table_values_outside_the_carrier():
    # each table value indexes a row of the domains or the scratch, so one
    # past its carrier, in B's table or in A's, is refused before it is read
    d = np.full((2, 1), 3, dtype=np.uint64)
    for ops in ([(1, np.array([0, 1]), np.array([0, 9]))],
                [(1, np.array([0, 7]), np.array([0, 1]))],
                [(1, np.array([0, -1]), np.array([0, 1]))]):
        with pytest.raises(ValueError, match="outside the carrier"):
            _native.root(2, ops, d)


def test_root_keeps_fixed_points_on_fixed_points():
    # x = u(x) needs y = u(y): the revision alone keeps every value of the
    # fixed point 1 here, since each is the image of some value
    a = FiniteAlgebra([("u", 1)], 2, {"u": [1, 1]})
    b = FiniteAlgebra([("u", 1)], 3, {"u": [1, 2, 2]})
    stats = SearchStats()
    d = root(a, b, np.ones((2, 3), dtype=bool), 1, stats=stats)
    assert d.tolist() == [[False, True, True], [False, False, True]]
    assert stats.root_pruned == 3
    # no fixed point in the target: refuted before any branching
    point = FiniteAlgebra([("u", 1)], 1, {"u": [0]})
    cycle = FiniteAlgebra([("u", 1)], 2, {"u": [1, 0]})
    stats = SearchStats()
    assert find_homomorphism(point, cycle, stats=stats) is None
    assert (stats.nodes, stats.root_pruned) == (0, 2)


def test_gset_full_factor_refuted_at_the_root():
    # X has a point every generator fixes and Y has none, so no g exists;
    # without the diagonal rule the search runs past 5,000,000 nodes here
    inst = sample_rf_instances("gset", 20, 16, seed=2)[5]
    x, y = inst.X, inst.Y

    def fixed(alg):
        return [e for e in range(alg.size)
                if all(alg.apply(name, e) == e for name, _ in alg.signature.ops)]

    assert len(fixed(x)) == 1 and fixed(y) == []
    stats = SearchStats(node_limit=1000)
    full = FactorizationInstance("full-factor", x, y, inst.Z, f=inst.f)
    assert find_factorization(full, stats=stats) is None
    assert stats.nodes == 0 and stats.root_pruned > 0


def test_combined_search_branches_on_g_before_h(monkeypatch):
    # the engine branches on its pairs in order: no h-variable is branched
    # while a g-variable is unassigned. Read from the reference search's
    # picks; the C search must take the same nodes to the same witnesses
    picks, n_g = [], [0]
    plain = reference.Engine._pick

    def pick(self):
        var = plain(self)
        if var is not None:
            g_open = any(d & (d - 1) for d in self.dom[:n_g[0]])
            picks.append((var >= n_g[0], g_open))
        return var

    encs = [encode_semigroup(g)[0] for g in graph_catalog(2, 4)]

    def runs():
        out = []
        for x in encs:
            for y in encs:
                n_g[0] = x.size
                stats = SearchStats()
                out.append((decide_retraction(x, y, stats=stats), stats.nodes))
        return out

    searched = runs()
    reference.use(monkeypatch)
    monkeypatch.setattr(reference.Engine, "_pick", pick)
    assert runs() == searched
    assert any(on_h for on_h, _ in picks) and any(not on_h for on_h, _ in picks)
    assert not any(on_h and g_open for on_h, g_open in picks)


def test_retraction_matches_graph_retract_on_small_catalog():
    graphs = graph_catalog(2, 3)
    encs = [encode_semigroup(g)[0] for g in graphs]
    for g, x in zip(graphs, encs):
        for h, y in zip(graphs, encs):
            assert (decide_retraction(x, y) is not None) == (graph_retract(g, h) is not None)


def test_retraction_refuted_within_node_guard():
    # K4 onto the edgeless graph: 14,833 nodes with forward checking alone
    x, _ = encode_semigroup(complete_graph(4))
    y, _ = encode_semigroup(Graph.undirected(4, []))
    stats = SearchStats(node_limit=500)
    assert decide_retraction(x, y, stats=stats) is None
    assert stats.root_pruned > 0


def test_retraction_refuted_by_cardinality():
    # h∘g = id_X needs |X| <= |Y|: "no" before the root routine or the search
    encs = [encode_semigroup(g)[0] for g in graph_catalog(2, 3)]
    larger = [(x, y) for x in encs for y in encs if x.size > y.size]
    assert larger
    for x, y in larger:
        stats = SearchStats()
        assert decide_retraction(x, y, stats=stats) is None
        assert (stats.nodes, stats.root_pruned) == (0, 0)


def test_full_factor_refuted_by_image_size():
    # im f = h(im g) has at most |Y| elements
    x, y = make_abelian([4]), make_abelian([2])
    f = Mapping.identity(4)
    stats = SearchStats()
    inst = FactorizationInstance("full-factor", x, y, x, f=f)
    assert find_factorization(inst, stats=stats) is None
    assert (stats.nodes, stats.root_pruned) == (0, 0)
    assert f not in _brute_factors(x, y, x)


def test_full_factor_with_image_the_size_of_y_is_searched():
    # |im f| = |Y| passes the bound: the root routine runs and finds a "yes"
    x, y = make_abelian([4]), make_abelian([2])
    f = Mapping(4, 2, (0, 1, 0, 1))  # reduction mod 2
    stats = SearchStats()
    pair = find_factorization(FactorizationInstance("full-factor", x, y, y, f=f), stats=stats)
    assert pair is not None and compose(pair[1], pair[0]) == f
    assert stats.root_pruned > 0
    assert f in _brute_factors(x, y, y)


def test_entry_points_validate_algebras():
    bad = FiniteAlgebra([("u", 1)], 2, {"u": [0, 5]})
    good = FiniteAlgebra([("u", 1)], 2, {"u": [0, 1]})
    ident = Mapping.identity(2)
    calls = [
        lambda: find_homomorphism(bad, good),
        lambda: find_homomorphism(good, bad),
        lambda: enumerate_homomorphisms(good, bad, 3),
        lambda: decide_retraction(bad, good),
        lambda: decide_retraction(good, bad),
        lambda: decide_isomorphism(good, bad),
        lambda: decide(FactorizationInstance("hom", bad, good)),
        lambda: find_right_factor(
            FactorizationInstance("right-factor", good, good, bad, f=ident, h=ident)
        ),
        lambda: find_factorization(FactorizationInstance("retraction", bad, good)),
    ]
    for call in calls:
        with pytest.raises(AlgebraError, match="malformed"):
            call()


def test_bitmask_conversion_matches_reference():
    # domains of up to 64 values take one path, wider ones another
    rng = np.random.default_rng(0)
    for width in (1, 7, 8, 9, 63, 64, 65, 130):
        rows = rng.random((2, 3, width)) < 0.5
        masks = _ints(_words(rows))
        assert np.array_equal(_bools(_words(rows), width), rows)
        for i, j in np.ndindex(2, 3):
            assert masks[i][j] == sum(1 << int(y) for y in np.flatnonzero(rows[i, j]))


def test_search_over_a_wide_target():
    # 72 target values: domains wider than one machine word
    a, b = make_abelian([2]), make_abelian([2, 36])
    assert enumerate_homomorphisms(a, b, 1000) == brute_homs(a, b)
    assert find_homomorphism(make_abelian([4]), b) is not None


def _engine_peak(a, b):
    """Peak bytes that tracemalloc sees while one engine over (a, b) is
    built from full domains: its compile and its state."""
    d = _words(np.ones((a.size, b.size), dtype=bool))
    tracemalloc.start()
    try:
        _Engine([(a, b)], [d], None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_binary(n):
    return FiniteAlgebra([("mul", 2)], n, {"mul": np.random.default_rng(n).integers(0, n, n * n)})


def test_source_half_memory_is_proportional_to_the_table():
    # the incidences that the source's table decides, built by an engine
    # into a one-element target: an int8 slot and two int16 ends each, a
    # fixed multiple of the table's bytes; the numpy compile this replaced
    # peaked at 42.4x and 42.3x the table's bytes at 200 and 400 elements
    point = FiniteAlgebra([("mul", 2)], 1, {"mul": [0]})
    ratios = []
    for n, bound in ((200, 42.4), (400, 42.3)):
        a = _random_binary(n)
        ratios.append(_engine_peak(a, point) / a.table("mul").nbytes)
        assert ratios[-1] <= bound, ratios
    assert ratios[1] <= 1.1 * ratios[0], ratios


def test_target_half_memory_is_proportional_to_the_table():
    # the word rows that the target's table decides, built by an engine
    # from a one-element source: |B|**2 pre-image rows of w words in each
    # direction, with no |B|**3 temporary, whose share would grow with |B|;
    # the numpy compile this replaced peaked at 2.25x and 2.14x the table's
    # bytes times w at 200 and 400 elements
    point = FiniteAlgebra([("mul", 2)], 1, {"mul": [0]})
    ratios = []
    for n, bound in ((200, 2.25), (400, 2.14)):
        b = _random_binary(n)
        ratios.append(_engine_peak(point, b) / (b.table("mul").nbytes * -(-n // 64)))
        assert ratios[-1] <= bound, ratios
    assert ratios[1] <= 1.1 * ratios[0], ratios


def _digest(witnesses):
    return hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]


def _values(*maps):
    return tuple(None if m is None else m.values for m in maps)


def _pinned_runs():
    """(total nodes, witness digest, yes answers, decisions) per slice."""
    out = {}
    graphs = graph_catalog(2, 3)
    encs = [encode_semigroup(g)[0] for g in graphs]
    stats, ws = SearchStats(), []
    for x in encs:
        for y in encs:
            pair = decide_retraction(x, y, stats=stats)
            ws.append(None if pair is None else _values(*pair))
    out["retraction"] = (stats.nodes, _digest(ws), sum(w is not None for w in ws), len(ws))
    digraphs = graph_catalog(2, 4, directed=True, connected=True)[::9]
    unary = [encode_unary(g, theorem_grade=True)[0] for g in digraphs]
    runs = {
        "hom": lambda i, j, s: find_homomorphism(unary[i], unary[j], stats=s),
        "left-factor": lambda i, j, s: find_left_factor(
            make_unary_lf_instance(digraphs[i], digraphs[j]), stats=s
        ),
        "isomorphism": lambda i, j, s: decide_isomorphism(unary[i], unary[j], stats=s),
    }
    pairs = [(i, j) for i in range(len(digraphs)) for j in range(len(digraphs))]
    for kind, run in runs.items():
        stats = SearchStats()
        ws = [_values(run(i, j, stats)) for i, j in pairs]
        out[kind] = (stats.nodes, _digest(ws), sum(w != (None,) for w in ws), len(ws))
    graphs = graph_catalog(1, 3)
    stats = SearchStats()
    ws = [_values(find_right_factor(make_rf_instance(g, h), stats=stats))
          for g in graphs for h in graphs]
    out["right-factor"] = (stats.nodes, _digest(ws), sum(w != (None,) for w in ws), len(ws))
    for orders in ([2, 2], [2, 4]):
        a = make_abelian(orders)
        stats = SearchStats()
        homs = enumerate_homomorphisms(a, a, 1000, stats=stats)
        out[f"enumerate {orders}"] = (stats.nodes, _digest([m.values for m in homs]), len(homs))
    return out


def test_node_counts_pinned():
    # measured before the bitmask engine replaced the set-based one: the
    # same variable order, value order and propagation give the same counts;
    # the retraction total dropped from 300 when the 15 pairs with |X| > |Y|
    # (110 nodes) came to be refuted by their sizes before any search
    assert _pinned_runs() == {
        "retraction": (190, "296bbcf2e7933d42", 9, 36),
        "hom": (6908, "3285469154fc6099", 261, 576),
        "left-factor": (6908, "a8d18c83058e56d5", 261, 576),
        "isomorphism": (315, "8752c13ec126ace3", 24, 576),
        "right-factor": (92, "5a43934c1faddbea", 34, 49),
        "enumerate [2, 2]": (20, "7d0bec6bf8ba1865", 16),
        "enumerate [2, 4]": (40, "029403dde433db5e", 32),
    }


def _fcore_pinned_runs():
    """(total nodes, digest of retraction values and image sizes, summed
    image sizes, calls) per f-core entry point; is_fcore's digest and third
    field read its answers and how many are True."""
    insts = [make_fcore_instance(g) for g in graph_catalog(1, 5)]
    out = {}
    stats, ws = SearchStats(), []
    for x, z, f in insts:
        res = brute_fcore(x, f, z, stats=stats)
        ws.append((res.retraction.values, len(res.image)))
    out["brute"] = (stats.nodes, _digest(ws), sum(n for _, n in ws), len(ws))
    stats = SearchStats()
    ws = [is_fcore(x, f, z, stats=stats) for x, z, f in insts]
    out["is_fcore"] = (stats.nodes, _digest(ws), sum(ws), len(ws))
    # Z_4 -> Z_2: the kernel is no direct summand, so the method is inapplicable
    samples = sample_fcore_instances("abelian", 12, 16, seed=5)
    samples.append((make_abelian([4]), make_abelian([2]), Mapping(4, 2, (0, 1, 0, 1))))
    stats, ws = SearchStats(), []
    for x, z, f in samples:
        res = abelian_fcore(x, f, z, stats=stats)
        inapplicable = isinstance(res, InapplicableReport)
        if inapplicable:
            res = res.fallback
        ws.append((inapplicable, res.retraction.values, len(res.image)))
    out["abelian"] = (stats.nodes, _digest(ws), sum(n for *_, n in ws), len(ws))
    return out


def test_carriers_past_the_limit_are_refused_before_allocating():
    # a domain matrix for 10**8 elements would take petabytes
    big = FiniteAlgebra([], 10**8, {})
    for call in (
        lambda: find_homomorphism(big, big),
        lambda: enumerate_homomorphisms(big, big, 1),
        lambda: decide_retraction(big, big),
        lambda: decide(FactorizationInstance("hom", big, big)),
        lambda: brute_fcore(big, Mapping(2, 2, (0, 1))),
    ):
        with pytest.raises(AlgebraError, match="has 100000000 elements, more than the limit of 4096"):
            call()
    assert not _malformed([("X", FiniteAlgebra([], 4096, {}))])


def test_table_entries_past_the_limit_are_refused():
    # the limit counts the entries of every table: 1024**2 alone is at it,
    # and one unary table more passes it
    mul = np.zeros(1 << 20, dtype=np.int64)
    at = FiniteAlgebra([("mul", 2)], 1024, {"mul": mul})
    past = FiniteAlgebra([("mul", 2), ("u", 1)], 1024, {"mul": mul, "u": mul[:1024]})
    assert not _malformed([("X", at)])
    assert _malformed([("X", past)]) == [
        "X has 1049600 table entries, more than the limit of 1048576"]


def _fixed_z_pinned_runs():
    """(total nodes, total root_pruned, digest of each decision's witness,
    nodes and root_pruned, yes answers, decisions) of fixed_z_right_factor
    over the semigroup right factors of the graphs with 1-3 vertices (brute)
    and 12 samples per variety at size <= 16, seeds 1-2 (the variety's own
    method and brute)."""
    graphs = graph_catalog(1, 3)
    runs = [(make_rf_instance(g, h), "brute") for g in graphs for h in graphs]
    for variety in ("abelian", "vspace", "boolean", "gset"):
        for seed in (1, 2):
            for inst in sample_rf_instances(variety, 12, 16, seed=seed):
                runs += [(inst, variety), (inst, "brute")]
    ws = []
    for inst, method in runs:
        stats = SearchStats()
        ws.append((_values(fixed_z_right_factor(inst, method, stats=stats)),
                   stats.nodes, stats.root_pruned))
    return (sum(w[1] for w in ws), sum(w[2] for w in ws), _digest(ws),
            sum(w[0] != (None,) for w in ws), len(ws))


def test_fixed_z_right_factor_pinned():
    # measured before the pipeline stopped restricting Y to h^-1(im f): the
    # h-fibers over im f already confine g there, so nothing may move
    assert _fixed_z_pinned_runs() == (325, 527, "1beda0880c5d779f", 142, 241)


def test_fcore_node_counts_pinned():
    # the moving search (brute_fcore, is_fcore) and the non-moving one
    # (abelian_fcore, 5 of whose 13 samples are inapplicable and fall back
    # to brute_fcore under the same budget); brute's total dropped from 330
    # when its decremental steps came to share one engine, which no longer
    # re-refutes the elements an earlier step settled
    assert _fcore_pinned_runs() == {
        "brute": (282, "79910aee74e5ecf7", 481, 52),
        "is_fcore": (274, "525e1d52237dfdb6", 6, 52),
        "abelian": (39, "60c6964ca331be8a", 93, 13),
    }


def _side_condition_runs():
    """(total nodes, total root_pruned, witness digest, yes answers,
    decisions) per search that carries a side condition: the channel
    h(g(x)) = f(x) with a non-identity f (full factors), injectivity
    (isomorphisms) and the channel with f = identity (retractions)."""
    out = {}
    graphs = graph_catalog(1, 3)
    rfs = [make_rf_instance(g, h) for g in graphs for h in graphs]
    insts = [FactorizationInstance("full-factor", i.X, i.Y, i.Z, f=i.f) for i in rfs]
    encs = [encode_semigroup(g)[0] for g in graph_catalog(2, 4)]
    digraphs = graph_catalog(2, 4, directed=True, connected=True)[::5]
    unary = [encode_unary(g, theorem_grade=True)[0] for g in digraphs]
    runs = {
        "full-factor": [lambda s, i=i: find_factorization(i, stats=s) for i in insts],
        "isomorphism": [lambda s, a=a, b=b: (decide_isomorphism(a, b, stats=s),)
                        for a in encs for b in encs],
        "retraction": [lambda s, a=a, b=b: decide_retraction(a, b, stats=s)
                       for a in unary for b in unary],
    }
    for kind, calls in runs.items():
        stats = SearchStats()
        ws = [_values(*(call(stats) or (None,))) for call in calls]
        out[kind] = (stats.nodes, stats.root_pruned, _digest(ws),
                     sum(w != (None,) for w in ws), len(ws))
    return out


def test_side_condition_searches_pinned():
    # measured while the side conditions ran as Python callbacks on each
    # newly fixed variable, before they became compiled entries
    assert _side_condition_runs() == {
        "full-factor": (314, 3420, "550356512c6ae4f7", 34, 49),
        "isomorphism": (451, 0, "74e05a0912f4050f", 17, 289),
        "retraction": (1818, 648552, "823ff20b4e81bc8d", 47, 1849),
    }


def _relabelled(alg, seed):
    """alg with element x renamed p[x], p a seeded permutation."""
    p = np.random.default_rng(seed).permutation(alg.size)
    inv = np.argsort(p)
    tables = {name: p[alg.nd(name)[np.ix_(*[inv] * k)] if k else alg.table(name)].reshape(-1)
              for name, k in alg.signature.ops}
    return FiniteAlgebra(alg.signature, alg.size, tables)


def _wide_target_runs():
    """(total nodes, total root_pruned, witness digest, yes answers,
    decisions) per entry kind on targets of 64-200 elements, whose masks
    take one to four uint64 words: isomorphisms (injectivity), retractions
    (the channel), brute_fcore (idempotence) and homomorphisms of ternary
    lifts (arity 3 tables); then one enumeration's (nodes, digest, length)
    and the node count at which a node limit of 50 fires. make_boolean(7)
    and Z_2^7 use value 127, the top bit of a second word."""
    z2, z4, b7 = make_abelian([2] * 7), make_abelian([4, 4, 4]), make_boolean(7)
    z3, z42 = make_abelian([3] * 4), make_abelian([4, 2, 2, 2, 2, 2])
    z200 = make_abelian([2, 10, 10])
    rng = np.random.default_rng(11)
    lifts = []
    for n in (65, 100):
        small = rng.integers(0, 4, (4, 4))
        big = rng.integers(0, n, (n, n))
        big[:4, :4] = small  # the small magma embeds as the first elements
        magma = [FiniteAlgebra([("mul", 2)], k, {"mul": t.reshape(-1)})
                 for k, t in ((4, small), (n, big), (n, rng.integers(0, n, (n, n))))]
        lifts += [(lift_nary(magma[0], 3), lift_nary(m, 3)) for m in magma[1:]]
    fx = make_vspace(2, 7)
    runs = {
        "isomorphism": [lambda s, a=a, b=b: (decide_isomorphism(a, b, stats=s),)
                        for a, b in ((z2, _relabelled(z2, 1)), (b7, b7), (z4, _relabelled(z4, 2)),
                                     (z3, _relabelled(z3, 3)), (z200, _relabelled(z200, 5)))],
        "retraction": [lambda s, a=a, b=b: decide_retraction(a, b, stats=s)
                       for a, b in ((z2, _relabelled(z2, 4)), (make_boolean(3), b7), (b7, b7),
                                    (z4, z4), (z4, z2), (z4, z42), (make_abelian([3]), z3),
                                    (make_abelian([10]), z200))],
        "fcore": [lambda s, f=f: (brute_fcore(fx, f, stats=s).retraction,)
                  for f in (Mapping(128, 2, tuple(x & 1 for x in range(128))),
                            Mapping(128, 4, tuple(x >> 5 for x in range(128))))],
        "hom": [lambda s, a=a, b=b: (find_homomorphism(a, b, stats=s),) for a, b in lifts],
    }
    out = {}
    for kind, calls in runs.items():
        stats = SearchStats()
        ws = [_values(*(call(stats) or (None,))) for call in calls]
        out[kind] = (stats.nodes, stats.root_pruned, _digest(ws),
                     sum(w != (None,) for w in ws), len(ws))
    stats = SearchStats()
    homs = enumerate_homomorphisms(make_abelian([2, 2]), z2, 300, stats=stats)
    out["enumerate"] = (stats.nodes, _digest([m.values for m in homs]), len(homs))
    stats = SearchStats(node_limit=50)
    with pytest.raises(NodeLimitReached):
        decide_isomorphism(z2, z42, stats=stats)
    out["node limit"] = stats.nodes
    return out


def test_wide_target_searches_pinned():
    # measured while targets past 64 elements ran the Python propagate
    assert _wide_target_runs() == {
        "isomorphism": (31, 2459, "e19b00ec8e8171ab", 5, 5),
        "retraction": (34, 30541, "ce6d1f68908435b4", 6, 8),
        "fcore": (13, 94, "2df4e5009e5a330e", 2, 2),
        "hom": (72, 0, "57aa802b08162a17", 4, 4),
        "enumerate": (303, "d8ca8c0ff2bd6fd2", 300),
        "node limit": 51,
    }


def test_each_variable_is_queued_once_per_propagate(monkeypatch):
    # a variable enters the queue once, when its domain becomes a singleton,
    # so within one propagate call the trail makes no variable a singleton
    # twice, nor one that was queued before the call; after a fixpoint the
    # queue is empty, every queued variable popped, and after a wipeout it
    # holds distinct variables queued in this call. Read from the C
    # engine's trail and queue, on each state the reference search
    # propagates, written into a fresh engine's words through the numpy
    # view, and the C outcome must be the reference's; over searches with
    # masks of one word and, into a 128-element target, of two
    sizes, words = [], set()
    arrays = {name: getattr(solver, name) for name in reference.SIDES}

    def engine(pairs, domains, stats, *, order="mrv", side=None):
        entries = () if side is None else getattr(reference, side[0])(*side[1])
        eng = reference.Engine(pairs, domains, stats, order=order, side=entries)
        compiled = [(a.size, b.size, solver._ops(a, b)) for a, b in pairs]
        side_arrays = None if side is None else arrays[side[0]](*side[1])
        zeros = [np.zeros_like(d) for d in domains]
        plain = eng.propagate

        def propagate():
            queued, mark = list(eng.queue), len(eng.trail)
            assert all(not eng.dom[v] & (eng.dom[v] - 1) for v in queued)
            state = _native.engine(compiled, side_arrays, zeros, False)
            view = np.asarray(state)
            view[:] = reference._word_rows(eng.dom, view.shape[1])
            ok = state.propagate(queued)
            dom = _ints(view)
            trail = [(v, reference._mask(old)) for v, old in state.trail]
            queue = state.queue
            words.add(view.shape[1])  # uint64 words per mask
            assert (plain(), eng.dom, eng.trail[mark:], eng.queue) == (ok, dom, trail, queue)
            after = {}  # the mask each record's change left: the next record's, or dom's
            for var, old in reversed(trail):
                new = after.get(var, dom[var])
                if old & (old - 1) and not new & (new - 1):
                    queued.append(var)
                after[var] = old
            assert len(queued) == len(set(queued))
            assert not queue if ok else len(queue) == len(set(queue)) <= len(queued)
            assert set(queue) <= set(queued)
            sizes.append(len(queued) - len(queue))
            return ok

        eng.propagate = propagate
        return eng

    reference.use(monkeypatch, engine)
    encs = [encode_semigroup(g)[0] for g in graph_catalog(2, 3)]
    retractions = [decide_retraction(x, y) for x in encs for y in encs]
    digraphs = graph_catalog(2, 4, directed=True, connected=True)[::15]
    unary = [encode_unary(g, theorem_grade=True)[0] for g in digraphs]
    homs = [find_homomorphism(a, b) for a in unary for b in unary]
    cores = [brute_fcore(x, f, z) for x, z, f in map(make_fcore_instance, graph_catalog(1, 4))]
    wide = decide_retraction(make_boolean(3), make_boolean(7))
    assert any(retractions) and any(homs) and cores and wide
    assert len(sizes) > 1000 and max(sizes) > 1
    assert words == {1, 2}
