import itertools

import pytest

from homfactor.algebra import (
    FiniteAlgebra,
    Mapping,
    check_properties,
    is_homomorphism,
    validate_algebra,
)
from homfactor.encodings import (
    MUL_SIGNATURE,
    DecodeError,
    EncodingError,
    Legend,
    decode_hom,
    encode_magma,
    encode_semigroup,
    encode_unary,
    lift_graph_hom,
    lift_nary,
    make_fcore_instance,
    make_lf_instance,
    make_rf_instance,
    make_semilattice_X,
    make_unary_lf_instance,
)
from homfactor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_catalog,
    graph_hom,
    is_graph_hom,
    is_strong_graph_hom,
    path_graph,
    subgraph_embedding,
)
from homfactor.solver import enumerate_homomorphisms, find_homomorphism, find_right_factor

K2, K3, K4, C4 = complete_graph(2), complete_graph(3), complete_graph(4), cycle_graph(4)


def _by_label(alg):
    return {lab: i for i, lab in enumerate(alg.labels)}


# ---------------------------------------------------------------- unary


def test_unary_universe_count():
    g = Graph.digraph(2, [(0, 1)])
    alg, legend = encode_unary(g)
    assert alg.size == 2 * 2 + 2 * 1
    assert validate_algebra(alg) == []
    assert legend.kind == "unary-dagger"


def test_unary_table_rules():
    g = Graph.digraph(2, [(0, 1)])
    alg, _ = encode_unary(g)
    ix = _by_label(alg)
    # copies: f sends both copies to copy 1, g to copy 2
    assert alg.apply("f", ix["v0_1"]) == ix["v0_1"]
    assert alg.apply("f", ix["v0_2"]) == ix["v0_1"]
    assert alg.apply("g", ix["v0_1"]) == ix["v0_2"]
    assert alg.apply("g", ix["v0_2"]) == ix["v0_2"]
    # arc elements: f(a) = source copy 1, f(b) = target copy 2, g swaps a and b
    assert alg.apply("f", ix["a_v0_v1"]) == ix["v0_1"]
    assert alg.apply("f", ix["b_v0_v1"]) == ix["v1_2"]
    assert alg.apply("g", ix["a_v0_v1"]) == ix["b_v0_v1"]
    assert alg.apply("g", ix["b_v0_v1"]) == ix["a_v0_v1"]
    # chase: f(g(f(a))) = f(g(v0_1)) = f(v0_2) = v0_1
    e = ix["a_v0_v1"]
    assert alg.apply("f", alg.apply("g", alg.apply("f", e))) == ix["v0_1"]


def test_unary_copy2_fixed_point_characterization():
    g = Graph.digraph(3, [(0, 1), (1, 2), (2, 0)])
    alg, legend = encode_unary(g)
    fixed = {
        e
        for e in range(alg.size)
        if alg.apply("g", alg.apply("f", e)) == e
    }
    copy2 = {i for i, role in enumerate(legend.entries) if role[:1] == ("vertex-copy",) and role[2] == 2}
    assert fixed == copy2


def test_unary_preconditions():
    with pytest.raises(EncodingError):
        encode_unary(K2)  # undirected input
    with pytest.raises(EncodingError):
        encode_unary(Graph.digraph(2, [(0, 0)]))  # loop
    # disconnected input fine raw, rejected at theorem grade
    disc = Graph.digraph(3, [(0, 1)])
    encode_unary(disc)
    with pytest.raises(EncodingError):
        encode_unary(disc, theorem_grade=True)
    with pytest.raises(EncodingError):
        encode_unary(Graph.digraph(1, []), theorem_grade=True)
    # no vertex, no element: the carrier would be empty
    with pytest.raises(EncodingError, match="graph has 0 vertices, need at least 1"):
        encode_unary(Graph.digraph(0, []))
    assert encode_unary(Graph.digraph(1, []))[0].size == 2


# ---------------------------------------------------------------- magma


def test_magma_universe_and_rules():
    g = Graph.undirected(2, [])
    alg, legend = encode_magma(g)
    assert alg.size == 2 * 2 + 4
    assert validate_algebra(alg) == []
    ix = _by_label(alg)
    # distinguished cycle a·a = b, b·b = c, c·c = d, d·d = a
    assert alg.apply("mul", ix["a"], ix["a"]) == ix["b"]
    assert alg.apply("mul", ix["b"], ix["b"]) == ix["c"]
    assert alg.apply("mul", ix["c"], ix["c"]) == ix["d"]
    assert alg.apply("mul", ix["d"], ix["d"]) == ix["a"]
    # non-adjacent distinct copy-1 pair multiplies to d
    assert alg.apply("mul", ix["v0_1"], ix["v1_1"]) == ix["d"]
    # copy-2 products: distinct pairs give b, diagonal d, cross copies c/d
    assert alg.apply("mul", ix["v0_2"], ix["v1_2"]) == ix["b"]
    assert alg.apply("mul", ix["v0_2"], ix["v0_2"]) == ix["d"]
    assert alg.apply("mul", ix["v0_1"], ix["v0_2"]) == ix["c"]
    assert alg.apply("mul", ix["v0_1"], ix["v1_2"]) == ix["d"]
    # vertex copies absorb distinguished elements on both sides
    assert alg.apply("mul", ix["v0_1"], ix["c"]) == ix["v0_1"]
    assert alg.apply("mul", ix["c"], ix["v0_1"]) == ix["v0_1"]


def test_magma_edge_rule():
    alg, _ = encode_magma(K2)
    ix = _by_label(alg)
    assert alg.apply("mul", ix["v0_1"], ix["v1_1"]) == ix["a"]
    assert alg.apply("mul", ix["v1_1"], ix["v0_1"]) == ix["a"]


def test_magma_never_associative():
    for g in graph_catalog(2, 4):
        alg, _ = encode_magma(g)
        assert not check_properties(alg, "mul").associative


def test_magma_preconditions():
    with pytest.raises(EncodingError):
        encode_magma(K2.as_directed())
    with pytest.raises(EncodingError):
        encode_magma(Graph.undirected(1, []))


# ---------------------------------------------------------------- semigroup


def test_semigroup_universe_c4():
    alg, legend = encode_semigroup(C4)
    # 4 vertices + 4 self pairs + {0,2}, {1,3} + four distinguished
    assert alg.size == 14
    chis = [role for role in legend.entries if role[0] == "chi"]
    assert chis == [
        ("chi", 0, 0), ("chi", 1, 1), ("chi", 2, 2), ("chi", 3, 3),
        ("chi", 0, 2), ("chi", 1, 3),
    ]
    assert validate_algebra(alg) == []


def test_semigroup_table_rules():
    alg, _ = encode_semigroup(C4)
    ix = _by_label(alg)
    assert alg.apply("mul", ix["b"], ix["b"]) == ix["b2"]
    assert alg.apply("mul", ix["b"], ix["v0"]) == ix["c"]
    assert alg.apply("mul", ix["v0"], ix["b"]) == ix["c"]
    # adjacency: edge -> c, non-edge -> pair element
    assert alg.apply("mul", ix["v0"], ix["v1"]) == ix["c"]
    assert alg.apply("mul", ix["v0"], ix["v2"]) == ix["chi_v0_v2"]
    assert alg.apply("mul", ix["v0"], ix["v0"]) == ix["chi_v0_v0"]
    # everything else is absorbed by 0
    assert alg.apply("mul", ix["b2"], ix["b"]) == ix["0"]
    assert alg.apply("mul", ix["c"], ix["c"]) == ix["0"]
    assert alg.apply("mul", ix["chi_v0_v0"], ix["v0"]) == ix["0"]


def test_semigroup_associative_commutative():
    for g in graph_catalog(1, 4):
        alg, _ = encode_semigroup(g)
        rep = check_properties(alg, "mul")
        assert rep.associative and rep.commutative


def _reference_magma(g):
    """The magma encoding entry by entry through FiniteAlgebra.from_function."""
    names = ("a", "b", "c", "d")
    roles = [("distinguished", t) for t in names]
    roles += [("vertex-copy", v, copy) for copy in (1, 2) for v in range(g.n)]
    labels = list(names) + [f"v{v}_{copy}" for copy in (1, 2) for v in range(g.n)]
    index = {r: i for i, r in enumerate(roles)}
    squares = {"a": "b", "b": "c", "c": "d", "d": "a"}

    def mul(x, y):
        rx, ry = roles[x], roles[y]
        if rx[0] == ry[0] == "distinguished":
            tag = squares[rx[1]] if rx == ry else "a"
        elif rx[0] == "distinguished":
            return y
        elif ry[0] == "distinguished":
            return x
        else:
            (_, u, i), (_, v, j) = rx, ry
            if i == j == 1:
                tag = "a" if g.has_edge(u, v) else "d"
            elif i == j == 2:
                tag = "d" if u == v else "b"
            else:
                tag = "c" if u == v else "d"
        return index[("distinguished", tag)]

    return FiniteAlgebra.from_function(MUL_SIGNATURE, len(roles), {"mul": mul}, labels), roles


def _reference_semigroup(g):
    """The semigroup encoding entry by entry through FiniteAlgebra.from_function."""
    roles = [("vertex-copy", v, 1) for v in range(g.n)]
    roles += [("chi", v, v) for v in range(g.n)]
    roles += [("chi", u, v) for u in range(g.n) for v in range(u + 1, g.n)
              if not g.has_edge(u, v)]
    roles += [("distinguished", t) for t in ("b", "b2", "c", "0")]
    labels = [f"v{r[1]}" if r[0] == "vertex-copy" else
              f"chi_v{r[1]}_v{r[2]}" if r[0] == "chi" else r[1] for r in roles]
    index = {r: i for i, r in enumerate(roles)}
    b, b2, c, zero = (index[("distinguished", t)] for t in ("b", "b2", "c", "0"))

    def mul(x, y):
        vx, vy = roles[x][0] == "vertex-copy", roles[y][0] == "vertex-copy"
        if x == y == b:
            return b2
        if (vx and y == b) or (x == b and vy):
            return c
        if vx and vy:
            u, v = sorted((roles[x][1], roles[y][1]))
            return c if g.has_edge(u, v) else index[("chi", u, v)]
        return zero

    return FiniteAlgebra.from_function(MUL_SIGNATURE, len(roles), {"mul": mul}, labels), roles


def test_encoders_match_entrywise_reference():
    graphs = graph_catalog(1, 5)
    assert len(graphs) == 52
    for g in graphs:
        encoders = [(encode_semigroup, _reference_semigroup, "semigroup-XG")]
        if g.n >= 2:
            encoders.append((encode_magma, _reference_magma, "magma-star"))
        for encode, reference, kind in encoders:
            alg, legend = encode(g)
            ref, roles = reference(g)
            assert alg == ref and alg.labels == ref.labels, (kind, g)
            assert legend == Legend(kind, tuple(roles))


# ---------------------------------------------------------------- gadgets


def test_gadget_target_semigroup_table(gadgets):
    z = gadgets.target_semigroup
    ix = _by_label(z)
    assert z.apply("mul", ix["a"], ix["a"]) == ix["c"]
    assert z.apply("mul", ix["a"], ix["b"]) == ix["c"]
    assert z.apply("mul", ix["b"], ix["a"]) == ix["c"]
    assert z.apply("mul", ix["b"], ix["b"]) == ix["b2"]
    zero = ix["0"]
    others = [
        (x, y)
        for x in range(5)
        for y in range(5)
        if (ix["a"], ix["a"]) != (x, y)
        and (x, y) not in ((ix["a"], ix["b"]), (ix["b"], ix["a"]), (ix["b"], ix["b"]))
    ]
    assert all(z.apply("mul", x, y) == zero for x, y in others)
    # exhaustive associativity over all 125 triples
    assert all(
        z.apply("mul", z.apply("mul", x, y), w) == z.apply("mul", x, z.apply("mul", y, w))
        for x, y, w in itertools.product(range(5), repeat=3)
    )


def test_gadget_source_semigroup_table(gadgets):
    src = gadgets.source_semigroup
    ix = _by_label(src)
    assert src.apply("mul", ix["a"], ix["a"]) == ix["a2"]
    assert src.apply("mul", ix["a"], ix["b"]) == ix["c"]
    assert src.apply("mul", ix["b"], ix["a"]) == ix["c"]
    assert src.apply("mul", ix["b"], ix["b"]) == ix["b2"]
    assert check_properties(src, "mul").associative


def test_gadget_flat_semilattice(gadgets):
    flat = gadgets.flat_semilattice
    ix = _by_label(flat)
    assert flat.apply("meet", ix["a"], ix["a"]) == ix["a"]
    assert flat.apply("meet", ix["a"], ix["b"]) == ix["0"]
    assert flat.apply("meet", ix["b"], ix["c"]) == ix["0"]
    assert flat.apply("meet", ix["a"], ix["c"]) == ix["0"]
    assert check_properties(flat, "meet").meet_semilattice


def test_gadget_two_point_unary(gadgets):
    x = gadgets.two_point_unary
    assert x.size == 2
    assert x.apply("f", 0) == 0 and x.apply("f", 1) == 0
    assert x.apply("g", 0) == 1 and x.apply("g", 1) == 1


# ---------------------------------------------------------------- instances


def test_rf_instance_maps(gadgets):
    inst = make_rf_instance(C4, K2)
    ix = _by_label(inst.X)
    zx = _by_label(inst.Z)
    assert inst.f.values[ix["chi_v0_v2"]] == zx["c"]
    assert inst.f.values[ix["c"]] == zx["c"]
    assert inst.f.values[ix["v0"]] == zx["a"]
    assert inst.f.values[ix["b"]] == zx["b"]
    assert len(inst.f.image) == 5 and len(inst.h.image) == 5
    assert inst.problems() == []


def test_rf_instance_solvability_matches_graph_hom():
    assert find_right_factor(make_rf_instance(K2, K2)) is not None
    assert find_right_factor(make_rf_instance(K3, K2)) is None


def test_lf_instance_maps(gadgets):
    inst = make_lf_instance(K2, K2)
    # g sends the source's a to the isolated vertex of the augmented right side
    yx = _by_label(inst.Y)
    sx = _by_label(inst.X)
    assert inst.g.values[sx["a"]] == yx["v2"]
    assert inst.g.values[sx["a2"]] == yx["chi_v2_v2"]
    assert inst.f.values[sx["c"]] == _by_label(inst.Z)["c"]
    assert inst.problems() == []


def test_lf_instance_solvability():
    from homfactor.solver import find_left_factor

    assert find_left_factor(make_lf_instance(K2, K2)) is not None
    # needs hom K3 -> K2: unsolvable
    assert find_left_factor(make_lf_instance(K2, K3)) is None
    assert find_left_factor(make_lf_instance(K3, K2)) is not None


def test_lf_instance_preconditions():
    with pytest.raises(EncodingError):
        make_lf_instance(Graph.undirected(2, []), K2)  # disconnected
    with pytest.raises(EncodingError):
        make_lf_instance(K2, Graph.undirected(1, []))


def test_unary_lf_instance(gadgets):
    from homfactor.solver import find_left_factor

    inst = make_unary_lf_instance(K2.as_directed(), K2.as_directed())
    assert inst.X.size == 2
    assert inst.problems() == []
    assert find_left_factor(inst) is not None
    # solvable iff the graphs map: K3 -> K2 does not
    assert find_left_factor(make_unary_lf_instance(K3.as_directed(), K2.as_directed())) is None
    assert find_left_factor(make_unary_lf_instance(K2.as_directed(), K3.as_directed())) is not None


def test_unary_lf_matches_dagger_hom():
    cat = [g.as_directed() for g in (K2, K3, path_graph(3))]
    from homfactor.solver import find_left_factor

    for h, j in itertools.product(cat, repeat=2):
        inst = make_unary_lf_instance(h, j)
        ah, _ = encode_unary(h)
        aj, _ = encode_unary(j)
        assert (find_left_factor(inst) is not None) == (
            find_homomorphism(ah, aj) is not None
        )


# ---------------------------------------------------------------- lifts


def test_lift_nary_values(gadgets):
    z = gadgets.target_semigroup
    t = lift_nary(z, 3)
    ix = _by_label(z)
    # t(a, a, b) = a·a = c, and the third argument never matters
    assert t.apply("t", ix["a"], ix["a"], ix["b"]) == ix["c"]
    for x, y in itertools.product(range(5), repeat=2):
        vals = {t.apply("t", x, y, w) for w in range(5)}
        assert vals == {z.apply("mul", x, y)}
    assert validate_algebra(t) == []


def test_lift_preserves_homomorphisms(gadgets):
    z, src = gadgets.target_semigroup, gadgets.source_semigroup
    for a, b in ((z, z), (z, src), (src, z)):
        direct = enumerate_homomorphisms(a, b, limit=2000)
        lifted = enumerate_homomorphisms(lift_nary(a, 3), lift_nary(b, 3), limit=2000)
        assert [m.values for m in direct] == [m.values for m in lifted]


def test_lift_rejects_wrong_signature(gadgets):
    from homfactor.algebra import AlgebraError

    with pytest.raises(AlgebraError):
        lift_nary(gadgets.two_point_unary, 3)
    with pytest.raises(AlgebraError):
        lift_nary(gadgets.target_semigroup, 2)


# ---------------------------------------------------------------- chain semilattices


def test_semilattice_family_small():
    alg, legend, f = make_semilattice_X(1)
    assert alg.size == 5
    ix = _by_label(alg)
    assert alg.apply("meet", ix["a1"], ix["c1"]) == ix["v_c1"]
    assert alg.apply("meet", ix["b"], ix["a1"]) == ix["v_a1"]
    assert alg.apply("meet", ix["b"], ix["c1"]) == ix["v_c1"]
    # f(a1 ∧ b) = f(v_a1) = 0 matches a ∧ b = 0 in the flat gadget
    assert f.values[alg.apply("meet", ix["a1"], ix["b"])] == 0


def test_semilattice_defining_meets_n3():
    alg, legend, f = make_semilattice_X(3)
    assert alg.size == 4 * 3 + 1
    ix = _by_label(alg)
    for i in range(1, 4):
        assert alg.apply("meet", ix[f"a{i}"], ix[f"c{i}"]) == ix[f"v_c{i}"]
        assert alg.apply("meet", ix[f"b"], ix[f"a{i}"]) == ix[f"v_a{i}"]
        assert alg.apply("meet", ix[f"b"], ix[f"c{i}"]) == ix[f"v_c{i}"]
        if i < 3:
            assert alg.apply("meet", ix[f"a{i}"], ix[f"c{i+1}"]) == ix[f"v_a{i}"]
    # a_i ∧ c_j = v_c_j for j <= i
    for i in range(1, 4):
        for j in range(1, i + 1):
            assert alg.apply("meet", ix[f"a{i}"], ix[f"c{j}"]) == ix[f"v_c{j}"]


def test_semilattice_properties_up_to_4(gadgets):
    for n in range(1, 5):
        alg, _, f = make_semilattice_X(n)
        assert check_properties(alg, "meet").meet_semilattice
        assert validate_algebra(alg) == []
        assert is_homomorphism(f, alg, gadgets.flat_semilattice)
        assert len(f.image) == 4


# ---------------------------------------------------------------- fcore instance


def test_fcore_instance_k4(gadgets):
    x, z, f = make_fcore_instance(K4)
    assert x.size == 12  # 4 vertices + 4 self pairs + 4 distinguished
    ix = _by_label(x)
    zx = _by_label(z)
    assert f.values[ix["b"]] == zx["b"]
    assert f.values[ix["v0"]] == zx["a"]
    assert len(f.image) == 5
    assert is_homomorphism(f, x, z)


# ---------------------------------------------------------------- decode / lift


def test_decode_identity_unary():
    g = Graph.digraph(3, [(0, 1), (1, 2), (2, 0)])
    alg, legend = encode_unary(g)
    ident = Mapping.identity(alg.size)
    assert decode_hom(ident, legend, legend, alg, alg) == (0, 1, 2)


def test_decode_rf_witness_is_coloring():
    inst = make_rf_instance(C4, K2)
    w = find_right_factor(inst)
    _, lg = encode_semigroup(C4)
    _, lh = encode_semigroup(K2)
    phi = decode_hom(w, lg, lh, inst.X, inst.Y)
    assert is_graph_hom(phi, C4, K2)


def test_decode_magma_witness_is_strong_hom():
    a, la = encode_magma(K2)
    b, lb = encode_magma(K3)
    w = find_homomorphism(a, b)
    phi = decode_hom(w, la, lb, a, b)
    assert is_strong_graph_hom(phi, K2, K3)


def test_decode_rejects_kind_mismatch():
    _, lu = encode_unary(K2.as_directed())
    _, ls = encode_semigroup(K2)
    with pytest.raises(DecodeError):
        decode_hom(Mapping.identity(8), lu, ls)


def test_decode_reports_nonvertex_image(gadgets):
    # constant-to-zero homomorphism cannot be decoded: vertices leave
    # the vertex layer (it fails the composition identity precondition)
    a, la = encode_semigroup(K2)
    zero = a.labels.index("0")
    const = Mapping.constant(a.size, a.size, zero)
    assert is_homomorphism(const, a, a)
    with pytest.raises(DecodeError):
        decode_hom(const, la, la, a, a)


def test_roundtrip_unary():
    pairs = [(K2, K3), (K3, K3), (C4, C4), (K2, C4)]
    for g, h in pairs:
        dg, dh = g.as_directed(), h.as_directed()
        phi = graph_hom(dg, dh)
        if phi is None:
            continue
        ag, lg = encode_unary(dg)
        ah, lh = encode_unary(dh)
        psi = lift_graph_hom(phi, lg, lh)
        assert is_homomorphism(psi, ag, ah)
        assert decode_hom(psi, lg, lh, ag, ah) == phi


def test_roundtrip_magma_induced_embeddings():
    # the magma construction lifts exactly the injective strong homs
    pairs = [(K2, K3), (K2, C4), (C4, C4), (path_graph(3), C4)]
    for g, h in pairs:
        phi = subgraph_embedding(g, h, induced=True)
        if phi is None:
            continue
        ag, lg = encode_magma(g)
        ah, lh = encode_magma(h)
        psi = lift_graph_hom(phi, lg, lh)
        assert is_homomorphism(psi, ag, ah)
        assert decode_hom(psi, lg, lh, ag, ah) == phi


def test_roundtrip_semigroup():
    pairs = [(K2, K2), (C4, K2), (K3, K3), (path_graph(3), K3)]
    for g, h in pairs:
        phi = graph_hom(g, h)
        if phi is None:
            continue
        ag, lg = encode_semigroup(g)
        ah, lh = encode_semigroup(h)
        psi = lift_graph_hom(phi, lg, lh)
        assert is_homomorphism(psi, ag, ah)
        assert decode_hom(psi, lg, lh, ag, ah) == phi


def test_all_encoder_outputs_validate():
    for g in graph_catalog(1, 4):
        alg, _ = encode_semigroup(g)
        assert validate_algebra(alg) == []
        if g.n >= 2:
            alg, _ = encode_magma(g)
            assert validate_algebra(alg) == []
            alg, _ = encode_unary(g.as_directed())
            assert validate_algebra(alg) == []
