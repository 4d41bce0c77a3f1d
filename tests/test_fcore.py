import pytest
from conftest import brute_min_retraction_image

from homfactor.algebra import (
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    compose,
    induced_subalgebra,
    is_homomorphism,
    is_retraction_respecting,
)
from homfactor import _native, algebra, fcore, solver, varieties
from homfactor.encodings import make_fcore_instance, make_rf_instance, make_semilattice_X
from homfactor.fcore import (
    FCoreResult,
    InapplicableReport,
    abelian_fcore,
    boolean_fcore,
    brute_fcore,
    fixed_z_right_factor,
    gset_fcore,
    is_fcore,
    vspace_fcore,
)
from homfactor.graphs import complete_graph, cycle_graph, graph_catalog
from homfactor.solver import (
    FactorizationInstance,
    InstanceError,
    NodeLimitReached,
    SearchStats,
    find_right_factor,
)
from homfactor.varieties import (
    boolean_atoms,
    boolean_hom,
    make_abelian,
    make_boolean,
    make_gset,
    make_vspace,
    sample_fcore_instances,
    sample_rf_instances,
    vspace_hom,
)


# ---------------------------------------------------------------- brute


def test_brute_identity_f_fixes_everything(gadgets):
    z = gadgets.target_semigroup
    res = brute_fcore(z, Mapping.identity(5), z)
    assert res.retraction == Mapping.identity(5)
    assert res.image == (0, 1, 2, 3, 4)
    assert res.certified_minimal and res.method == "brute"


def test_brute_klein_projection_matches_exhaustive_oracle():
    v = make_abelian([2, 2])
    f = Mapping(4, 2, (0, 0, 1, 1))
    assert brute_min_retraction_image(v, f) == 2  # frozen from the 256-map scan
    res = brute_fcore(v, f, make_abelian([2]))
    assert len(res.image) == 2


def test_brute_z4_mod2_is_already_core():
    z4 = make_abelian([4])
    f = Mapping(4, 2, (0, 1, 0, 1))
    assert brute_min_retraction_image(z4, f) == 4
    res = brute_fcore(z4, f, make_abelian([2]))
    assert res.image == (0, 1, 2, 3)
    assert is_fcore(z4, f)


def test_brute_rejects_non_homomorphism():
    z4 = make_abelian([4])
    with pytest.raises(AlgebraError):
        brute_fcore(z4, Mapping(4, 2, (0, 0, 0, 1)), make_abelian([2]))


def test_brute_step_faults_fail_the_composite_check(monkeypatch):
    # the retraction search's maps are not re-verified as they are found:
    # brute_fcore checks only the last one, through _core, and is_fcore the
    # first one; a faulty search must still be caught by that one check
    v = make_abelian([2, 2])
    f = Mapping(4, 2, (0, 0, 1, 1))
    for bad in (
        (0, 1, 0, 1),  # an idempotent endomorphism, but f∘r != f
        (0, 0, 2, 3),  # idempotent and f-respecting, but 1 + 2 goes to 3, not 0 + 2
    ):
        for call in (brute_fcore, is_fcore):
            # the one map yielded, then no further retraction
            monkeypatch.setattr(fcore, "_retractions",
                                lambda x, f, stats, bad=bad: iter([Mapping(4, 4, bad)]))
            with pytest.raises(AssertionError):
                call(v, f, make_abelian([2]))


def _loop_instances():
    insts = [make_fcore_instance(g) for g in graph_catalog(1, 5)]
    for seed in (1, 2):
        for variety in ("gset", "vspace", "boolean", "abelian"):
            insts += sample_fcore_instances(variety, 20, 16, seed=seed)
    return insts


def test_retraction_loop_narrows_to_the_brute_image():
    steps = []
    for x, z, f in _loop_instances():
        maps = list(fcore._retractions(x, f, None))
        image = set(range(x.size))
        for r in maps:
            assert is_retraction_respecting(r, x, f)
            assert set(r.values) < image  # a proper subset of the one before
            image = set(r.values)
        assert brute_fcore(x, f, z).image == tuple(sorted(image))
        steps.append(len(maps))
    assert max(steps) >= 2  # some calls narrow more than once


def test_one_engine_per_fcore_call(monkeypatch):
    counts = {"engine": 0, "induced": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_native, "engine", counted("engine", _native.engine))
    monkeypatch.setattr(fcore, "induced_subalgebra",
                        counted("induced", fcore.induced_subalgebra))
    for x, z, f in _loop_instances():
        for call, induced in ((brute_fcore, 1), (is_fcore, 0)):
            counts.update(engine=0, induced=0)
            call(x, f, z)
            assert counts == {"engine": 1, "induced": induced}, call.__name__


def test_brute_deeper_than_the_recursion_limit():
    # the first search branches once per element: 1,500 levels, past
    # Python's default recursion limit of 1,000
    x = FiniteAlgebra([("u", 1)], 1500, {"u": list(range(1500))})
    f = Mapping(1500, 2, tuple(v % 2 for v in range(1500)))
    res = brute_fcore(x, f)
    assert res.image == (1, 2) and res.certified_minimal


def test_fcore_entry_points_validate_algebras():
    bad = FiniteAlgebra([("u", 1)], 2, {"u": [0, 5]})
    good = FiniteAlgebra([("u", 1)], 2, {"u": [0, 1]})
    for call in (brute_fcore, is_fcore):
        with pytest.raises(AlgebraError, match="malformed"):
            call(bad, Mapping.identity(2))
        with pytest.raises(AlgebraError, match="malformed"):
            call(good, Mapping.identity(2), bad)


def test_each_algebra_is_validated_once_per_call(monkeypatch):
    calls = []

    def counted(alg, real=algebra.validate_algebra):
        calls.append(alg)
        return real(alg)

    for module in (algebra, solver, fcore, varieties):
        # fcore validates through solver._malformed and needs no name of its own
        monkeypatch.setattr(module, "validate_algebra", counted, raising=False)
    methods = {"gset": gset_fcore, "vspace": vspace_fcore, "boolean": boolean_fcore,
               "abelian": abelian_fcore}
    for variety, call in methods.items():
        for x, z, f in sample_fcore_instances(variety, 5, 16, seed=3):
            calls.clear()
            call(x, f, z)
            assert len(calls) == 2, variety  # X and Z
    graphs = graph_catalog(1, 3)
    cases = [(make_rf_instance(g, h), "brute") for g in graphs for h in graphs]
    cases += [(inst, variety) for variety in methods
              for inst in sample_rf_instances(variety, 3, 12, seed=5)]
    for inst, method in cases:
        calls.clear()
        fixed_z_right_factor(inst, method)
        assert len(calls) == 3, method  # X, Y and Z, by inst.validate()


def test_node_limit_is_unknown_not_an_answer():
    x, z, f = make_fcore_instance(complete_graph(5))
    for call in (brute_fcore, is_fcore):
        with pytest.raises(NodeLimitReached):
            call(x, f, z, stats=SearchStats(node_limit=1))
    assert is_fcore(x, f, z, stats=SearchStats(node_limit=1000))


def test_node_limit_counts_every_search_of_one_call():
    # rows 10, 14 and 20 take two decremental steps that each search, and
    # the first step alone needs more than half of the call's nodes
    samples = sample_fcore_instances("gset", 21, 16, seed=3)
    for x, z, f in (samples[10], samples[14], samples[20]):
        stats = SearchStats()
        res = brute_fcore(x, f, z, stats=stats)
        again = brute_fcore(x, f, z, stats=SearchStats(node_limit=stats.nodes))
        assert again.retraction == res.retraction
        with pytest.raises(NodeLimitReached):
            brute_fcore(x, f, z, stats=SearchStats(node_limit=stats.nodes - 1))
    # the brute fallback of an inapplicable abelian_fcore is held to the budget
    x, z = make_abelian([2, 4]), make_abelian([2])
    f = Mapping(8, 2, tuple(v % 2 for v in range(8)))
    stats = SearchStats()
    assert isinstance(abelian_fcore(x, f, z, stats=stats), InapplicableReport)
    assert stats.nodes > 1
    assert isinstance(abelian_fcore(x, f, z, stats=SearchStats(node_limit=stats.nodes)),
                      InapplicableReport)
    with pytest.raises(NodeLimitReached):
        abelian_fcore(x, f, z, stats=SearchStats(node_limit=stats.nodes - 1))


def test_fixed_z_right_factor_counts_one_budget():
    # the f-core step takes 7, 15 and 7 nodes here, the restricted
    # right-factor search 1, 10 and 6: only a shared budget stops at the sum
    samples = sample_rf_instances("gset", 12, 16, seed=7)
    for inst in (samples[0], samples[1], samples[9]):
        stats = SearchStats()
        expected = fixed_z_right_factor(inst, "brute", stats=stats)
        assert fixed_z_right_factor(
            inst, "brute", stats=SearchStats(node_limit=stats.nodes)) == expected
        with pytest.raises(NodeLimitReached):
            fixed_z_right_factor(inst, "brute", stats=SearchStats(node_limit=stats.nodes - 1))


def test_is_fcore_examples():
    x, z, f = make_fcore_instance(complete_graph(4))
    assert is_fcore(x, f, z)
    alg, _, f1 = make_semilattice_X(1)
    assert is_fcore(alg, f1)
    z5 = make_abelian([5])
    assert is_fcore(z5, Mapping.identity(5), z5)


def test_fcore_result_invariants():
    x, z, f = make_fcore_instance(cycle_graph(4))
    res = brute_fcore(x, f, z)
    assert is_retraction_respecting(res.retraction, x, f)
    fixed = tuple(e for e in range(x.size) if res.retraction.values[e] == e)
    assert fixed == res.image
    sub, _ = induced_subalgebra(x, res.image)
    assert sub == res.core_algebra
    # re-running on the core returns the identity retraction
    f_core = Mapping(len(res.image), f.cod_size, tuple(f.values[e] for e in res.image))
    again = brute_fcore(res.core_algebra, f_core, z)
    assert again.retraction == Mapping.identity(len(res.image))


# ---------------------------------------------------------------- gset


def test_gset_trivial_group_merges_fibers():
    # trivial action: every element its own orbit; core size = |im f|
    x = make_gset([[0, 1, 2, 3]])
    z = make_gset([[0, 1]])
    f = Mapping(4, 2, (0, 0, 1, 1))
    res = gset_fcore(x, f, z)
    assert len(res.image) == 2
    assert len(brute_fcore(x, f, z).image) == 2


def test_gset_identical_free_orbits_merge():
    x = make_gset([[0, 1, 2, 3], [1, 0, 3, 2]])
    z = make_gset([[0, 1], [1, 0]])
    f = Mapping(4, 2, (0, 1, 0, 1))
    res = gset_fcore(x, f, z)
    assert len(res.image) == 2
    assert len(brute_fcore(x, f, z).image) == 2


def test_gset_single_orbit_is_core():
    x = make_gset([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    z = x
    f = Mapping.identity(3)
    res = gset_fcore(x, f, z)
    assert res.image == (0, 1, 2)


def test_gset_free_orbit_collapses_onto_fixed_point():
    # non-bijective equivariant merge: required for brute agreement
    x = make_gset([[0, 1, 2], [1, 0, 2]])
    z = make_gset([[0], [0]])
    f = Mapping(3, 1, (0, 0, 0))
    res = gset_fcore(x, f, z)
    assert len(res.image) == 1
    assert len(brute_fcore(x, f, z).image) == 1


def test_gset_rejects_invalid_action():
    bad = make_gset([[0, 0, 1]])
    with pytest.raises(AlgebraError):
        gset_fcore(bad, Mapping(3, 1, (0, 0, 0)))


# ---------------------------------------------------------------- vspace


def test_vspace_projection():
    f, x, z = vspace_hom(2, 2, 1, [[1, 0]])
    res = vspace_fcore(x, f, z)
    assert len(res.image) == 2
    assert len(brute_fcore(x, f, z).image) == 2


def test_vspace_injective_means_identity():
    f, x, z = vspace_hom(2, 2, 2, [[1, 0], [0, 1]])
    res = vspace_fcore(x, f, z)
    assert res.retraction == Mapping.identity(4)


def test_vspace_rank_nullity():
    f, x, z = vspace_hom(2, 3, 2, [[1, 0, 0], [0, 1, 0]])
    res = vspace_fcore(x, f, z)
    assert len(res.image) == 4
    assert len(brute_fcore(x, f, z).image) == 4


def test_vspace_rejects_f_not_constant_on_kernel_cosets():
    # the kernel {0, 1} is a subspace, but f separates 2 from 3 = 2 + 1
    with pytest.raises(AlgebraError, match="not constant on the cosets of its kernel"):
        vspace_fcore(make_vspace(2, 2), Mapping(4, 3, (0, 0, 1, 2)))


# ---------------------------------------------------------------- boolean


def test_boolean_small_surjection():
    x, z = make_boolean(2), make_boolean(1)
    f = boolean_hom(x, z, [boolean_atoms(x)[0]])
    res = boolean_fcore(x, f, z)
    assert len(res.image) == 2
    assert len(brute_fcore(x, f, z).image) == 2


def test_boolean_isomorphism_fixes_everything():
    x = make_boolean(2)
    f = boolean_hom(x, x, boolean_atoms(x))
    res = boolean_fcore(x, f, x)
    assert res.retraction == Mapping.identity(4)


def test_boolean_8_to_4():
    x, z = make_boolean(3), make_boolean(2)
    f = boolean_hom(x, z, [boolean_atoms(x)[0], boolean_atoms(x)[1]])
    res = boolean_fcore(x, f, z)
    assert len(res.image) == 4
    assert len(brute_fcore(x, f, z).image) == 4


# ---------------------------------------------------------------- abelian


def test_abelian_klein_projection_applies():
    x, z = make_abelian([2, 2]), make_abelian([2])
    f = Mapping(4, 2, (0, 0, 1, 1))
    res = abelian_fcore(x, f, z)
    assert isinstance(res, FCoreResult)
    assert len(res.image) == 2


def test_abelian_z6_splits():
    x, z = make_abelian([6]), make_abelian([3])
    f = Mapping(6, 3, tuple(v % 3 for v in range(6)))
    res = abelian_fcore(x, f, z)
    assert isinstance(res, FCoreResult)
    assert len(res.image) == 3


def test_abelian_z4_probe_inapplicable():
    x, z = make_abelian([4]), make_abelian([2])
    f = Mapping(4, 2, (0, 1, 0, 1))
    res = abelian_fcore(x, f, z)
    assert isinstance(res, InapplicableReport)
    assert res.fallback.image == (0, 1, 2, 3)
    assert res.fallback.method == "brute"


# ---------------------------------------------------------------- method agreement


def test_specialized_sizes_match_brute_on_samples():
    methods = {
        "abelian": lambda x, f, z: abelian_fcore(x, f, z),
        "vspace": vspace_fcore,
        "boolean": boolean_fcore,
        "gset": gset_fcore,
    }
    for variety, fn in methods.items():
        for x, z, f in sample_fcore_instances(variety, 5, 16, seed=23):
            res = fn(x, f, z)
            if isinstance(res, InapplicableReport):
                res = res.fallback
            oracle = brute_fcore(x, f, z)
            assert len(res.image) == len(oracle.image)
            assert is_retraction_respecting(res.retraction, x, f)


# ---------------------------------------------------------------- pipeline


def test_pipeline_image_condition_shortcut(gadgets):
    z = gadgets.target_semigroup
    # h constant to 0 cannot cover im(f) = all of Z
    inst = FactorizationInstance(
        "right-factor", z, z, z, f=Mapping.identity(5), h=Mapping.constant(5, 5, 0)
    )
    assert fixed_z_right_factor(inst, "brute") is None
    assert find_right_factor(inst) is None


def test_pipeline_takes_only_right_factor_instances(gadgets):
    z = gadgets.target_semigroup
    with pytest.raises(InstanceError, match="^expected a right-factor instance, got hom$"):
        fixed_z_right_factor(FactorizationInstance("hom", z, z), "brute")


def test_pipeline_agrees_on_semigroup_instances():
    k2, k3, c4 = complete_graph(2), complete_graph(3), cycle_graph(4)
    for g, h in ((k2, k2), (k3, k2), (c4, k2), (k2, c4)):
        inst = make_rf_instance(g, h)
        direct = find_right_factor(inst)
        piped = fixed_z_right_factor(inst, "brute")
        assert (direct is None) == (piped is None)
        if piped is not None:
            assert compose(inst.h, piped) == inst.f


def test_pipeline_agrees_on_variety_instances():
    for variety in ("abelian", "vspace", "boolean", "gset"):
        for inst in sample_rf_instances(variety, 3, 12, seed=5):
            direct = find_right_factor(inst)
            piped = fixed_z_right_factor(inst, variety)
            assert (direct is None) == (piped is None)
            if piped is not None:
                assert is_homomorphism(piped, inst.X, inst.Y)
                assert compose(inst.h, piped) == inst.f


def test_pipeline_witness_restricts_and_extends():
    # any full witness g, precomposed with an f-respecting retraction,
    # is again a witness; and its restriction to the core solves the
    # restricted instance
    inst = make_rf_instance(cycle_graph(4), complete_graph(2))
    g = find_right_factor(inst)
    res = brute_fcore(inst.X, inst.f, inst.Z)
    extended = compose(g, res.retraction)
    assert is_homomorphism(extended, inst.X, inst.Y)
    assert compose(inst.h, extended) == inst.f
    restricted = Mapping(
        len(res.image), inst.Y.size, tuple(g.values[e] for e in res.image)
    )
    f_core = Mapping(
        len(res.image), inst.Z.size, tuple(inst.f.values[e] for e in res.image)
    )
    assert is_homomorphism(restricted, res.core_algebra, inst.Y)
    assert compose(inst.h, restricted) == f_core
