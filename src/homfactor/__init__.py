"""Toolkit for finite algebras presented as operation tables: homomorphism
factorization decisions, graph-to-algebra reductions with decoders, and
f-core computation."""

from .algebra import (
    AlgebraError,
    ClosureError,
    FiniteAlgebra,
    Mapping,
    PropertyReport,
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
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    graph_catalog,
    graph_core,
    graph_hom,
    graph_retract,
    graphs_isomorphic,
    is_graph_hom,
    is_strong_graph_hom,
    path_graph,
    strong_graph_hom,
    subgraph_embedding,
    validate_graph,
)
from .solver import (
    FactorizationInstance,
    InstanceError,
    NodeLimitReached,
    SearchStats,
    decide,
    decide_isomorphism,
    decide_retraction,
    enumerate_homomorphisms,
    find_factorization,
    find_homomorphism,
    find_left_factor,
    find_right_factor,
    verify_witness,
)
from .encodings import (
    DecodeError,
    EncodingError,
    Gadgets,
    Legend,
    decode_hom,
    encode_magma,
    encode_semigroup,
    encode_unary,
    lift_graph_hom,
    lift_nary,
    make_fcore_instance,
    make_gadgets,
    make_lf_instance,
    make_rf_instance,
    make_semilattice_X,
    make_unary_lf_instance,
)
from .fcore import (
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

__version__ = "0.1.0"
