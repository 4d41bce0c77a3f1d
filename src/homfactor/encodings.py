"""Graph-to-algebra encoders, fixed gadget algebras, instance builders,
decoders, n-ary lifts and the chain-semilattice family.

Three encoders, one per target signature, each filling its tables from
its element layout:

* unary: a digraph with n vertices becomes an algebra with two unary maps
  f and g. Vertex v is the elements 2v (copy 1) and 2v + 1 (copy 2); the
  k-th arc (u, v) in sorted order is the linked pair a = 2n + 2k and
  b = a + 1. f sends both copies of v to 2v, a to 2u and b to 2v + 1; g
  sends both copies of v to 2v + 1 and swaps a with b.
* magma: an undirected graph becomes a single non-associative binary
  operation over two copies of each vertex and four distinguished
  elements a, b, c, d; products of copy-1 elements read off adjacency.
* semigroup: an undirected graph becomes a commutative semigroup with
  one element per vertex, then one per non-adjacent pair (the self pairs,
  then the non-adjacent u < v), then the distinguished elements b, b2, c,
  0.

The chain semilattices X_n likewise compute each meet in closed form, from
the ranks of the value elements below its arguments (make_semilattice_X).

Legends record the role of every carrier element so witnesses can be
decoded back into vertex maps.

Each encoder and instance builder checks its graphs where they enter. The
maps make_rf_instance, make_lf_instance, make_unary_lf_instance and
make_fcore_instance build from the legends are homomorphisms for every
graph the encoders accept, so they are not checked here: the solver checks
each instance once when it decides it (FactorizationInstance.problems), and
the f-core entry points check f (fcore._check_inputs). Only surjectivity onto
the target is checked, since a graph with no vertex leaves the target's a
uncovered. make_semilattice_X's map onto the flat semilattice is likewise a
surjective homomorphism for every n >= 1, so it is not checked either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _MAX_TABLE_ENTRIES,
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    Signature,
    is_homomorphism,
)
from .graphs import Graph, validate_graph
from .solver import FactorizationInstance

__all__ = [
    "EncodingError",
    "DecodeError",
    "Legend",
    "Gadgets",
    "UNARY_SIGNATURE",
    "MUL_SIGNATURE",
    "MEET_SIGNATURE",
    "encode_unary",
    "encode_magma",
    "encode_semigroup",
    "make_gadgets",
    "make_rf_instance",
    "make_lf_instance",
    "make_unary_lf_instance",
    "lift_nary",
    "make_semilattice_X",
    "make_fcore_instance",
    "decode_hom",
    "lift_graph_hom",
]

UNARY_SIGNATURE = Signature((("f", 1), ("g", 1)))
MUL_SIGNATURE = Signature((("mul", 2),))
MEET_SIGNATURE = Signature((("meet", 2),))


class EncodingError(AlgebraError):
    """Input graph violates an encoder precondition."""


class DecodeError(AlgebraError):
    """A mapping cannot be decoded to a vertex map."""


@dataclass(frozen=True)
class Legend:
    """Role of every element of an encoded algebra.

    Roles are tuples: ("vertex-copy", v, 1|2), ("edge-elem", "a"|"b", u, v),
    ("chi", u, v) with u <= v, ("distinguished", tag), ("chain", tag, i).
    """

    kind: str
    entries: tuple[tuple, ...]
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {role: i for i, role in enumerate(self.entries)})

    def role_index(self) -> dict[tuple, int]:
        """Element of every role; one dict per legend, shared, not to be mutated."""
        return self._index

    def vertices(self) -> list[int]:
        return sorted(v for role in self.entries if role[0] == "vertex-copy" and role[2] == 1 for v in (role[1],))

    def vertex_element(self, v: int, copy: int = 1) -> int:
        return self.role_index()[("vertex-copy", v, copy)]


def _check(problems, what):
    if problems:
        raise EncodingError(f"{what}: " + "; ".join(problems))


def encode_unary(g: Graph, *, theorem_grade: bool = False):
    """Encode a loop-free digraph as an algebra with two unary operations.

    theorem_grade additionally requires the graph connected with at least
    two vertices; the raw encoding accepts disconnected input, which the
    instance builders use to attach isolated vertices, but needs one vertex
    for a non-empty carrier.
    """
    if not g.directed:
        raise EncodingError("unary encoding takes a directed graph")
    _check(validate_graph(g, loop_free=True, min_vertices=1), "unary encoding")
    if theorem_grade:
        _check(validate_graph(g, connected=True, min_vertices=2), "unary encoding")
    # vertex v is elements 2v (copy 1) and 2v + 1 (copy 2); the k-th sorted
    # arc (u, v) is a = 2n + 2k and b = a + 1
    roles, labels, f_tab, g_tab = [], [], [], []
    for v in range(g.n):
        roles += [("vertex-copy", v, 1), ("vertex-copy", v, 2)]
        labels += [f"v{v}_1", f"v{v}_2"]
        f_tab += [2 * v, 2 * v]
        g_tab += [2 * v + 1, 2 * v + 1]
    for u, v in sorted(g.edges):
        a = len(roles)
        roles += [("edge-elem", "a", u, v), ("edge-elem", "b", u, v)]
        labels += [f"a_v{u}_v{v}", f"b_v{u}_v{v}"]
        f_tab += [2 * u, 2 * v + 1]
        g_tab += [a + 1, a]
    alg = FiniteAlgebra(UNARY_SIGNATURE, len(roles), {"f": f_tab, "g": g_tab}, labels)
    return alg, Legend("unary-dagger", tuple(roles))


def encode_magma(g: Graph):
    """Encode an undirected graph as a single non-associative binary operation.

    Universe: distinguished a, b, c, d, then the copy-1 and the copy-2
    vertices. Among the distinguished elements aa = b, bb = c, cc = d,
    dd = a and every other product is a; a distinguished element times a
    vertex copy (either way round) is the copy. Two copy-1 vertices give a
    when adjacent and d otherwise; two copy-2 vertices give d when equal and
    b otherwise; a copy-1 and a copy-2 vertex give c when equal and d
    otherwise.
    """
    if g.directed:
        raise EncodingError("magma encoding takes an undirected graph")
    _check(validate_graph(g, loop_free=True, min_vertices=2), "magma encoding")
    roles = [("distinguished", t) for t in ("a", "b", "c", "d")]
    labels = ["a", "b", "c", "d"]
    for copy in (1, 2):
        for v in range(g.n):
            roles.append(("vertex-copy", v, copy))
            labels.append(f"v{v}_{copy}")
    a, b, c, d = range(4)
    n, size = g.n, len(roles)
    one, two = slice(4, 4 + n), slice(4 + n, size)
    copy1 = [[d] * n for _ in range(n)]
    for u, v in g.edges:
        copy1[u][v] = a
    same = np.eye(n, dtype=bool)
    table = np.full((size, size), a)
    table[range(4), range(4)] = (b, c, d, a)
    table[:4, 4:] = np.arange(4, size)
    table[4:, :4] = np.arange(4, size)[:, None]
    table[one, one] = copy1
    table[two, two] = np.where(same, d, b)
    table[one, two] = table[two, one] = np.where(same, c, d)
    alg = FiniteAlgebra(MUL_SIGNATURE, size, {"mul": table}, labels)
    return alg, Legend("magma-star", tuple(roles))


def encode_semigroup(g: Graph):
    """Encode an undirected graph as a commutative semigroup.

    Universe: one element per vertex; one element per unordered non-adjacent
    pair, including the self pair of every vertex; distinguished b, b2, c, 0.
    The product of two vertices is c when they are adjacent and their pair
    element otherwise; b acts as a vertex adjacent to everything.
    """
    if g.directed:
        raise EncodingError("semigroup encoding takes an undirected graph")
    _check(validate_graph(g, loop_free=True), "semigroup encoding")
    n = g.n
    # the chi elements follow the vertices: the self pairs, then the
    # non-adjacent u < v
    pairs = [(v, v) for v in range(n)]
    pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    tags = ("b", "b2", "c", "0")
    roles = ([("vertex-copy", v, 1) for v in range(n)] + [("chi", u, v) for u, v in pairs]
             + [("distinguished", tag) for tag in tags])
    labels = [f"v{v}" for v in range(n)] + [f"chi_v{u}_v{v}" for u, v in pairs] + list(tags)
    size = len(roles)
    b, b2, c, zero = range(size - 4, size)
    table = np.full((size, size), zero)
    table[:n, :n] = c  # adjacent vertices; the pair elements overwrite the rest
    for e, (u, v) in enumerate(pairs, n):
        table[u, v] = table[v, u] = e
    table[:n, b] = table[b, :n] = c
    table[b, b] = b2
    alg = FiniteAlgebra(MUL_SIGNATURE, size, {"mul": table}, labels)
    return alg, Legend("semigroup-XG", tuple(roles))


@dataclass(frozen=True)
class Gadgets:
    """The fixed algebras used as factorization targets and sources."""

    target_semigroup: FiniteAlgebra      # 0, a, b, b2, c
    source_semigroup: FiniteAlgebra      # 0, a, a2, b, b2, c
    flat_semilattice: FiniteAlgebra      # 0 below the antichain a, b, c
    two_point_unary: FiniteAlgebra       # encoding of a single isolated vertex


@functools.cache
def make_gadgets() -> Gadgets:
    """The gadget algebras, built once; every table is read-only."""
    target_labels = ("0", "a", "b", "b2", "c")
    nonzero = {(1, 1): 4, (1, 2): 4, (2, 1): 4, (2, 2): 3}
    target = FiniteAlgebra.from_function(
        MUL_SIGNATURE, 5, {"mul": lambda x, y: nonzero.get((x, y), 0)}, target_labels
    )

    source_labels = ("0", "a", "a2", "b", "b2", "c")
    src_nonzero = {(1, 1): 2, (1, 3): 5, (3, 1): 5, (3, 3): 4}
    source = FiniteAlgebra.from_function(
        MUL_SIGNATURE, 6, {"mul": lambda x, y: src_nonzero.get((x, y), 0)}, source_labels
    )

    flat_labels = ("0", "a", "b", "c")
    flat = FiniteAlgebra.from_function(
        MEET_SIGNATURE, 4, {"meet": lambda x, y: x if x == y else 0}, flat_labels
    )
    two_point, _ = encode_unary(Graph.digraph(1, []))
    return Gadgets(target, source, flat, two_point)


def _semigroup_to_target(alg: FiniteAlgebra, legend: Legend, target: FiniteAlgebra) -> Mapping:
    """Vertices to a, the distinguished 0/b/b2 to themselves, all else to c."""
    to = {"0": 0, "b": 2, "b2": 3}
    values = []
    for role in legend.entries:
        if role[0] == "vertex-copy":
            values.append(1)
        elif role[0] == "distinguished" and role[1] in to:
            values.append(to[role[1]])
        else:
            values.append(4)
    return Mapping(alg.size, target.size, values)


def make_rf_instance(g: Graph, h: Graph) -> FactorizationInstance:
    """Right-factor instance whose solvability matches graph homomorphism G -> H."""
    gadgets = make_gadgets()
    xg, legend_g = encode_semigroup(g)
    yh, legend_h = encode_semigroup(h)
    z = gadgets.target_semigroup
    f = _semigroup_to_target(xg, legend_g, z)
    hmap = _semigroup_to_target(yh, legend_h, z)
    for name, m in (("f", f), ("h", hmap)):
        if len(m.image) != z.size:
            raise EncodingError(f"{name} is not surjective; encode at least one vertex")
    return FactorizationInstance("right-factor", xg, yh, z, f=f, h=hmap)


def _source_into_semigroup(source, alg, legend, w):
    """Map 0,b,b2,c to their namesakes, a to the isolated vertex, a2 to its pair."""
    idx = legend.role_index()
    values = [
        idx[("distinguished", "0")],
        idx[("vertex-copy", w, 1)],
        idx[("chi", w, w)],
        idx[("distinguished", "b")],
        idx[("distinguished", "b2")],
        idx[("distinguished", "c")],
    ]
    return Mapping(source.size, alg.size, values)


def make_lf_instance(g: Graph, h: Graph) -> FactorizationInstance:
    """Left-factor instance whose solvability matches graph homomorphism H -> G.

    Both graphs get a fresh isolated vertex before encoding; the common
    source is the fixed six-element semigroup, pinned onto the isolated
    vertex on each side.
    """
    for name, graph in (("G", g), ("H", h)):
        _check(
            validate_graph(graph, loop_free=True, connected=True, min_vertices=2),
            f"left-factor instance, graph {name}",
        )
        if graph.directed:
            raise EncodingError("left-factor instance takes undirected graphs")
    gadgets = make_gadgets()
    g_aug, wg = g.with_isolated_vertex()
    h_aug, wh = h.with_isolated_vertex()
    xg, legend_g = encode_semigroup(g_aug)
    yh, legend_h = encode_semigroup(h_aug)
    source = gadgets.source_semigroup
    f = _source_into_semigroup(source, xg, legend_g, wg)
    gmap = _source_into_semigroup(source, yh, legend_h, wh)
    return FactorizationInstance("left-factor", source, yh, xg, f=f, g=gmap)


def make_unary_lf_instance(h: Graph, j: Graph) -> FactorizationInstance:
    """Left-factor instance over unary encodings; solvable iff hom H -> J exists.

    Each graph gets a fresh isolated vertex; the two-element source pins
    onto the copies of that vertex on both sides.
    """
    for name, graph in (("H", h), ("J", j)):
        if not graph.directed:
            raise EncodingError("unary left-factor instance takes digraphs")
        _check(
            validate_graph(graph, loop_free=True, connected=True, min_vertices=2),
            f"unary left-factor instance, graph {name}",
        )
    gadgets = make_gadgets()
    h_aug, vh = h.with_isolated_vertex()
    j_aug, vj = j.with_isolated_vertex()
    y, legend_y = encode_unary(h_aug)
    z, legend_z = encode_unary(j_aug)
    x = gadgets.two_point_unary
    f = Mapping(2, z.size, (legend_z.vertex_element(vj, 1), legend_z.vertex_element(vj, 2)))
    gmap = Mapping(2, y.size, (legend_y.vertex_element(vh, 1), legend_y.vertex_element(vh, 2)))
    return FactorizationInstance("left-factor", x, y, z, f=f, g=gmap)


def lift_nary(s: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """Replace a single binary operation by the n-ary t(x1..xn) = x1·x2.
    Raises AlgebraError, before allocating, when the table would hold more
    than _MAX_TABLE_ENTRIES entries."""
    if n < 3:
        raise AlgebraError("lift arity must be at least 3")
    if len(s.signature.ops) != 1 or s.signature.ops[0][1] != 2:
        raise AlgebraError("lift takes an algebra with exactly one binary operation")
    # the exponent capped at the limit's bit length, past which, for a size
    # >= 2, every power passes the limit
    if s.size ** min(n, _MAX_TABLE_ENTRIES.bit_length()) > _MAX_TABLE_ENTRIES:
        raise AlgebraError(f"lift to arity {n} needs {s.size}**{n} table entries, "
                           f"more than the limit of {_MAX_TABLE_ENTRIES}")
    # row-major, t's entry at (x1, x2, rest) is mul's at (x1, x2) for each of
    # the size**(n - 2) values of rest
    table = np.repeat(s.table(s.signature.ops[0][0]), s.size ** (n - 2))
    return FiniteAlgebra(Signature((("t", n),)), s.size, {"t": table}, s.labels)


def make_semilattice_X(n: int):
    """Meet-semilattice family with no small retraction over the flat gadget.

    Two incomparable ascending chains a_1..a_n and c_1..c_n, a value chain
    v_{c_1} < v_{a_1} < v_{c_2} < ... < v_{a_n}, and a top-ish element b
    above exactly the value chain. Elements: a_1..a_n, c_1..c_n, the value
    chain from its bottom (element 2n + r is its r-th), then b. Meets come
    from the value-chain caps, the rank of the greatest value element below
    an element: cap(a_{i+1}) = 2i + 1, cap(c_{i+1}) = 2i, cap(2n + r) = r
    and cap(b) = 2n. Within one of the chains a, c, and the value chain
    topped by b, x ∧ y = min(x, y); across two, x ∧ y = 2n + min(cap x,
    cap y). Raises AlgebraError, before building, when the (4n + 1)**2 table
    entries would pass _MAX_TABLE_ENTRIES. Returns (algebra, legend, map
    onto the flat semilattice).
    """
    if n < 1:
        raise AlgebraError("chain length must be at least 1")
    size = 4 * n + 1
    if size ** 2 > _MAX_TABLE_ENTRIES:
        raise AlgebraError(f"semilattice X_{n} needs {size}**2 table entries, "
                           f"more than the limit of {_MAX_TABLE_ENTRIES}")
    ns = range(1, n + 1)
    roles = ([("chain", "a", i) for i in ns] + [("chain", "c", i) for i in ns]
             + [("chain", "v" + t, i) for i in ns for t in "ca"] + [("distinguished", "b")])
    labels = ([f"a{i}" for i in ns] + [f"c{i}" for i in ns]
              + [f"v_{t}{i}" for i in ns for t in "ca"] + ["b"])
    e = np.arange(size)
    chain = np.minimum(e // n, 2)  # a, c, then the value chain with b on top
    cap = np.select([e < n, e < 2 * n], [2 * e + 1, 2 * (e - n)], e - 2 * n)
    meet = np.where(chain[:, None] == chain, np.minimum.outer(e, e),
                    2 * n + np.minimum.outer(cap, cap))
    alg = FiniteAlgebra(MEET_SIGNATURE, size, {"meet": meet}, labels)
    flat = make_gadgets().flat_semilattice
    values = [1] * n + [3] * n + [0] * (2 * n) + [2]  # a, c, the values, b
    return alg, Legend("semilattice-Xn", tuple(roles)), Mapping(size, flat.size, values)


def make_fcore_instance(g: Graph):
    """Semigroup encoding with its canonical map onto the five-element target."""
    gadgets = make_gadgets()
    xg, legend = encode_semigroup(g)
    z = gadgets.target_semigroup
    f = _semigroup_to_target(xg, legend, z)
    if len(f.image) != z.size:
        raise EncodingError("instance map is not a surjective homomorphism")
    return xg, z, f


_DECODABLE = ("unary-dagger", "magma-star", "semigroup-XG")


def decode_hom(psi: Mapping, legend_a: Legend, legend_b: Legend,
               a: FiniteAlgebra | None = None, b: FiniteAlgebra | None = None):
    """Extract the vertex map from a homomorphism between two encodings.

    Vertices are read off the copy-1 elements. For the semigroup encoding
    the input must additionally satisfy its instance's composition identity,
    otherwise vertex elements need not land on vertex elements; violations
    are reported as DecodeError, never silently decoded.
    """
    if legend_a.kind != legend_b.kind:
        raise DecodeError(f"legend kinds differ: {legend_a.kind} vs {legend_b.kind}")
    if legend_a.kind not in _DECODABLE:
        raise DecodeError(f"cannot decode {legend_a.kind} legends")
    if psi.dom_size != len(legend_a.entries) or psi.cod_size != len(legend_b.entries):
        raise DecodeError("mapping sizes do not match the legends")
    if a is not None and b is not None and not is_homomorphism(psi, a, b):
        raise DecodeError("mapping is not a homomorphism")
    phi = []
    for v in legend_a.vertices():
        e = legend_a.vertex_element(v, 1)
        target = legend_b.entries[psi(e)]
        if target[0] != "vertex-copy" or target[2] != 1:
            raise DecodeError(
                f"vertex {v} maps to a non-vertex element (role {target})"
            )
        phi.append(target[1])
    return tuple(phi)


def lift_graph_hom(phi, legend_a: Legend, legend_b: Legend) -> Mapping:
    """Build the algebra homomorphism induced by a graph vertex map.

    Inverse of decode_hom on encoder outputs: vertex copies follow the
    vertex map, edge and pair elements follow their endpoint images, and
    distinguished elements are fixed.
    """
    if legend_a.kind != legend_b.kind:
        raise DecodeError(f"legend kinds differ: {legend_a.kind} vs {legend_b.kind}")
    if legend_a.kind not in _DECODABLE:
        raise DecodeError(f"cannot lift into {legend_a.kind} legends")
    idx_b = legend_b.role_index()
    values = []
    for role in legend_a.entries:
        if role[0] == "vertex-copy":
            v, copy = role[1], role[2]
            values.append(idx_b[("vertex-copy", phi[v], copy)])
        elif role[0] == "edge-elem":
            _, ab, u, v = role
            key = ("edge-elem", ab, phi[u], phi[v])
            if key not in idx_b:
                raise DecodeError(f"vertex map does not preserve the arc ({u},{v})")
            values.append(idx_b[key])
        elif role[0] == "chi":
            u, v = sorted((phi[role[1]], phi[role[2]]))
            key = ("chi", u, v)
            if key in idx_b:
                values.append(idx_b[key])
            else:
                values.append(idx_b[("distinguished", "c")])
        else:
            values.append(idx_b[role])
    return Mapping(len(legend_a.entries), len(legend_b.entries), values)
