"""Digests pinning the encoders' and constructions' outputs element for
element: algebras, labels, legends, maps, and G-set and vector-space
retractions."""

import hashlib

from homfactor.encodings import encode_semigroup, encode_unary, make_semilattice_X
from homfactor.fcore import gset_fcore, vspace_fcore
from homfactor.graphs import graph_catalog
from homfactor.varieties import sample_fcore_instances


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _algebra(alg):
    tables = [(name, alg.table(name).tolist()) for name, _ in alg.signature.ops]
    return alg.signature.ops, alg.size, tables, alg.labels


def _encoding(alg, legend):
    return _algebra(alg), legend.kind, legend.entries


def test_unary_encodings_pinned():
    catalog = graph_catalog(1, 4, directed=True)
    augmented = [g.with_isolated_vertex()[0]
                 for g in graph_catalog(2, 4, directed=True, connected=True)]
    assert (len(catalog), len(augmented)) == (238, 214)
    assert _digest([_encoding(*encode_unary(g)) for g in catalog]) == "b0253cfc3a33f0d6"
    assert _digest([_encoding(*encode_unary(g)) for g in augmented]) == "fa5bc1e34bb9dfac"


def test_semigroup_encodings_pinned():
    catalog = graph_catalog(0, 6)
    assert len(catalog) == 209
    assert _digest([_encoding(*encode_semigroup(g)) for g in catalog]) == "216b60d573334d61"


def test_semilattice_family_pinned():
    out = []
    for n in range(1, 13):
        alg, legend, f = make_semilattice_X(n)
        out.append((_encoding(alg, legend), f.dom_size, f.cod_size, f.values))
    assert _digest(out) == "40aa7ef0054e97e8"


def test_gset_fcore_retractions_pinned():
    # the seeds of the gset rows of the fcore bench workload at seeds 301-310
    out = []
    for seed in range(301 * 8, 311 * 8, 8):
        for x, z, f in sample_fcore_instances("gset", 25, 16, seed):
            res = gset_fcore(x, f, z)
            out.append((res.retraction.values, res.image))
    assert len(out) == 250
    assert _digest(out) == "be07e26799bab173"


def test_vspace_fcore_retractions_pinned():
    # the seeds of the vspace rows of the fcore bench workload at seeds 301-310
    out = []
    for seed in range(301 * 8 + 1, 311 * 8 + 1, 8):
        for x, z, f in sample_fcore_instances("vspace", 25, 16, seed):
            res = vspace_fcore(x, f, z)
            out.append((res.retraction.values, res.image))
    assert len(out) == 250
    assert _digest(out) == "62a3d6b097cca493"
