"""The four workloads: their seeded inputs and their agreement rows.

A row builds an instance, decides it, re-verifies the witness and compares
the verdict with an oracle that shares no code with the solver. Every call
into homfactor goes through the tracer under the name ``<module>.<op>``,
which is how the per-layer metrics are measured from outside the program.

Each workload yields an endless stream of rows from its seed. Streams over
a finite population (retraction, fcore) visit it in stratified passes:
items are sorted by an input property that predicts their cost, cut into
blocks of two, and every pass takes one member of each block (the seed
picks which) in a van der Corput order over the blocks. Each item is
equally likely to come first, no item is left out for being slow, and any
prefix of the stream is spread evenly over cheap and expensive items, so a
time-bounded run measures nearly the same mix whatever the seed.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from homfactor.algebra import (
    Mapping,
    compose,
    is_homomorphism,
    is_retraction_respecting,
)
from homfactor.cli import main as cli_main
from homfactor.encodings import (
    DecodeError,
    decode_hom,
    encode_magma,
    encode_semigroup,
    encode_unary,
    make_fcore_instance,
    make_gadgets,
    make_lf_instance,
    make_rf_instance,
    make_unary_lf_instance,
)
from homfactor.fcore import (
    InapplicableReport,
    abelian_fcore,
    boolean_fcore,
    brute_fcore,
    gset_fcore,
    vspace_fcore,
)
from homfactor.graphs import (
    complete_graph,
    cycle_graph,
    graph_catalog,
    graph_hom,
    graph_retract,
    is_graph_hom,
    subgraph_embedding,
)
from homfactor.io import (
    read_algebra,
    read_mapping,
    write_algebra,
    write_graph,
    write_instance,
    write_mapping,
)
from homfactor.solver import (
    FactorizationInstance,
    SearchStats,
    decide_retraction,
    find_homomorphism,
    find_left_factor,
    find_right_factor,
)
from homfactor.varieties import sample_fcore_instances

@dataclass
class Outcome:
    verdict: str
    witness: tuple  # digest material: witness values, or output file bytes
    ok: bool
    why: str = ""
    solver_nodes: int | None = None  # None: the row made no solver call
    fcore_nodes: int = 0


@dataclass
class Row:
    key: tuple  # identity of the row's inputs, stable across runs
    run: Callable  # run(tracer) -> Outcome


@dataclass
class Workload:
    stream: Callable[[], Iterator[Row]]  # a fresh stream from the start
    fingerprint_rows: int  # rows every run completes; the fingerprint covers them
    # latency_ms_tail's percentile: the highest of p90, p99 and p99.9 that
    # kept at least ten rows beyond it in the slowest run of BENCHMARK.json's
    # run_seconds at the seed commit, slowed by a further third. It is fixed
    # per workload so that a faster program is measured at the same percentile.
    tail_per_mille: int


# ---------------------------------------------------------------- checks


def _verify_witness(tr, inst, g, h) -> bool:
    """The benchmark's own re-verification, one check per instance kind."""

    def hom(m, a, b):
        return m is not None and tr.call("algebra.verify", is_homomorphism, m, a, b)

    def comp(outer, inner):
        return tr.call("algebra.verify", compose, outer, inner)

    kind = inst.kind
    if kind == "hom":
        return hom(g, inst.X, inst.Y)
    if kind == "right-factor":
        return hom(g, inst.X, inst.Y) and comp(inst.h, g) == inst.f
    if kind == "left-factor":
        return hom(h, inst.Y, inst.Z) and comp(h, inst.g) == inst.f
    if kind == "full-factor":
        return hom(g, inst.X, inst.Y) and hom(h, inst.Y, inst.Z) and comp(h, g) == inst.f
    if kind == "retraction":
        return (hom(g, inst.X, inst.Y) and hom(h, inst.Y, inst.X)
                and comp(h, g) == Mapping.identity(inst.X.size))
    if kind == "isomorphism":
        if not hom(g, inst.X, inst.Y) or sorted(g.values) != list(range(inst.Y.size)):
            return False
        inverse = [0] * inst.Y.size
        for x, y in enumerate(g.values):
            inverse[y] = x
        return hom(Mapping(inst.Y.size, inst.X.size, inverse), inst.Y, inst.X)
    raise ValueError(f"unknown kind {kind!r}")


def _values(*maps):
    return tuple(m.values if m is not None else None for m in maps)


def _decision(tr, inst, g, h, expected, stats, *, extra_ok=True) -> Outcome:
    found = g is not None or h is not None
    verdict = "yes" if found else "no"
    if found and not _verify_witness(tr, inst, g, h):
        return Outcome(verdict, _values(g, h), False, "witness fails re-verification",
                       stats.nodes)
    if found and not extra_ok:
        return Outcome(verdict, _values(g, h), False, "decoded vertex map is not a graph hom",
                       stats.nodes)
    if found != expected:
        return Outcome(verdict, _values(g, h), False, "verdict disagrees with the oracle",
                       stats.nodes)
    return Outcome(verdict, _values(g, h), True, "", stats.nodes)


# ---------------------------------------------------------------- catalog


def _unary_hom(tr, g, h):
    a, _ = tr.call("encodings.build", encode_unary, g, theorem_grade=True)
    b, _ = tr.call("encodings.build", encode_unary, h, theorem_grade=True)
    stats = SearchStats()
    w = tr.call("solver.decide", find_homomorphism, a, b, stats=stats)
    expected = tr.call("graphs.oracle", graph_hom, g, h) is not None
    return _decision(tr, FactorizationInstance("hom", a, b), w, None, expected, stats)


def _unary_lf(tr, g, h):
    inst = tr.call("encodings.build", make_unary_lf_instance, g, h)
    stats = SearchStats()
    w = tr.call("solver.decide", find_left_factor, inst, stats=stats)
    expected = tr.call("graphs.oracle", graph_hom, g, h) is not None
    return _decision(tr, inst, None, w, expected, stats)


def _unary_retraction(tr, g, h):
    a, _ = tr.call("encodings.build", encode_unary, g, theorem_grade=True)
    b, _ = tr.call("encodings.build", encode_unary, h, theorem_grade=True)
    stats = SearchStats()
    pair = tr.call("solver.decide", decide_retraction, a, b, stats=stats)
    expected = tr.call("graphs.oracle", graph_retract, g, h) is not None
    gw, hw = pair if pair is not None else (None, None)
    return _decision(tr, FactorizationInstance("retraction", a, b), gw, hw, expected, stats)


def _semigroup_rf(tr, g, h, legend_g, legend_h):
    inst = tr.call("encodings.build", make_rf_instance, g, h)
    stats = SearchStats()
    w = tr.call("solver.decide", find_right_factor, inst, stats=stats)
    expected = tr.call("graphs.oracle", graph_hom, g, h) is not None
    decoded_ok = True
    if w is not None:
        try:
            phi = tr.call("encodings.decode", decode_hom, w, legend_g, legend_h, inst.X, inst.Y)
            decoded_ok = tr.call("graphs.oracle", is_graph_hom, phi, g, h)
        except DecodeError:
            decoded_ok = False
    return _decision(tr, inst, w, None, expected, stats, extra_ok=decoded_ok)


def _semigroup_lf(tr, g, h):
    inst = tr.call("encodings.build", make_lf_instance, g, h)
    stats = SearchStats()
    w = tr.call("solver.decide", find_left_factor, inst, stats=stats)
    expected = tr.call("graphs.oracle", graph_hom, h, g) is not None
    return _decision(tr, inst, None, w, expected, stats)


def _magma_hom(tr, g, h):
    # the magma encoding mirrors induced subgraph embeddings, the reading
    # `homfactor bench` uses; criterion 2's strong-hom reading is not re-tested
    a, _ = tr.call("encodings.build", encode_magma, g)
    b, _ = tr.call("encodings.build", encode_magma, h)
    stats = SearchStats()
    w = tr.call("solver.decide", find_homomorphism, a, b, stats=stats)
    expected = tr.call("graphs.oracle", subgraph_embedding, g, h, induced=True) is not None
    return _decision(tr, FactorizationInstance("hom", a, b), w, None, expected, stats)


def _build_catalog(seed, tr, workdir):
    digraphs = tr.call("graphs.catalog", graph_catalog, 2, 4, directed=True, connected=True)
    und14 = tr.call("graphs.catalog", graph_catalog, 1, 4)
    und24 = [g for g in und14 if g.n >= 2]
    connected = [g for g in und24 if g.is_connected()]
    legends = [tr.call("encodings.build", encode_semigroup, g)[1] for g in und14]
    kinds = {
        "unary-hom": (digraphs, lambda i, j: lambda tr: _unary_hom(tr, digraphs[i], digraphs[j])),
        "unary-lf": (digraphs, lambda i, j: lambda tr: _unary_lf(tr, digraphs[i], digraphs[j])),
        "unary-retraction": (digraphs, lambda i, j: lambda tr: _unary_retraction(
            tr, digraphs[i], digraphs[j])),
        "semigroup-rf": (und14, lambda i, j: lambda tr: _semigroup_rf(
            tr, und14[i], und14[j], legends[i], legends[j])),
        "semigroup-lf": (connected, lambda i, j: lambda tr: _semigroup_lf(
            tr, connected[i], connected[j])),
        "magma-hom": (und24, lambda i, j: lambda tr: _magma_hom(tr, und24[i], und24[j])),
    }

    def stream():
        # every block of six rows holds each kind once, in a seeded order,
        # each with a pair drawn with replacement from that kind's catalog
        rng = random.Random(seed)
        names = sorted(kinds)
        while True:
            rng.shuffle(names)
            for kind in names:
                graphs, make = kinds[kind]
                i, j = rng.randrange(len(graphs)), rng.randrange(len(graphs))
                yield Row(("catalog", kind, i, j), make(i, j))

    return Workload(stream, fingerprint_rows=600, tail_per_mille=990)


# ---------------------------------------------------------------- retraction


def _van_der_corput(n):
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [i for i in order if i < n]


def stratified_order(keys, rng, block=2):
    """One full cycle over range(len(keys)) as described in the module doc."""
    ranked = sorted(range(len(keys)), key=lambda i: keys[i])
    blocks = [ranked[b:b + block] for b in range(0, len(ranked), block)]
    for members in blocks:
        rng.shuffle(members)
    visit = _van_der_corput(len(blocks))
    return [blocks[b][p] for p in range(block) for b in visit if p < len(blocks[b])]


def _cycle(rows, order):
    def stream():
        while True:
            for i in order:
                yield rows[i]
    return stream


def _retraction_row(tr, g, h, x, y):
    stats = SearchStats()
    pair = tr.call("solver.decide", decide_retraction, x, y, stats=stats)
    expected = tr.call("graphs.oracle", graph_retract, g, h) is not None
    gw, hw = pair if pair is not None else (None, None)
    return _decision(tr, FactorizationInstance("retraction", x, y), gw, hw, expected, stats)


def _build_retraction(seed, tr, workdir):
    graphs = tr.call("graphs.catalog", graph_catalog, 2, 4)
    encs = [tr.call("encodings.build", encode_semigroup, g)[0] for g in graphs]
    rows, keys = [], []
    for i, g in enumerate(graphs):
        for j, h in enumerate(graphs):
            rows.append(Row(("retraction", i, j),
                            lambda tr, g=g, h=h, x=encs[i], y=encs[j]:
                            _retraction_row(tr, g, h, x, y)))
            # exhaustive "no" answers on larger graphs cost the most
            answer = tr.call("graphs.oracle", graph_retract, g, h) is not None
            keys.append((answer, g.n, h.n, -len(h.edges), -len(g.edges), i, j))
    return Workload(_cycle(rows, stratified_order(keys, random.Random(seed))),
                    fingerprint_rows=40, tail_per_mille=900)


# ---------------------------------------------------------------- fcore

_SPECIALIZED = {
    "gset": gset_fcore,
    "vspace": vspace_fcore,
    "boolean": boolean_fcore,
    "abelian": abelian_fcore,
}
_SAMPLES_PER_VARIETY = 25


def _retraction_ok(tr, res, x, f):
    fixed = tuple(e for e in range(x.size) if res.retraction.values[e] == e)
    return fixed == tuple(res.image) and tr.call(
        "algebra.verify", is_retraction_respecting, res.retraction, x, f)


def _brute_row(tr, x, z, f):
    stats = SearchStats()
    res = tr.call("fcore.core", brute_fcore, x, f, z, stats=stats)
    ok = res.certified_minimal and _retraction_ok(tr, res, x, f)
    return Outcome(str(len(res.image)), (res.retraction.values,), ok,
                   "" if ok else "core retraction fails re-verification",
                   fcore_nodes=stats.nodes)


def _specialized_row(tr, method, x, z, f):
    stats = SearchStats()
    if method == "abelian":
        res = tr.call("fcore.core", abelian_fcore, x, f, z, stats=stats)
        if isinstance(res, InapplicableReport):
            res = res.fallback
    else:
        res = tr.call("fcore.core", _SPECIALIZED[method], x, f, z)
    oracle = tr.call("fcore.oracle", brute_fcore, x, f, z)
    why = ""
    if not _retraction_ok(tr, res, x, f):
        why = "core retraction fails re-verification"
    elif len(res.image) != len(oracle.image):
        why = "core size disagrees with brute_fcore"
    return Outcome(str(len(res.image)), (res.retraction.values,), not why, why,
                   fcore_nodes=stats.nodes)


def _build_fcore(seed, tr, workdir):
    graphs = tr.call("graphs.catalog", graph_catalog, 5, 6)
    rows, keys = [], []
    for i, g in enumerate(graphs):
        x, z, f = tr.call("encodings.build", make_fcore_instance, g)
        rows.append(Row(("fcore", "brute", i),
                        lambda tr, x=x, z=z, f=f: _brute_row(tr, x, z, f)))
        keys.append(("brute", g.n, len(g.edges), i))
    for v, method in enumerate(_SPECIALIZED):
        sample = tr.call("varieties.sample", sample_fcore_instances, method,
                         _SAMPLES_PER_VARIETY, 16, seed=seed * 8 + v)
        for k, (x, z, f) in enumerate(sample):
            rows.append(Row(("fcore", method, k),
                            lambda tr, m=method, x=x, z=z, f=f: _specialized_row(tr, m, x, z, f)))
            keys.append((method, x.size, 0, k))
    return Workload(_cycle(rows, stratified_order(keys, random.Random(seed))),
                    fingerprint_rows=80, tail_per_mille=900)


# ---------------------------------------------------------------- cli


def _run_cli(tr, op, argv):
    sink = _stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return tr.call("cli." + op, cli_main, argv)


def _read_bytes(paths):
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return tuple(out)


def _cli_encode(tr, encoding, graph_path, out, expected):
    code = _run_cli(tr, "encode", ["encode", "--encoding", encoding, "--in", graph_path,
                                   "--out", out + ".alg", "--legend", out + ".legend"])
    if code != 0:
        return Outcome(str(code), (), False, "encode exit code")
    files = _read_bytes([out + ".alg", out + ".legend"])
    ok = tr.call("io.read", read_algebra, out + ".alg") == expected
    return Outcome("0", files, ok, "" if ok else "encoded algebra differs from the library's")


def _cli_decide(tr, manifest, inst, prefix, expected):
    code = _run_cli(tr, "decide", ["decide", "--instance", manifest, "--witness", prefix])
    if code != (0 if expected else 1):
        return Outcome(str(code), (), False, "decide exit code disagrees with the oracle")
    if code == 1:
        return Outcome("1", (), True)
    paths = [f"{prefix}.{side}.map" for side in ("g", "h")]
    present = [p if os.path.exists(p) else None for p in paths]
    g, h = (tr.call("io.read", read_mapping, p) if p else None for p in present)
    files = _read_bytes([p for p in present if p])
    ok = _verify_witness(tr, inst, g, h)
    return Outcome("0", files, ok, "" if ok else "witness fails re-verification")


def _cli_verify(tr, manifest, prefix):
    argv = ["verify", "--instance", manifest]
    for side in ("g", "h"):
        path = f"{prefix}.{side}.map"
        if os.path.exists(path):
            argv += [f"--{side}", path]
    code = _run_cli(tr, "verify", argv)
    return Outcome(str(code), (), code == 0, "" if code == 0 else "verify rejected a witness")


def _cli_fcore(tr, alg_path, f_path, prefix, x, f):
    code = _run_cli(tr, "fcore", ["fcore", "--algebra", alg_path, "--f", f_path,
                                  "--method", "brute", "--out-prefix", prefix])
    if code != 0:
        return Outcome(str(code), (), False, "fcore exit code")
    r = tr.call("io.read", read_mapping, prefix + ".retraction.map")
    files = _read_bytes([prefix + ".retraction.map", prefix + ".core.alg",
                         prefix + ".report.txt"])
    ok = tr.call("algebra.verify", is_retraction_respecting, r, x, f)
    return Outcome("0", files, ok, "" if ok else "core retraction fails re-verification")


def _criterion10_instances():
    k2, k3, c4 = complete_graph(2), complete_graph(3), cycle_graph(4)
    z = make_gadgets().target_semigroup
    sg = {name: encode_semigroup(g)[0] for name, g in (("k2", k2), ("k3", k3), ("c4", c4))}
    return {
        "rf-yes": (make_rf_instance(c4, k2), True),
        "rf-no": (make_rf_instance(k3, k2), False),
        "hom": (FactorizationInstance("hom", sg["k3"], sg["k2"]), True),
        "lf": (make_unary_lf_instance(k2.as_directed(), k3.as_directed()), True),
        "full": (FactorizationInstance("full-factor", z, z, z, f=Mapping.constant(5, 5, 0)),
                 True),
        "retraction": (FactorizationInstance("retraction", sg["k2"], sg["c4"]), True),
        "iso": (FactorizationInstance("isomorphism", z, z), True),
    }


def _build_cli(seed, tr, workdir):
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    und14 = tr.call("graphs.catalog", graph_catalog, 1, 4)
    und24 = [g for g in und14 if g.n >= 2]
    connected = [g for g in und24 if g.is_connected()]
    digraphs = tr.call("graphs.catalog", graph_catalog, 2, 4, directed=True, connected=True)
    units = []  # each unit is a list of rows run back to back
    # about a hundred distinct commands: each runs many times per run, so
    # with few of them the median would be whichever command the seed
    # happened to put in the middle

    for k, i in enumerate(rng.sample(range(len(und24)), 6)):
        g = und24[i]
        tr.call("io.write", write_graph, g, path(f"u{k}.graph"))
        for encoding, encode in (("magma", encode_magma), ("semigroup", encode_semigroup)):
            expected = tr.call("encodings.build", encode, g)[0]
            units.append([Row(("cli", "encode", encoding, i), lambda tr, e=encoding, k=k, x=expected:
                              _cli_encode(tr, e, path(f"u{k}.graph"), path(f"u{k}.{e}"), x))])
    for k, i in enumerate(rng.sample(range(len(digraphs)), 6)):
        g = digraphs[i]
        tr.call("io.write", write_graph, g, path(f"d{k}.graph"))
        expected = tr.call("encodings.build", encode_unary, g)[0]
        units.append([Row(("cli", "encode", "unary", i), lambda tr, k=k, x=expected:
                          _cli_encode(tr, "unary", path(f"d{k}.graph"), path(f"d{k}.unary"), x))])

    instances = dict(_criterion10_instances())
    for _ in range(20):
        i, j = rng.randrange(len(und14)), rng.randrange(len(und14))
        instances[f"rf-{i}-{j}"] = (
            tr.call("encodings.build", make_rf_instance, und14[i], und14[j]),
            tr.call("graphs.oracle", graph_hom, und14[i], und14[j]) is not None)
    for _ in range(20):
        i, j = rng.randrange(len(connected)), rng.randrange(len(connected))
        instances[f"lf-{i}-{j}"] = (
            tr.call("encodings.build", make_lf_instance, connected[i], connected[j]),
            tr.call("graphs.oracle", graph_hom, connected[j], connected[i]) is not None)
    for name, (inst, expected) in sorted(instances.items()):
        manifest, prefix = path(f"{name}.instance"), path(f"{name}.w")
        tr.call("io.write", write_instance, inst, manifest)
        unit = [Row(("cli", "decide", name), lambda tr, m=manifest, i=inst, p=prefix, e=expected:
                    _cli_decide(tr, m, i, p, e))]
        if expected:
            unit.append(Row(("cli", "verify", name), lambda tr, m=manifest, p=prefix:
                            _cli_verify(tr, m, p)))
        units.append(unit)

    # every graph, not a sample: the slowest of these commands sets the tail
    for i, g in enumerate(und14):
        x, _, f = tr.call("encodings.build", make_fcore_instance, g)
        alg_path, f_path = path(f"core{i}.alg"), path(f"core{i}.f.map")
        tr.call("io.write", write_algebra, x, alg_path)
        tr.call("io.write", write_mapping, f, f_path)
        units.append([Row(("cli", "fcore", i), lambda tr, a=alg_path, fp=f_path, i=i, x=x, f=f:
                          _cli_fcore(tr, a, fp, path(f"core{i}.out"), x, f))])

    rng.shuffle(units)
    rows = [row for unit in units for row in unit]
    return Workload(_cycle(rows, range(len(rows))), fingerprint_rows=len(rows),
                    tail_per_mille=990)


BUILDERS = {
    "catalog": _build_catalog,
    "retraction": _build_retraction,
    "fcore": _build_fcore,
    "cli": _build_cli,
}
