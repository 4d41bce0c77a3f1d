"""Deterministic command-line front end.

Exit codes are a stable contract: 0 yes, 1 no, 2 error, 3 unknown (node
limit hit). Witness and report files contain no timing data, so identical
invocations on identical files produce byte-identical output files; the
bench TSV's ms column is the one timing-bearing output. It times the whole
row, not the solver alone: in the reductions suite, the graphs' encoding,
the decision and the graph oracle (see _bench_reductions); in the fcores
suite, the f-core method and brute_fcore.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass, field

from .algebra import AlgebraError, validate_algebra
from .encodings import (
    encode_magma,
    encode_semigroup,
    encode_unary,
    lift_nary,
    make_lf_instance,
    make_rf_instance,
    make_semilattice_X,
)
from .fcore import FCORE_METHODS, InapplicableReport, brute_fcore, _run_method
from .graphs import graph_catalog, graph_hom, subgraph_embedding
from .io import (
    FormatError,
    read_algebra,
    read_graph,
    read_instance,
    read_mapping,
    write_algebra,
    write_legend,
    write_mapping,
)
from .solver import (
    NodeLimitReached,
    SearchStats,
    decide,
    find_homomorphism,
    find_left_factor,
    find_right_factor,
    verify_witness,
)
from .varieties import sample_fcore_instances

__all__ = ["main", "CommandResult"]

_BENCH_BUDGET = {"reductions": 4, "fcores": 16}


@dataclass
class CommandResult:
    outcome: str  # yes | no | unknown | error
    witness_paths: list[str] = field(default_factory=list)


def _parse_encoding(spec: str):
    if spec in ("unary", "magma", "semigroup"):
        return spec, None
    for prefix, low in (("nary:", 3), ("semilattice:", 1)):
        if spec.startswith(prefix):
            try:
                k = int(spec[len(prefix):])
            except ValueError:
                raise AlgebraError(f"bad encoding parameter in {spec!r}") from None
            if k < low:
                raise AlgebraError(f"encoding parameter in {spec!r} must be >= {low}")
            return prefix[:-1], k
    raise AlgebraError(f"unknown encoding {spec!r}")


def cmd_encode(args) -> CommandResult:
    kind, param = _parse_encoding(args.encoding)
    if kind != "semilattice" and not args.infile:
        raise AlgebraError(f"--in is required for the {kind} encoding")
    legend = None
    extra_map = None
    if kind == "nary":
        alg = lift_nary(read_algebra(args.infile), param)
    elif kind == "semilattice":
        alg, legend, extra_map = make_semilattice_X(param)
    else:
        graph = read_graph(args.infile)
        if kind == "unary":
            alg, legend = encode_unary(graph)
        elif kind == "magma":
            alg, legend = encode_magma(graph)
        else:
            alg, legend = encode_semigroup(graph)
    problems = validate_algebra(alg)
    if problems:
        raise AlgebraError("encoder output failed validation: " + "; ".join(problems))
    write_algebra(alg, args.out)
    if read_algebra(args.out) != alg:
        raise AlgebraError("round-trip validation of the written algebra failed")
    paths = [args.out]
    if legend is not None and args.legend:
        write_legend(legend, args.legend)
        paths.append(args.legend)
    if extra_map is not None and args.map_out:
        write_mapping(extra_map, args.map_out)
        paths.append(args.map_out)
    return CommandResult("yes", paths)


def cmd_decide(args) -> CommandResult:
    inst = read_instance(args.instance)
    pair = decide(inst, stats=SearchStats(node_limit=args.node_limit))
    if pair is None:
        return CommandResult("no")
    paths = []
    for name, m in zip("gh", pair):
        if m is not None:
            path = f"{args.witness}.{name}.map"
            write_mapping(m, path)
            paths.append(path)
    return CommandResult("yes", paths)


def cmd_fcore(args) -> CommandResult:
    x = read_algebra(args.algebra)
    f = read_mapping(args.f)
    res = _run_method(args.method, x, f, None, SearchStats(node_limit=args.node_limit))
    inapplicable = None
    if isinstance(res, InapplicableReport):
        inapplicable, res = res.reason, res.fallback
    lines = [
        f"method {args.method}",
        f"input-size {x.size}",
        f"core-size {len(res.image)}",
        f"certified {'yes' if res.certified_minimal else 'no'}",
    ]
    if inapplicable is not None:
        lines.append(f"inapplicable {inapplicable}; reporting brute fallback")
    oracle_note = None
    if args.verify and res.method != "brute":
        oracle = brute_fcore(x, f, stats=SearchStats(node_limit=args.node_limit))
        agree = len(oracle.image) == len(res.image)
        oracle_note = agree
        lines.append(f"oracle-core-size {len(oracle.image)}")
        lines.append(f"oracle-agreement {'yes' if agree else 'NO'}")
    prefix = args.out_prefix
    retraction_path = f"{prefix}.retraction.map"
    core_path = f"{prefix}.core.alg"
    report_path = f"{prefix}.report.txt"
    write_mapping(res.retraction, retraction_path)
    write_algebra(res.core_algebra, core_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if oracle_note is False:
        raise AlgebraError("specialized core size disagrees with the brute oracle")
    return CommandResult("yes", [retraction_path, core_path, report_path])


def cmd_verify(args) -> CommandResult:
    inst = read_instance(args.instance)
    inst.validate()
    g = read_mapping(args.g) if args.g else None
    h = read_mapping(args.h) if args.h else None
    return CommandResult("yes" if verify_witness(inst, g, h) else "no")


def _rf_row(g, h, stats):
    inst = make_rf_instance(g, h)
    answer = find_right_factor(inst, stats=stats) is not None
    return (inst.X.size, inst.Y.size, inst.Z.size), answer, graph_hom(g, h) is not None


def _magma_row(g, h, stats):
    ga, _ = encode_magma(g)
    ha, _ = encode_magma(h)
    answer = find_homomorphism(ga, ha, stats=stats) is not None
    # the magma encoding mirrors *injective* strong homomorphisms,
    # i.e. induced subgraph embeddings
    oracle = subgraph_embedding(g, h, induced=True) is not None
    return (ga.size, ha.size, "-"), answer, oracle


def _unary_row(g, h, stats):
    dg, dh = g.as_directed(), h.as_directed()
    ga, _ = encode_unary(dg)
    ha, _ = encode_unary(dh)
    answer = find_homomorphism(ga, ha, stats=stats) is not None
    return (ga.size, ha.size, "-"), answer, graph_hom(dg, dh) is not None


def _lf_row(g, h, stats):
    inst = make_lf_instance(g, h)
    answer = find_left_factor(inst, stats=stats) is not None
    return (inst.X.size, inst.Y.size, inst.Z.size), answer, graph_hom(h, g) is not None


def _bench_reductions(max_size, rows):
    undirected = graph_catalog(1, max_size)
    small = [g for g in undirected if g.n >= 2]
    connected = [g for g in small if g.is_connected()]
    for prefix, kind, graphs, run in (
        ("rf", "right-factor", undirected, _rf_row),
        ("magma", "hom", small, _magma_row),
        ("unary", "hom", undirected, _unary_row),
        ("lf", "left-factor", connected, _lf_row),
    ):
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs):
                stats = SearchStats()
                t0 = time.perf_counter()
                sizes, answer, oracle = run(g, h, stats)
                ms = int((time.perf_counter() - t0) * 1000)
                rows.append((f"{prefix}:{i}:{j}", kind, *sizes, answer, oracle, stats.nodes, ms))


def _bench_fcores(max_size, rows):
    for variety in ("abelian", "vspace", "boolean", "gset"):
        for k, (x, z, f) in enumerate(
            sample_fcore_instances(variety, 6, max_size, seed=1300 + len(variety))
        ):
            stats = SearchStats()
            t0 = time.perf_counter()
            res = _run_method(variety, x, f, z, stats)
            marker = ""
            if isinstance(res, InapplicableReport):
                marker, res = "inapplicable:", res.fallback
            oracle = brute_fcore(x, f, z)
            ms = int((time.perf_counter() - t0) * 1000)
            rows.append(
                (f"{variety}:{k}", variety, x.size, "-", z.size,
                 f"{marker}{len(res.image)}", len(oracle.image), stats.nodes, ms)
            )


def cmd_bench(args) -> CommandResult:
    budget = _BENCH_BUDGET[args.suite]
    if args.max_size > budget:
        raise AlgebraError(f"max size {args.max_size} over the {args.suite} budget {budget}")
    rows = []
    if args.suite == "reductions":
        _bench_reductions(args.max_size, rows)
    else:
        _bench_fcores(args.max_size, rows)
    disagreements = 0
    lines = ["id\tkind\t|X|\t|Y|\t|Z|\tanswer\toracle\tnodes\tms"]
    for row in rows:
        rid, kind, nx, ny, nz, answer, oracle, nodes, ms = row
        if str(answer).split(":")[-1] != str(oracle):
            disagreements += 1
        lines.append(
            f"{rid}\t{kind}\t{nx}\t{ny}\t{nz}\t{answer}\t{oracle}\t{nodes}\t{ms}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if disagreements:
        raise AlgebraError(f"{disagreements} disagreement rows in {args.out}")
    return CommandResult("yes", [args.out])


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homfactor",
        description="Finite-algebra encodings, factorization decisions and f-cores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a graph (or lift an algebra) to an algebra file")
    enc.add_argument("--encoding", required=True,
                     help="unary | magma | semigroup | nary:k | semilattice:n")
    enc.add_argument("--in", dest="infile", help="input graph (or algebra for nary)")
    enc.add_argument("--out", required=True, help="output algebra file")
    enc.add_argument("--legend", help="output legend sidecar file")
    enc.add_argument("--map-out", dest="map_out",
                     help="companion map output (semilattice encoding only)")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decide", help="decide an instance manifest")
    dec.add_argument("--instance", required=True)
    dec.add_argument("--witness", required=True, help="output prefix for witness files")
    dec.add_argument("--node-limit", type=int, default=None)
    dec.set_defaults(func=cmd_decide)

    fc = sub.add_parser("fcore", help="compute an f-core")
    fc.add_argument("--algebra", required=True)
    fc.add_argument("--f", required=True)
    fc.add_argument("--method", required=True, help="|".join(FCORE_METHODS))
    fc.add_argument("--out-prefix", dest="out_prefix", required=True)
    fc.add_argument("--verify", action="store_true",
                    help="cross-check specialized methods against the brute oracle")
    fc.add_argument("--node-limit", type=int, default=None,
                    help="search nodes per f-core computation; exit 3 when exhausted")
    fc.set_defaults(func=cmd_fcore)

    ver = sub.add_parser("verify", help="verify witness files against an instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--g")
    ver.add_argument("--h")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="run an agreement table")
    ben.add_argument("--suite", required=True, choices=("reductions", "fcores"))
    ben.add_argument("--max-size", dest="max_size", type=int, required=True)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)
    return parser


_EXIT = {"yes": 0, "no": 1, "error": 2, "unknown": 3}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except NodeLimitReached:
        print("unknown: node limit reached before a decision", file=sys.stderr)
        return 3
    except (AlgebraError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.outcome == "no":
        print("no")
    else:
        for path in result.witness_paths:
            print(path)
        if not result.witness_paths:
            print(result.outcome)
    return _EXIT[result.outcome]


if __name__ == "__main__":
    raise SystemExit(main())
