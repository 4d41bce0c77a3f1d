"""A full command-line session in a temporary directory, removed at the end.

Run: python demos/06_cli_session.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from homfactor import complete_graph, cycle_graph, make_rf_instance
from homfactor.io import write_graph, write_instance


def cli(*args):
    cmd = [sys.executable, "-m", "homfactor.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ homfactor {' '.join(args)}")
    for stream in (proc.stdout, proc.stderr):
        for line in stream.strip().splitlines():
            print("  ", line)
    print("   exit:", proc.returncode)
    return proc.returncode


with tempfile.TemporaryDirectory(prefix="homfactor-demo-") as tmp:
    root = Path(tmp)
    print("working in", root)

    # Encode a graph three ways.
    write_graph(cycle_graph(4), root / "c4.graph")
    cli("encode", "--encoding", "semigroup", "--in", str(root / "c4.graph"),
        "--out", str(root / "c4.alg"), "--legend", str(root / "c4.legend"))
    write_graph(cycle_graph(4).as_directed(), root / "c4d.graph")
    cli("encode", "--encoding", "unary", "--in", str(root / "c4d.graph"),
        "--out", str(root / "c4d.alg"), "--legend", str(root / "c4d.legend"))
    cli("encode", "--encoding", "nary:3", "--in", str(root / "c4.alg"),
        "--out", str(root / "c4t.alg"))

    # Build instances, decide them, verify the emitted witnesses.
    write_instance(make_rf_instance(cycle_graph(4), complete_graph(2)),
                   root / "solvable.instance")
    write_instance(make_rf_instance(complete_graph(3), complete_graph(2)),
                   root / "unsolvable.instance")
    cli("decide", "--instance", str(root / "solvable.instance"),
        "--witness", str(root / "w"))
    cli("verify", "--instance", str(root / "solvable.instance"),
        "--g", str(root / "w.g.map"))
    cli("decide", "--instance", str(root / "unsolvable.instance"),
        "--witness", str(root / "nope"))

    # f-core of the solvable instance's source, with the brute certificate.
    cli("fcore", "--algebra", str(root / "solvable.X.alg"),
        "--f", str(root / "solvable.f.map"), "--method", "brute",
        "--out-prefix", str(root / "core"))
    print((root / "core.report.txt").read_text())

    # Benchmark table: solver answers against the graph oracles.
    cli("bench", "--suite", "reductions", "--max-size", "3",
        "--out", str(root / "bench.tsv"))
    print("bench rows:", len((root / "bench.tsv").read_text().splitlines()) - 1)
