"""Agreement-row benchmark for homfactor.

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: the next row starts when the previous
one has finished. Set-up (catalogs, samples, pre-encoded inputs, manifests)
runs once before the rows and again at even intervals between them; its
median is reported. The rows run until ``--seconds`` have passed, and at
least until the fingerprint rows are done. Every time reported is adjusted
to a reference host speed (``hostspeed``); the detail line also gives the
unadjusted wall-clock figures.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics. With ``--trace 1`` the same rows run twice, untraced and with one
span per call into the program, in alternating chunks of half a second; the
last line carries the per-layer metrics from the traced rows, and the ratio
of the two sides' row times is the tracing overhead. The spans are written to
``bench/out/trace-<workload>-seed<seed>.jsonl``. The line before the last
holds details: the fingerprint (node counts and a digest of every verdict
and witness of the first rows), the tail percentile used, failures, and in
traced runs each layer's share of row time.

Exit code 0 means the benchmark ran; whether the program's answers were
right is the ``correct`` field.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
CHUNK_S = 0.5
LAYERS = ("encodings", "solver", "algebra", "graphs", "varieties", "fcore", "io", "cli")

if not os.path.isfile(os.path.join(SRC, "homfactor", "__init__.py")):
    sys.exit(f"error: the homfactor sources are missing; expected them in {SRC}")
sys.path.insert(0, SRC)

from hostspeed import HostClock  # noqa: E402
from tracing import SETUP_ROW, Tracer  # noqa: E402
from workloads import BUILDERS, Outcome  # noqa: E402


class Tally:
    """Attempted and failed rows of one process, with the rerun check: a row
    whose result differs from an earlier run of the same row fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.seen = {}

    def fail(self, why):
        self.failed += 1
        self.reasons[why] = self.reasons.get(why, 0) + 1

    def record(self, key, out: Outcome):
        self.attempted += 1
        # a hash, not the tuple: this grows by one entry per distinct row
        result = hash((out.verdict, out.witness, out.solver_nodes, out.fcore_nodes))
        first = self.seen.setdefault(key, result)
        if not out.ok:
            self.fail(out.why)
        elif first != result:
            self.fail("result differs from an earlier run of the same row")


class Pass:
    """A position in one workload stream and what the rows run so far gave."""

    def __init__(self, workload, tr: Tracer, tally: Tally, clock: HostClock):
        self.rows = workload.stream()
        self.fingerprint_rows = workload.fingerprint_rows
        self.tr = tr
        self.tally = tally
        self.clock = clock
        # per row; compact, since peak memory is a metric and the rows run
        # grow with host speed
        self.kinds = []
        self.starts = array.array("d")
        self.latencies = array.array("d")  # wall-clock row times
        self.fingerprint_items = []
        self.solver_rows = self.solver_no = self.solver_root = 0
        self.solver_nodes = self.fcore_nodes = 0

    def run(self, *, seconds=None, rows=None) -> int:
        """Closed loop over the next rows: until ``seconds`` have passed (at
        least one row), or exactly ``rows`` rows. Returns the rows run."""
        tr = self.tr
        done = 0
        start = time.perf_counter()
        while (done < rows) if rows is not None else (
                done == 0 or time.perf_counter() - start < seconds):
            self.clock.tick()
            row = next(self.rows)
            n = len(self.latencies)
            span = tr.begin("row", n)
            t0 = time.perf_counter()
            try:
                out = row.run(tr)
            except Exception as exc:  # a row that raises is a failed row, not a crash
                out = Outcome("error", (), False, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            self.kinds.append(row.key[1])
            self.starts.append(t0)
            self.latencies.append(dt)
            tr.end(span)
            self.tally.record(row.key, out)
            self._count(row.key, out, n < self.fingerprint_rows)
            done += 1
        return done

    def _count(self, key, out: Outcome, fingerprint: bool):
        if out.solver_nodes is not None:
            self.solver_rows += 1
            self.solver_no += out.verdict == "no"
            self.solver_root += out.solver_nodes == 0
            self.solver_nodes += out.solver_nodes
        self.fcore_nodes += out.fcore_nodes
        if fingerprint:
            self.fingerprint_items.append((key, out.verdict, out.witness,
                                           out.solver_nodes, out.fcore_nodes))

    def adjusted(self):
        """Row times at the reference host speed; call after the last sample."""
        return [self.clock.adjust(t0, dt) for t0, dt in zip(self.starts, self.latencies)]

    def fingerprint(self):
        items = self.fingerprint_items
        return {
            "rows": len(items),
            "solver.nodes": sum(i[3] or 0 for i in items),
            "fcore.nodes": sum(i[4] for i in items),
            "digest": hashlib.sha256(repr(items).encode()).hexdigest()[:16],
        }


def run_plain(workload, setup, tally, clock, seconds) -> Pass:
    p = Pass(workload, Tracer(False), tally, clock)
    for _ in setup.spread_over(seconds):
        p.run(seconds=CHUNK_S)
    if len(p.latencies) < workload.fingerprint_rows:
        p.run(rows=workload.fingerprint_rows - len(p.latencies))
    clock.sample()
    return p


def run_traced(workload, setup, tr, tally, clock, seconds):
    """The same rows untraced and traced, in alternating chunks of about
    CHUNK_S seconds (each side leads every other chunk). Both sides share
    the tally, so a traced row whose result differs from its untraced run
    fails."""
    plain, traced = Pass(workload, Tracer(False), tally, clock), Pass(workload, tr, tally, clock)
    lead = 0
    for _ in setup.spread_over(seconds):
        first, second = (plain, traced) if lead % 2 == 0 else (traced, plain)
        second.run(rows=first.run(seconds=CHUNK_S))
        lead += 1
    while len(plain.latencies) < workload.fingerprint_rows:
        traced.run(rows=plain.run(seconds=CHUNK_S))
    clock.sample()
    return plain, traced


def tail_latency(latencies, per_mille):
    """Nearest-rank percentile and the number of rows beyond it."""
    ordered = sorted(latencies)
    rank = max(-(-len(ordered) * per_mille // 1000), 1)
    return ordered[rank - 1], len(ordered) - rank


class SetUp:
    """The timed builds of one workload, each between two host-speed samples.
    Every build of a seed writes the same files, so a build between rows
    leaves the rows' inputs as they were."""

    def __init__(self, name, seed, workdir, clock):
        self.name, self.seed, self.workdir, self.clock = name, seed, workdir, clock
        self.builds = []

    def build(self, tr=None):
        tr = tr or Tracer(False)
        self.clock.sample()
        span = tr.begin("setup", SETUP_ROW)
        t0 = time.perf_counter()
        workload = BUILDERS[self.name](self.seed, tr, self.workdir)
        self.builds.append((t0, time.perf_counter() - t0))
        tr.end(span)
        self.clock.sample()
        return workload

    def spread_over(self, seconds):
        """Yield until ``seconds`` have passed, building again at even
        intervals in between, so that the builds sample the whole run
        rather than one moment of it; builds still missing follow."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            yield
            elapsed = time.perf_counter() - start
            if (len(self.builds) < SETUP_REPEATS
                    and elapsed >= len(self.builds) * seconds / SETUP_REPEATS):
                self.build()
        while len(self.builds) < SETUP_REPEATS:
            self.build()

    def seconds(self):
        """Median build time, adjusted and on the wall clock."""
        return (statistics.median(self.clock.adjust(t0, dt) for t0, dt in self.builds),
                statistics.median(dt for _, dt in self.builds))


def end_to_end(p: Pass, setup_s, wall_setup_s, tail_per_mille):
    times = p.adjusted()
    tail_s, beyond = tail_latency(times, tail_per_mille)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_ms_p50": (statistics.median(times) * 1000, "ms"),
        "latency_ms_tail": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "rows": len(times),
        "tail_percentile": f"p{tail_per_mille / 10:g}",
        "rows_beyond_tail": beyond,
        "host_slowdown": p.clock.slowdown(),
        "wall": {
            "ops_per_s": len(p.latencies) / sum(p.latencies),
            "latency_ms_p50": statistics.median(p.latencies) * 1000,
            "latency_ms_tail": tail_latency(p.latencies, tail_per_mille)[0] * 1000,
            "setup_s": wall_setup_s,
        },
        "latency_ms_p50_by_kind": p50_by_kind(p.kinds, times),
    }
    return metrics, detail


def p50_by_kind(kinds, times):
    """Median row time per row kind (the second field of a row's key, where
    it names one)."""
    by_kind = {}
    for kind, t in zip(kinds, times):
        if isinstance(kind, str):
            by_kind.setdefault(kind, []).append(t)
    return {kind: statistics.median(ts) * 1000 for kind, ts in sorted(by_kind.items())}


def per_layer(tr: Tracer, p: Pass, overhead):
    rows = tr.totals(setup=False, adjust=p.clock.adjust)
    setup = tr.totals(setup=True, adjust=p.clock.adjust)

    def secs(name, spans=rows):
        return spans.get(name, (0.0, 0))[0]

    def calls(name, spans=rows):
        return spans.get(name, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    decide_s = secs("solver.decide")
    metrics = {
        "encodings.build_s": (secs("encodings.build"), "s"),
        "encodings.decode_s": (secs("encodings.decode"), "s"),
        "encodings.calls": (calls("encodings.build") + calls("encodings.decode"), "count"),
        "solver.decide_s": (decide_s, "s"),
        "solver.calls": (calls("solver.decide"), "count"),
        "solver.nodes": (p.solver_nodes, "count"),
        "solver.nodes_per_s": (ratio(p.solver_nodes, decide_s), "1/s"),
        "solver.no_frac": (ratio(p.solver_no, p.solver_rows), "frac"),
        "solver.root_decided_frac": (ratio(p.solver_root, p.solver_rows), "frac"),
        "algebra.verify_s": (secs("algebra.verify"), "s"),
        "algebra.verify_calls": (calls("algebra.verify"), "count"),
        "graphs.oracle_s": (secs("graphs.oracle"), "s"),
        "graphs.oracle_calls": (calls("graphs.oracle"), "count"),
        "graphs.catalog_s": (secs("graphs.catalog", setup), "s"),
        "varieties.sample_s": (secs("varieties.sample", setup), "s"),
        "fcore.core_s": (secs("fcore.core"), "s"),
        "fcore.calls": (calls("fcore.core"), "count"),
        "fcore.nodes": (p.fcore_nodes, "count"),
        "fcore.oracle_s": (secs("fcore.oracle"), "s"),
        "io.write_s": (secs("io.write", setup), "s"),
        "io.read_s": (secs("io.read"), "s"),
        "cli.encode_s": (secs("cli.encode"), "s"),
        "cli.decide_s": (secs("cli.decide"), "s"),
        "cli.verify_s": (secs("cli.verify"), "s"),
        "cli.fcore_s": (secs("cli.fcore"), "s"),
        "cli.calls": (sum(calls(f"cli.{op}") for op in ("encode", "decide", "verify", "fcore")),
                      "count"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    row_s = tr.row_seconds(adjust=p.clock.adjust)
    shares = {layer: sum(s for name, (s, _) in rows.items() if name.startswith(layer + "."))
              / row_s for layer in LAYERS}
    shares["bench"] = 1.0 - sum(shares.values())
    return metrics, {"layer_share_of_row_time": shares}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    tally = Tally()
    tr = Tracer(bool(args.trace))
    clock = HostClock()
    try:
        setup = SetUp(args.workload, args.seed, workdir, clock)
        workload = setup.build(tr)
        if not args.trace:
            p = run_plain(workload, setup, tally, clock, args.seconds)
            metrics, detail = end_to_end(p, *setup.seconds(), workload.tail_per_mille)
        else:
            plain, p = run_traced(workload, setup, tr, tally, clock, args.seconds)
            metrics, detail = per_layer(tr, p, sum(p.adjusted()) / sum(plain.adjusted()) - 1.0)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tr.write(trace_path)
            detail["trace_file"] = os.path.relpath(trace_path, os.path.dirname(HERE))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": p.fingerprint(),
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
