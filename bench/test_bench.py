"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload, that no row fails on the current program, that the
fingerprint repeats across runs, across processes with different hash seeds
and between traced and untraced runs, that a flipped verdict, a corrupted
witness and a changed rerun result are each counted as failed rows, and
that the host-speed adjustment scales times by the kernel samples around
them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads
from homfactor.algebra import Mapping

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Few fingerprint rows, so each run stops after a fraction of a second."""
    for name, real in list(workloads.BUILDERS.items()):
        def build(seed, tr, workdir, real=real):
            w = real(seed, tr, workdir)
            w.fingerprint_rows = min(w.fingerprint_rows, 6)
            return w

        monkeypatch.setitem(workloads.BUILDERS, name, build)


def bench(capsys, workload, seed=3, trace=0, seconds=0.2):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_metrics_units_and_fingerprints(capsys, workload):
    detail, result = bench(capsys, workload)
    again, _ = bench(capsys, workload)
    traced_detail, traced = bench(capsys, workload, trace=1)
    for res, spec_key in ((result, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units(spec_key)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for name in units("end_to_end"):
        assert result["metrics"][name]["value"] > 0
    assert detail["failed_frac"] == 0.0
    assert detail["fingerprint"] == again["fingerprint"] == traced_detail["fingerprint"]
    assert detail["fingerprint"]["rows"] == 6


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_fingerprint_repeats_across_processes(workload):
    """Separate processes with different hash seeds, so that an answer that
    depends on set or dict order cannot hide behind one process's seed."""
    fingerprints = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0.1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert json.loads(lines[-1])["correct"]
        fingerprints.append(json.loads(lines[-2])["detail"]["fingerprint"])
    assert fingerprints[0] == fingerprints[1]


def test_flipped_verdict_counts_as_failed(capsys, monkeypatch):
    real = workloads.find_homomorphism

    def flipped(*args, **kwargs):
        real(*args, **kwargs)
        return None

    monkeypatch.setattr(workloads, "find_homomorphism", flipped)
    detail, result = bench(capsys, "catalog")
    assert not result["correct"] and result["failed"] > 0
    assert detail["failures"]["verdict disagrees with the oracle"] == result["failed"]


def test_corrupted_witness_counts_as_failed(capsys, monkeypatch):
    real = workloads.find_homomorphism

    def corrupted(*args, **kwargs):
        w = real(*args, **kwargs)
        if w is None:
            return None
        values = list(w.values)
        values[0] = (values[0] + 1) % w.cod_size
        return Mapping(w.dom_size, w.cod_size, values)

    monkeypatch.setattr(workloads, "find_homomorphism", corrupted)
    detail, result = bench(capsys, "catalog")
    assert not result["correct"]
    assert detail["failures"]["witness fails re-verification"] > 0


def test_changed_rerun_result_counts_as_failed():
    tally = run.Tally()
    tally.record(("row",), workloads.Outcome("yes", ((0, 1),), True, solver_nodes=3))
    tally.record(("row",), workloads.Outcome("yes", ((1, 0),), True, solver_nodes=3))
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("rows,per_mille,beyond", [(100, 900, 10), (99, 900, 9),
                                                   (1000, 990, 10), (1, 990, 0)])
def test_tail_latency_is_nearest_rank(rows, per_mille, beyond):
    value, rows_beyond = run.tail_latency([float(i) for i in range(rows)], per_mille)
    assert rows_beyond == beyond
    assert value == rows - beyond - 1


def test_host_clock_scales_by_the_samples_around_a_time():
    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_S
    clock.at = [float(t) for t in range(20)]
    clock.took = [ref] * 10 + [2 * ref] * 10  # the host halves its speed at t=10
    assert clock.adjust(2.5, 0.5) == pytest.approx(0.5)
    assert clock.adjust(16.0, 0.5) == pytest.approx(0.25)
    assert clock.adjust(9.5, 0.1) == pytest.approx(0.1 / 1.5)  # three samples either side
    assert clock.slowdown() == pytest.approx(1.5)


def test_stratified_order_is_a_seeded_permutation():
    import random

    keys = [(i % 7, i) for i in range(41)]
    a = workloads.stratified_order(keys, random.Random(1))
    assert sorted(a) == list(range(41))
    assert a == workloads.stratified_order(keys, random.Random(1))
    first_pass = set(a[:21])
    ranked = sorted(range(41), key=lambda i: keys[i])
    for b in range(0, 40, 2):  # one member of every block in the first pass
        assert len(first_pass & set(ranked[b:b + 2])) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
