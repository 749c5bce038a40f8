"""Serving-layer telemetry: K-panel fusion vs serial (``BENCH_PR6.json``).

Replays the acceptance trace — a bursty, hot-matrix-skewed request
stream against the async-heavy ``kmer`` analogue at 16 nodes, request
width K=8 — through the serving scheduler twice per mode: fused
(K-panel batching up to K=64) and serial (every request unbatched).

Contracts asserted here:

* every request's fused output slice is byte-identical to its serial
  (unbatched) execution — the classification-pin guarantee of
  DESIGN.md §8;
* a second replay is bit-identical to the first (outputs, timings,
  and the whole serving summary);
* fused serving sustains >= 2x the serial simulated requests/sec at
  equal-or-better p99 latency.

The trajectory lands in ``BENCH_PR6.json`` at the repository root
(schema ``repro-perf/6``; see ``repro.bench.telemetry``).
"""

import os
import pathlib
import time

from repro import MachineConfig
from repro.bench import PerfLog
from repro.serve import DONE, ServePolicy, ServeScheduler, hot_matrix_trace
from repro.sparse import suite

from conftest import emit

REPO_ROOT = pathlib.Path(__file__).parent.parent

# The acceptance scenario: fusion amortisation is strongest where
# per-fetch latency dominates, i.e. the async-heavy kmer analogue at
# high node counts and narrow per-request K.  (Size is pinned to tiny:
# the serving trace parameters, not the matrix scale, are the subject.)
HOT_MATRIX = "kmer"
MATRIX_SIZE = "tiny"
N_NODES = 16
REQUEST_K = 8
N_REQUESTS = 48
TRACE_SEED = 7
BURST_SIZE = 8
BURST_GAP = 0.02  # saturating: arrivals outpace the serial service rate
MAX_FUSED_K = 64
MAX_BATCH_DELAY = 0.05
SPEEDUP_FLOOR = 2.0


def replay(matrices, trace, fuse):
    """One fresh-scheduler replay; returns (report, wall_seconds)."""
    scheduler = ServeScheduler(
        MachineConfig(n_nodes=N_NODES),
        matrices,
        policy=ServePolicy(
            max_fused_k=MAX_FUSED_K,
            max_batch_delay=MAX_BATCH_DELAY,
            max_queue_depth=4 * N_REQUESTS,
        ),
    )
    started = time.perf_counter()
    report = scheduler.serve(trace, fuse=fuse)
    return report, time.perf_counter() - started


def run_serving_experiment():
    matrices = {HOT_MATRIX: suite.load(HOT_MATRIX, size=MATRIX_SIZE)}
    trace = hot_matrix_trace(
        matrices, n_requests=N_REQUESTS, k=REQUEST_K, seed=TRACE_SEED,
        hot=HOT_MATRIX, burst_size=BURST_SIZE, burst_gap=BURST_GAP,
    )
    reports = {}
    walls = {}
    replays = {}
    for mode, fuse in (("fused", True), ("serial", False)):
        reports[mode], walls[mode] = replay(matrices, trace, fuse)
        replays[mode], _ = replay(matrices, trace, fuse)

    # Contract 1: fused slices byte-identical to unbatched execution.
    for fo, so in zip(reports["fused"].outcomes, reports["serial"].outcomes):
        assert fo.status == so.status == DONE
        assert fo.C.tobytes() == so.C.tobytes()

    # Contract 2: a second replay is bit-identical to the first.
    for mode in ("fused", "serial"):
        first, second = reports[mode], replays[mode]
        assert first.serving_summary() == second.serving_summary()
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.completion == b.completion
            assert a.C.tobytes() == b.C.tobytes()

    fs = reports["fused"].serving_summary()
    ss = reports["serial"].serving_summary()
    speedup = fs["requests_per_sec"] / ss["requests_per_sec"]

    # Contract 3: >= 2x simulated throughput at equal-or-better p99.
    assert speedup >= SPEEDUP_FLOOR, (fs, ss)
    assert fs["p99_latency"] <= ss["p99_latency"], (fs, ss)

    record = {
        "matrix": HOT_MATRIX,
        "matrix_size": MATRIX_SIZE,
        "n_nodes": N_NODES,
        "request_k": REQUEST_K,
        "n_requests": N_REQUESTS,
        "trace": "hot",
        "trace_seed": TRACE_SEED,
        "burst_size": BURST_SIZE,
        "burst_gap": BURST_GAP,
        "max_fused_k": MAX_FUSED_K,
        "max_batch_delay": MAX_BATCH_DELAY,
        "requests_per_sec_speedup": speedup,
        "fused_fusion_factor": fs["fusion_factor"],
        "byte_identical_slices": True,
        "replay_reproducible": True,
        "host_cpus": os.cpu_count(),
        "fused_summary": fs,
        "serial_summary": ss,
    }
    return reports, walls, record


def test_pr6_serving_telemetry(benchmark, results_dir):
    reports, walls, record = benchmark.pedantic(
        run_serving_experiment, rounds=1, iterations=1
    )

    log = PerfLog(label="BENCH_PR6")
    for key, report in reports.items():
        log.record_serve_cell(
            name=f"{HOT_MATRIX}/serve/{key}",
            matrix=HOT_MATRIX,
            algorithm=f"TwoFace/{key}",
            k=REQUEST_K,
            n_nodes=N_NODES,
            serving=report.serving_summary(),
            wall_seconds=walls[key],
        )
    log.record_experiment("serving_fusion", record)
    log.write(REPO_ROOT / "BENCH_PR6.json")

    fs, ss = record["fused_summary"], record["serial_summary"]
    emit(
        results_dir,
        "pr6_serve",
        ["metric", "fused", "serial"],
        [
            [name, fs[name], ss[name]]
            for name in (
                "completed", "batches", "fusion_factor", "p50_latency",
                "p99_latency", "requests_per_sec", "peak_queue_depth",
                "makespan",
            )
        ]
        + [["requests_per_sec speedup",
            record["requests_per_sec_speedup"], 1.0]],
        "Serving: K-panel fusion vs serial on the hot-matrix trace",
    )

    assert record["requests_per_sec_speedup"] >= SPEEDUP_FLOOR
