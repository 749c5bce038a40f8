"""Resilient serving under chaos (``BENCH_PR10.json``).

Replays the acceptance trace — bursty, hot-matrix-skewed requests
against the async-heavy ``kmer`` analogue — through the replicated
resilient scheduler under chaos intensity 0.5 (all four fault classes
plus injected executor crashes at rate 0.2 per dispatch attempt), and
through a single-executor baseline (one replica, no retries, no
hedging) under the *same* fault seeds.

Contracts asserted here:

* the replicated scheduler sustains >= 99% availability under chaos;
* its p99 latency is strictly better than the single-executor
  baseline's.  The comparison uses the *effective* p99 over all
  submitted requests, counting a failed request as unserved (infinite
  latency) — the summary's ``p99_latency`` covers completed requests
  only, which would flatter a baseline that fails a third of its
  traffic in one quick crash each;
* every *completed* request's output slice is byte-identical to its
  fault-free run (PR 5's exactness contract carried through the
  serving tier);
* a second replay with the same seeds has identical routing traces
  and retry/hedge/breaker/shed counters.

The trajectory lands in ``BENCH_PR10.json`` at the repository root
(schema ``repro-perf/10``; see ``repro.bench.telemetry``).
"""

import os
import pathlib
import time

from repro import MachineConfig
from repro.bench import PerfLog
from repro.cluster.faults import FaultConfig
from repro.serve import (
    DONE,
    ResiliencePolicy,
    ResilientScheduler,
    ServePolicy,
    ServeScheduler,
    hot_matrix_trace,
)
from repro.sparse import suite

from conftest import emit

REPO_ROOT = pathlib.Path(__file__).parent.parent

HOT_MATRIX = "kmer"
MATRIX_SIZE = "tiny"
N_NODES = 8
REQUEST_K = 8
N_REQUESTS = 48
TRACE_SEED = 7
BURST_SIZE = 8
BURST_GAP = 0.25
MAX_FUSED_K = 64
MAX_BATCH_DELAY = 0.05

CHAOS_INTENSITY = 0.5
CRASH_RATE = 0.4 * CHAOS_INTENSITY
FAULT_SEED = 11
N_REPLICAS = 3
MAX_RETRIES = 4
HEDGE_DELAY = 0.05

AVAILABILITY_FLOOR = 0.99


def effective_p99(report) -> float:
    """p99 latency over *all* submitted requests; failed = unserved."""
    import math

    latencies = sorted(
        (o.latency if o.status == DONE else math.inf)
        for o in report.outcomes
    )
    return latencies[max(0, math.ceil(0.99 * len(latencies)) - 1)]


def chaos_faults() -> FaultConfig:
    return FaultConfig.from_intensity(
        CHAOS_INTENSITY, seed=FAULT_SEED,
        executor_crash_rate=CRASH_RATE,
    )


def policy() -> ServePolicy:
    # Classification pinned at the request width so degraded / shed /
    # re-batched dispatches still accumulate C in the reference order.
    return ServePolicy(
        max_fused_k=MAX_FUSED_K,
        max_batch_delay=MAX_BATCH_DELAY,
        max_queue_depth=4 * N_REQUESTS,
        classify_k=REQUEST_K,
    )


def replay(matrices, trace, resilience, faults):
    """One fresh resilient-scheduler replay: (report, wall_seconds)."""
    scheduler = ResilientScheduler(
        MachineConfig(n_nodes=N_NODES), matrices,
        policy=policy(), resilience=resilience, faults=faults,
    )
    started = time.perf_counter()
    report = scheduler.serve(trace, fuse=True)
    return report, time.perf_counter() - started


def run_resilience_experiment():
    matrices = {HOT_MATRIX: suite.load(HOT_MATRIX, size=MATRIX_SIZE)}
    trace = hot_matrix_trace(
        matrices, n_requests=N_REQUESTS, k=REQUEST_K, seed=TRACE_SEED,
        hot=HOT_MATRIX, burst_size=BURST_SIZE, burst_gap=BURST_GAP,
    )
    resilient_policy = ResiliencePolicy(
        n_replicas=N_REPLICAS, max_retries=MAX_RETRIES,
        hedge_delay=HEDGE_DELAY,
    )
    # The single-executor baseline runs under the *same* chaos but has
    # nowhere to route around it: one replica, no retries, no hedging.
    single_policy = ResiliencePolicy(n_replicas=1, max_retries=0)

    reports = {}
    walls = {}
    replays = {}
    for mode, resilience in (
        ("resilient", resilient_policy), ("single", single_policy),
    ):
        reports[mode], walls[mode] = replay(
            matrices, trace, resilience, chaos_faults()
        )
        replays[mode], _ = replay(
            matrices, trace, resilience, chaos_faults()
        )

    # Fault-free reference for the exactness contract.
    reference = ServeScheduler(
        MachineConfig(n_nodes=N_NODES), matrices, policy=policy()
    ).serve(trace, fuse=True)
    ref_bytes = {
        o.request_id: o.C.tobytes()
        for o in reference.outcomes if o.status == DONE
    }

    # Contract 1: completed slices byte-identical to fault-free.
    for key, report in reports.items():
        for o in report.outcomes:
            if o.status == DONE:
                assert o.C.tobytes() == ref_bytes[o.request_id], (
                    key, o.request_id,
                )

    # Contract 2: same seeds replay identically — routing, retries,
    # hedges, breakers, sheds, and output bytes.
    for mode in ("resilient", "single"):
        first, second = reports[mode], replays[mode]
        assert first.counter_trace() == second.counter_trace(), mode
        assert first.replica_stats == second.replica_stats, mode
        assert first.serving_summary() == second.serving_summary(), mode
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.status == b.status
            if a.status == DONE:
                assert a.C.tobytes() == b.C.tobytes()

    rs = reports["resilient"].serving_summary()
    ss = reports["single"].serving_summary()

    # Contract 3: availability and tail latency under chaos.
    res_p99 = effective_p99(reports["resilient"])
    single_p99 = effective_p99(reports["single"])
    assert rs["availability"] >= AVAILABILITY_FLOOR, (rs, ss)
    assert res_p99 < single_p99, (res_p99, single_p99, rs, ss)
    # The chaos actually bit: crashes were injected and recovered.
    assert reports["resilient"].crashes > 0
    assert rs["availability"] >= ss["availability"]

    record = {
        "matrix": HOT_MATRIX,
        "matrix_size": MATRIX_SIZE,
        "n_nodes": N_NODES,
        "request_k": REQUEST_K,
        "n_requests": N_REQUESTS,
        "trace": "hot",
        "trace_seed": TRACE_SEED,
        "chaos_intensity": CHAOS_INTENSITY,
        "executor_crash_rate": CRASH_RATE,
        "fault_seed": FAULT_SEED,
        "n_replicas": N_REPLICAS,
        "max_retries": MAX_RETRIES,
        "hedge_delay": HEDGE_DELAY,
        "availability": rs["availability"],
        "single_availability": ss["availability"],
        # math.inf would serialise as non-standard JSON (`Infinity`).
        "effective_p99_latency": (
            res_p99 if res_p99 != float("inf") else "unserved"
        ),
        "single_effective_p99_latency": (
            single_p99 if single_p99 != float("inf") else "unserved"
        ),
        "completed_p99_latency": rs["p99_latency"],
        "single_completed_p99_latency": ss["p99_latency"],
        "byte_identical_to_fault_free": True,
        "replay_reproducible": True,
        "host_cpus": os.cpu_count(),
        "resilient_summary": rs,
        "single_summary": ss,
    }
    return reports, walls, record


def test_pr10_resilient_serving(benchmark, results_dir):
    reports, walls, record = benchmark.pedantic(
        run_resilience_experiment, rounds=1, iterations=1
    )

    log = PerfLog(label="BENCH_PR10")
    for key, report in reports.items():
        log.record_serve_cell(
            name=f"{HOT_MATRIX}/serve-resilient/{key}",
            matrix=HOT_MATRIX,
            algorithm=f"TwoFace/{key}",
            k=REQUEST_K,
            n_nodes=N_NODES,
            serving=report.serving_summary(),
            wall_seconds=walls[key],
        )
    log.record_experiment("serving_resilience", record)
    log.write(REPO_ROOT / "BENCH_PR10.json")

    rs, ss = record["resilient_summary"], record["single_summary"]
    emit(
        results_dir,
        "pr10_resilience",
        ["metric", "resilient", "single"],
        [
            [name, rs[name], ss[name]]
            for name in (
                "completed", "failed", "availability", "retries",
                "hedges", "crashes", "timeouts", "breaker_opens",
                "p50_latency", "p99_latency", "requests_per_sec",
                "makespan",
            )
        ],
        "Serving resilience: replicated vs single executor under chaos",
    )

    assert record["availability"] >= AVAILABILITY_FLOOR
    res_p99 = record["effective_p99_latency"]
    single_p99 = record["single_effective_p99_latency"]
    assert res_p99 != "unserved"
    assert single_p99 == "unserved" or res_p99 < single_p99
