"""Fault-plan replay through the resilient serve path on layered grids.

Satellite coverage for the per-replica resilience invariant: every
one-sided (rget) failure a replica's executor absorbs must be accounted
for by exactly one retry or one lane fallback —
``rget_retries + lane_fallbacks == rget_failures`` per replica, for
every serve cell, on the 1.5D and 2D process grids as well as 1D.
"""

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig
from repro.cluster.machine import MachineConfig
from repro.dist.grid import Grid1D, Grid15D, Grid2D
from repro.serve import (
    DONE,
    ResiliencePolicy,
    ResilientScheduler,
    ServePolicy,
    bursty_trace,
)
from repro.sparse import suite

N_NODES = 4

GRIDS = {
    "1d": lambda: Grid1D(N_NODES),
    "1.5d": lambda: Grid15D(p_r=2, c=2),
    "2d": lambda: Grid2D(p_r=2, p_c=2),
}


@pytest.fixture(scope="module")
def matrices():
    # A suite matrix (power-law structure) keeps both stripe classes —
    # and hence one-sided rget traffic — alive on the layered grids.
    return {"alpha": suite.load("web", size="small")}


def build(matrices, grid_key, faults, n_replicas=2, **res_kwargs):
    grids = [GRIDS[grid_key]() for _ in range(n_replicas)]
    return ResilientScheduler(
        MachineConfig(n_nodes=N_NODES), matrices,
        policy=ServePolicy(max_fused_k=64, max_batch_delay=0.05,
                           max_queue_depth=256, classify_k=4),
        resilience=ResiliencePolicy(
            n_replicas=n_replicas, **res_kwargs
        ),
        faults=faults,
        grids=grids,
    )


def chaos(seed=0, intensity=0.6):
    return FaultConfig.from_intensity(
        intensity, seed=seed,
        executor_crash_rate=min(1.0, 0.4 * intensity),
    )


@pytest.mark.parametrize("grid_key", ["1d", "1.5d", "2d"])
class TestGridResilienceInvariant:
    def test_per_replica_invariant_under_chaos(self, matrices, grid_key):
        trace = bursty_trace(matrices, n_requests=16, k=4, seed=8,
                             burst_size=4, burst_gap=0.25)
        report = build(
            matrices, grid_key, chaos(seed=5), max_retries=4
        ).serve(trace, fuse=True)
        total_rget = 0
        for rid, stats in report.replica_stats.items():
            assert (
                stats["rget_retries"] + stats["lane_fallbacks"]
                == stats["rget_failures"]
            ), f"replica {rid} leaked a one-sided failure ({grid_key})"
            total_rget += stats["rget_failures"]
        assert total_rget > 0, "chaos injected no rget failures"
        assert report.availability >= 0.99

    def test_completed_outputs_match_fault_free(self, matrices, grid_key):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=6,
                             burst_size=4, burst_gap=0.25)
        chaotic = build(
            matrices, grid_key, chaos(seed=2), max_retries=4
        ).serve(trace)
        clean = build(
            matrices, grid_key, None, n_replicas=1, max_retries=0
        ).serve(trace)
        ref = {o.request_id: o.C.tobytes() for o in clean.outcomes
               if o.status == DONE}
        for o in chaotic.outcomes:
            if o.status == DONE:
                assert o.C.tobytes() == ref[o.request_id]

    def test_replay_identical_across_runs(self, matrices, grid_key):
        trace = bursty_trace(matrices, n_requests=12, k=4, seed=4,
                             burst_size=4, burst_gap=0.25)
        first, second = (
            build(matrices, grid_key, chaos(seed=9), max_retries=4)
            .serve(trace)
            for _ in range(2)
        )
        assert first.counter_trace() == second.counter_trace()
        assert first.replica_stats == second.replica_stats
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.status == b.status
            if a.status == DONE:
                assert a.C.tobytes() == b.C.tobytes()


class TestMixedGrids:
    def test_replicas_may_use_distinct_layouts(self, matrices):
        trace = bursty_trace(matrices, n_requests=8, k=4, seed=1,
                             burst_size=4, burst_gap=0.3)
        scheduler = ResilientScheduler(
            MachineConfig(n_nodes=N_NODES), matrices,
            policy=ServePolicy(max_fused_k=64, max_batch_delay=0.05,
                               max_queue_depth=256, classify_k=4),
            resilience=ResiliencePolicy(n_replicas=2, max_retries=2),
            faults=chaos(seed=3, intensity=0.4),
            grids=[Grid15D(p_r=2, c=2), Grid2D(p_r=2, p_c=2)],
        )
        report = scheduler.serve(trace)
        assert report.availability == 1.0
        # Layered layouts are numerically exact vs the dense product.
        A = matrices["alpha"]
        import scipy.sparse as sp

        ref = sp.coo_matrix(
            (A.vals, (A.rows, A.cols)), shape=A.shape
        ).tocsr()
        for req, outcome in zip(
            sorted(trace, key=lambda r: r.request_id), report.outcomes
        ):
            np.testing.assert_allclose(
                outcome.C, ref @ req.B, rtol=0, atol=1e-9
            )
