"""Tests for the reusable SpMM engine's plan/schedule reuse."""

import numpy as np
import pytest

from repro import MachineConfig
from repro.core import reset_transfer_cache_stats, transfer_cache_stats
from repro.gnn import planted_partition, train_gcn
from repro.gnn.engine import DistSpMMEngine
from repro.sparse import erdos_renyi


@pytest.fixture
def machine():
    return MachineConfig(n_nodes=4, memory_capacity=1 << 30)


class TestEngineScheduleReuse:
    def test_repeated_multiplies_reuse_schedules(self, machine, rng):
        A = erdos_renyi(64, 64, 400, seed=9)
        engine = DistSpMMEngine(A, machine, stripe_width=4)
        B = rng.standard_normal((64, 8))
        C1, _ = engine.multiply(B)
        C2, _ = engine.multiply(B)
        np.testing.assert_array_equal(C1, C2)
        stats = engine.cache_stats()
        assert stats["recomputes"] == 0
        assert engine.n_preprocess == 1

    def test_distinct_k_distinct_plans(self, machine, rng):
        A = erdos_renyi(64, 64, 400, seed=9)
        engine = DistSpMMEngine(A, machine, stripe_width=4)
        engine.multiply(rng.standard_normal((64, 8)))
        engine.multiply(rng.standard_normal((64, 16)))
        assert engine.n_preprocess == 2
        assert engine.cache_stats()["recomputes"] == 0

    def test_exec_stats_scatter_counters(self, machine, rng, monkeypatch):
        from repro.sparse import SCATTER_ENV

        monkeypatch.delenv(SCATTER_ENV, raising=False)
        A = erdos_renyi(64, 64, 400, seed=9)
        engine = DistSpMMEngine(A, machine, stripe_width=4)
        B = rng.standard_normal((64, 8))
        engine.multiply(B)
        engine.multiply(B)
        stats = engine.exec_stats()
        # Default mode: only the segmented kernel served the stripes.
        assert stats["scatter_atomic"] == 0
        assert stats["scatter_segmented"] > 0
        # Sync handles build once per rank matrix, then hit.
        assert stats["sync_csr_builds"] <= machine.n_nodes
        assert stats["sync_csr_hits"] > 0

    def test_steady_epoch_makes_no_arena_grows(self, machine, rng):
        """The first epoch sizes the process fetch arena; every later
        epoch reuses its buffers (zero per-stripe allocations) without
        any warm-up call."""
        from repro.cluster.buffers import reset_arenas

        reset_arenas(release_buffers=True)
        A = erdos_renyi(64, 64, 400, seed=9)
        engine = DistSpMMEngine(A, machine, stripe_width=4)
        B = rng.standard_normal((64, 8))
        epoch_spmms = 3
        for _ in range(epoch_spmms):
            engine.multiply(B)
        first = engine.exec_stats()
        assert first["arena_grows"] > 0  # the workload has async stripes
        for _ in range(epoch_spmms):
            engine.multiply(B)
        second = engine.exec_stats()
        assert second["arena_grows"] - first["arena_grows"] == 0
        assert second["arena_hits"] > first["arena_hits"]

    def test_exec_stats_atomic_mode(self, machine, rng, monkeypatch):
        from repro.sparse import SCATTER_ENV

        monkeypatch.setenv(SCATTER_ENV, "atomic")
        A = erdos_renyi(64, 64, 400, seed=9)
        engine = DistSpMMEngine(A, machine, stripe_width=4)
        engine.multiply(rng.standard_normal((64, 8)))
        stats = engine.exec_stats()
        assert stats["scatter_segmented"] == 0
        assert stats["scatter_atomic"] > 0


class TestTrainingScheduleReuse:
    def test_two_epoch_training_never_recomputes(self):
        """Across a >= 2 epoch GCN training run every SpMM reuses the
        plan's cached transfer schedules (paper §5.4/§7.3)."""
        dataset = planted_partition(
            512, n_classes=4, intra_fraction=0.9, avg_degree=8,
            feature_dim=8, seed=5,
        )
        machine = MachineConfig(n_nodes=4, memory_capacity=1 << 30)
        reset_transfer_cache_stats()
        report = train_gcn(
            dataset, machine, hidden_dim=8, epochs=2, lr=0.5
        )
        stats = transfer_cache_stats()
        assert report.spmm_ops >= 8  # 2 layers x fwd+bwd x 2 epochs
        assert stats.recomputes == 0
        reset_transfer_cache_stats()
