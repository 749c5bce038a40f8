"""Run-to-run determinism of execution, and the scatter-kernel contract.

Every simulated quantity (output values, per-node lane breakdowns,
traffic counters, the communication event log, and the makespan) must
come out *bitwise* equal when the same workload runs twice: warm
arenas and cached schedules must not drift across executions.  Host
wall time is the only thing allowed to change.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import (
    AllGather,
    AsyncCoarse,
    AsyncFine,
    DenseShifting,
    TwoFace,
)
from repro.core import bernoulli_mask, preprocess
from repro.dist import DistSparseMatrix, RowPartition
from repro.sparse import SCATTER_ENV, erdos_renyi

N_NODES = 8


@pytest.fixture(scope="module")
def matrix():
    # Big enough that every rank has sync panels and async stripes.
    return erdos_renyi(256, 256, 6000, seed=11)


@pytest.fixture(scope="module")
def dense(matrix):
    rng = np.random.default_rng(99)
    return rng.standard_normal((matrix.shape[1], 16))


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(n_nodes=N_NODES)


def run_twice(make_algorithm, matrix, dense, machine):
    """Run the same workload twice; return both results."""
    first = make_algorithm().run(matrix, dense, machine)
    second = make_algorithm().run(matrix, dense, machine)
    return first, second


def assert_bit_identical(first, second):
    assert not first.failed and not second.failed
    np.testing.assert_array_equal(first.C, second.C)
    assert first.seconds == second.seconds  # bitwise, no tolerance
    for node_a, node_b in zip(first.breakdown.nodes, second.breakdown.nodes):
        assert node_a == node_b  # all five float components, exactly
    assert first.traffic == second.traffic
    assert first.events == second.events  # order and content


ALGORITHMS = [
    pytest.param(TwoFace, id="TwoFace"),
    pytest.param(AsyncFine, id="AsyncFine"),
    pytest.param(AllGather, id="Allgather"),
    pytest.param(AsyncCoarse, id="AsyncCoarse"),
    pytest.param(lambda: DenseShifting(replication=2), id="DS2"),
]


@pytest.mark.parametrize("make_algorithm", ALGORITHMS)
def test_repeated_runs_bit_identical(make_algorithm, matrix, dense, machine):
    assert_bit_identical(*run_twice(make_algorithm, matrix, dense, machine))


def test_repeated_runs_bit_identical_with_mask(matrix, dense, machine):
    """The masked (sampled-GNN) path, including the keep-all fast path."""
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    plan, _ = preprocess(dist, k=dense.shape[1], stripe_width=32)
    for rate in (0.5, 1.0):  # 1.0 exercises the copy-skip fast path
        mask = bernoulli_mask(plan, rate, seed=5)
        assert_bit_identical(*run_twice(
            lambda: TwoFace(plan=plan, mask=mask), matrix, dense, machine,
        ))


def _run_mode(monkeypatch, mode, plan, matrix, dense, machine):
    monkeypatch.setenv(SCATTER_ENV, mode)
    return TwoFace(plan=plan).run(matrix, dense, machine)


@pytest.fixture(scope="module")
def plan(matrix, dense):
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    plan, _ = preprocess(dist, k=dense.shape[1], stripe_width=32)
    return plan


def test_scatter_modes_bitwise_timing_allclose_values(
    monkeypatch, plan, matrix, dense, machine
):
    """The REPRO_SCATTER contract: simulated seconds, lane breakdowns,
    traffic counters, and the event log are *bitwise* identical between
    kernels (the timing model consumes counts, not values); only C is
    allowed to differ, and only within 1e-12 relative tolerance."""
    segmented = _run_mode(monkeypatch, "segmented", plan, matrix, dense, machine)
    atomic = _run_mode(monkeypatch, "atomic", plan, matrix, dense, machine)
    assert not segmented.failed and not atomic.failed
    assert segmented.seconds == atomic.seconds
    for node_s, node_a in zip(
        segmented.breakdown.nodes, atomic.breakdown.nodes
    ):
        assert node_s == node_a
    assert segmented.traffic == atomic.traffic
    assert segmented.events == atomic.events
    np.testing.assert_allclose(segmented.C, atomic.C, rtol=1e-12)


def test_scatter_modes_contract_with_mask(
    monkeypatch, plan, matrix, dense, machine
):
    """Same contract on the masked (sampled-GNN) path."""
    mask = bernoulli_mask(plan, 0.5, seed=5)
    results = {}
    for mode in ("segmented", "atomic"):
        monkeypatch.setenv(SCATTER_ENV, mode)
        results[mode] = TwoFace(plan=plan, mask=mask).run(
            matrix, dense, machine
        )
    assert results["segmented"].seconds == results["atomic"].seconds
    assert results["segmented"].events == results["atomic"].events
    np.testing.assert_allclose(
        results["segmented"].C, results["atomic"].C, rtol=1e-12
    )


def test_segmented_c_bytes_identical_across_runs(
    monkeypatch, plan, matrix, dense, machine
):
    """Reproducible determinism of the segmented kernel: the stable
    plan-time permutation fixes the summation order, so C's bytes are
    identical across repeated runs."""
    monkeypatch.setenv(SCATTER_ENV, "segmented")
    blobs = []
    for _ in range(3):
        result = TwoFace(plan=plan).run(matrix, dense, machine)
        assert not result.failed
        blobs.append(result.C.tobytes())
    assert all(blob == blobs[0] for blob in blobs)


def test_arena_ceilings_finalizes_hand_assembled_plan(matrix, dense):
    """Satellite: arena_ceilings must not silently return 1-row
    ceilings for a plan whose schedules were never finalised."""
    from repro.core.executor import arena_ceilings

    k = dense.shape[1]
    dist = DistSparseMatrix(matrix, RowPartition(matrix.shape[0], N_NODES))
    reference, _ = preprocess(
        dist, k=k, stripe_width=32, force_all_async=True
    )
    expected = arena_ceilings(reference, k)
    assert expected["async_fetch"][0] > 1  # the workload has stripes

    bare, _ = preprocess(dist, k=k, stripe_width=32, force_all_async=True)
    for rank_plan in bare.ranks:
        for stripe in rank_plan.async_matrix.stripes:
            stripe.schedule = None
            stripe.reduce_schedule = None
    assert not bare.finalized
    assert arena_ceilings(bare, k) == expected
    assert bare.finalized
