"""Bitwise determinism of the per-rank planning loop.

Planning the same matrix twice must give bit-identical plans, stripe
destinations, and reports.  ``plan_digest`` serialises the whole plan
(geometry, coefficients, destinations, every rank's matrices and cached
schedules) and hashes the bytes, so one comparison covers everything
that travels in the v2 container.
"""

import dataclasses

import pytest

from repro import MachineConfig
from repro.core import preprocess
from repro.core.serialize import plan_digest
from repro.dist import DistSparseMatrix, RowPartition
from repro.sparse import banded, erdos_renyi, hub_skewed, rmat

MATRICES = {
    "erdos_renyi": lambda: erdos_renyi(96, 96, 1200, seed=11),
    "rmat": lambda: rmat(7, 12.0, seed=5),
    "hub_skewed": lambda: hub_skewed(96, 10.0, 6, seed=9),
    "banded": lambda: banded(96, 9, 8.0, seed=2),
}


def reports_equal(a, b):
    """Reports must match exactly except the host wall clock."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("wall_seconds"), db.pop("wall_seconds")
    return da == db


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_rebuild_is_bitwise_identical(name):
    matrix = MATRICES[name]()
    dist = DistSparseMatrix(
        matrix, RowPartition(matrix.shape[0], 4)
    )
    first_plan, first_rep = preprocess(dist, k=16, stripe_width=8)
    second_plan, second_rep = preprocess(dist, k=16, stripe_width=8)
    assert plan_digest(second_plan) == plan_digest(first_plan)
    assert second_plan.stripe_destinations == (
        first_plan.stripe_destinations
    )
    assert reports_equal(second_rep, first_rep)


def test_memory_fallback_deterministic():
    """The §6.3 budget path (memory flips) plans deterministically."""
    matrix = hub_skewed(96, 16.0, 8, seed=4)
    dist = DistSparseMatrix(matrix, RowPartition(96, 4))
    tight = MachineConfig(n_nodes=4, memory_capacity=50_000)
    first_plan, first_rep = preprocess(
        dist, k=64, stripe_width=8, machine=tight
    )
    second_plan, second_rep = preprocess(
        dist, k=64, stripe_width=8, machine=tight
    )
    assert first_rep.memory_flips > 0  # the fallback actually fired
    assert plan_digest(second_plan) == plan_digest(first_plan)
    assert reports_equal(second_rep, first_rep)


@pytest.mark.parametrize("flag", ["force_all_async", "force_all_sync"])
def test_force_flags_deterministic(flag):
    matrix = erdos_renyi(96, 96, 1200, seed=6)
    dist = DistSparseMatrix(matrix, RowPartition(96, 4))
    kwargs = {flag: True}
    first, _ = preprocess(dist, k=16, stripe_width=8, **kwargs)
    second, _ = preprocess(dist, k=16, stripe_width=8, **kwargs)
    assert plan_digest(second) == plan_digest(first)
