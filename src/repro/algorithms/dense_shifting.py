"""Dense shifting (DS) — the paper's main baseline [Bharadwaj et al.].

DS replicates ``c`` consecutive blocks of ``B`` per node with an
MPI_Allgather over *replication groups* of ``c`` ranks, then performs
``p / c`` computation steps, cyclically shifting the whole ``c``-block
bundle between groups with MPI_Sendrecv after each step.  Total
communication volume is nearly independent of ``c`` (every node still
sees all of ``B``); larger ``c`` buys fewer synchronised steps at the
price of ``c`` resident blocks — which is what makes DS4/DS8 run out of
memory on large matrices and large K (paper Figs. 9, 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ConfigurationError
from .base import DistSpMMAlgorithm, RunContext


@dataclass
class _RankPieces:
    """One rank's slab pre-bucketed by owner block of the column."""

    by_block: Dict[int, object]  # block id -> scipy CSR piece
    nnz_by_block: Dict[int, int]
    rows_by_block: Dict[int, int]  # nonempty output rows per piece


def bucket_slab(slab, col_partition, n_blocks: int, n_cols: int) -> _RankPieces:
    """Split one rank's slab into per-owner-block scipy CSR pieces.

    Shared by the simulator path below and the shared-memory transport
    (which pre-buckets on the driver before forking workers).

    Args:
        slab: the rank's row-rebased :class:`~repro.sparse.coo.COOMatrix`.
        col_partition: the dense-row partition of ``B`` (block owners).
        n_blocks: number of ``B`` blocks (= ranks).
        n_cols: global dense row count (``B.shape[0]``; pieces span the
            full column space so ``piece @ B`` works unsliced).
    """
    import scipy.sparse as sp

    by_block: Dict[int, object] = {}
    nnz_by_block: Dict[int, int] = {}
    rows_by_block: Dict[int, int] = {}
    if slab.nnz == 0:
        return _RankPieces(by_block, nnz_by_block, rows_by_block)
    owners = col_partition.owners_of(slab.cols)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    boundaries = np.searchsorted(sorted_owners, np.arange(n_blocks + 1))
    for block_id in range(n_blocks):
        lo, hi = boundaries[block_id], boundaries[block_id + 1]
        if lo == hi:
            continue
        sel = order[lo:hi]
        piece = sp.csr_matrix(
            (slab.vals[sel], (slab.rows[sel], slab.cols[sel])),
            shape=(slab.shape[0], n_cols),
        )
        by_block[block_id] = piece
        nnz_by_block[block_id] = int(hi - lo)
        rows_by_block[block_id] = int(len(np.unique(slab.rows[sel])))
    return _RankPieces(by_block, nnz_by_block, rows_by_block)


class DenseShifting(DistSpMMAlgorithm):
    """DS with replication factor ``c`` (DS1/DS2/DS4/DS8 in the paper)."""

    def __init__(self, replication: int = 2):
        if replication < 1:
            raise ConfigurationError(
                f"replication factor must be >= 1: {replication}"
            )
        self.replication = replication
        self.name = f"DS{replication}"

    # ------------------------------------------------------------------
    def _execute(self, ctx: RunContext) -> None:
        p = ctx.n_nodes
        c = min(self.replication, p)
        n_groups = math.ceil(p / c)
        net = ctx.machine.network
        compute = ctx.machine.compute
        k = ctx.k
        faults = ctx.cluster.faults
        max_block_bytes = ctx.B.partition.max_size() * k * 8

        # Replica bundle (c blocks) plus a same-sized receive bundle:
        # the cyclic shift is double-buffered, as in the reference
        # implementation, so peak footprint is ~2c blocks.
        bundle_blocks = c + (c if n_groups > 1 else 0)
        for rank in range(p):
            ctx.cluster.node(rank).memory.allocate(
                "DS_replicas", (bundle_blocks - 1) * max_block_bytes
            )

        pieces = [self._bucket_slab(ctx, rank) for rank in range(p)]
        groups = [
            list(range(g * c, min((g + 1) * c, p))) for g in range(n_groups)
        ]

        # Initial intra-group allgather.
        if c > 1:
            gather_cost = net.allgather_time(max_block_bytes, c)
            gathered_bytes = (c - 1) * max_block_bytes
            for rank in range(p):
                cost = gather_cost
                if faults is not None:
                    cost *= faults.worst_incoming_scale(rank)
                ctx.breakdown.node(rank).sync_comm += cost
                ctx.mpi.traffic._recv(rank, gathered_bytes)
            ctx.mpi.traffic.collective_bytes += p * gathered_bytes
            ctx.mpi.traffic.collective_ops += n_groups

        shift_bytes = c * max_block_bytes
        shift_cost = net.p2p_time(shift_bytes)
        for step in range(n_groups):

            comp_times = np.zeros(p)
            for rank in range(p):
                my_group = min(rank // c, n_groups - 1)
                held = groups[(my_group + step) % n_groups]
                nnz_step = 0
                rows_step = 0
                c_block = ctx.C.block(rank)
                for block_id in held:
                    piece = pieces[rank].by_block.get(block_id)
                    if piece is None:
                        continue
                    c_block += piece @ ctx.B.data
                    nnz_step += pieces[rank].nnz_by_block[block_id]
                    rows_step += pieces[rank].rows_by_block[block_id]
                seconds = compute.sync_panel_time(
                    nnz_step, k, rows_step, ctx.threads.total
                )
                if faults is not None:
                    seconds *= faults.compute_skew(rank)
                comp_times[rank] = seconds
            step_max = float(comp_times.max(initial=0.0))
            is_last = step == n_groups - 1
            for rank in range(p):
                node = ctx.breakdown.node(rank)
                node.sync_comp += comp_times[rank]
                # Barrier wait shows up inside the communication phase.
                node.sync_comm += step_max - comp_times[rank]
                if not is_last:
                    cost = shift_cost
                    if faults is not None:
                        # Rank r receives the bundle its neighbour held.
                        cost *= faults.link_scale((rank + 1) % p, rank)
                    node.sync_comm += cost
                    ctx.mpi.traffic.p2p_bytes += shift_bytes
                    ctx.mpi.traffic.p2p_messages += 1
                    ctx.mpi.traffic._recv(rank, shift_bytes)

    # ------------------------------------------------------------------
    def _bucket_slab(self, ctx: RunContext, rank: int) -> _RankPieces:
        """Split a rank's slab into per-block scipy CSR pieces."""
        return bucket_slab(
            ctx.A.slab(rank), ctx.B.partition, ctx.n_nodes, ctx.B.shape[0]
        )

    def _extras(self, ctx: RunContext) -> dict:
        return {"replication": self.replication}
