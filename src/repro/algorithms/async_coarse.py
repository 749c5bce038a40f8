"""Async Coarse-Grained baseline: one-sided whole-block MPI_Get.

Each node determines which blocks of ``B`` its nonzeros touch and pulls
each of those blocks with a one-sided MPI_Get, then computes locally.
Compared to AllGather it skips blocks it does not need at all, but a
block with even one needed row is transferred whole — so for matrices
whose nonzeros touch every block (social networks) it degenerates into
full replication paid at the expensive one-sided rate (paper Figs. 7-9
show it trailing the field).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..cluster.faults import RESILIENCE_STATS, ResilienceStats
from .base import DistSpMMAlgorithm, RunContext


class AsyncCoarse(DistSpMMAlgorithm):
    """Sparsity-aware only at block granularity (Table 4: MPI_Get).

    Under fault injection the whole-block gets retry with exponential
    backoff exactly like the Two-Face async lane; a block whose attempt
    budget runs out arrives via a sync multicast from its owner instead
    (the breakdown then shows sync-lane time the healthy run never has).
    """

    name = "AsyncCoarse"

    def _execute(self, ctx: RunContext) -> None:
        net = ctx.machine.network
        compute = ctx.machine.compute
        k = ctx.k
        faults = ctx.cluster.faults

        for rank in range(ctx.n_nodes):
            slab = ctx.A.slab(rank)
            if slab.nnz == 0:
                continue
            resil = ResilienceStats() if faults is not None else None
            needed_blocks = np.unique(ctx.B.partition.owners_of(slab.cols))
            get_time = 0.0
            sync_time = 0.0
            root_costs = []
            request_seq = 0
            for block_id in needed_blocks:
                if block_id == rank:
                    continue
                owner = int(block_id)
                block = ctx.B.block(owner)
                if faults is None:
                    ctx.mpi.get_block(
                        rank, owner, block, label="B_got",
                        charge_time=False,
                    )
                    get_time += net.rget_time(int(block.nbytes), n_chunks=1)
                else:
                    a_comm, s_comm, roots, request_seq = (
                        self._resilient_get(
                            ctx, faults, rank, owner, int(block.nbytes),
                            resil, request_seq,
                        )
                    )
                    get_time += a_comm
                    sync_time += s_comm
                    root_costs.extend(roots)

            csr = slab.to_scipy().tocsr()
            ctx.C.block(rank)[:] += csr @ ctx.B.data
            nonempty = int(np.count_nonzero(np.diff(csr.indptr)))
            comp_time = compute.sync_panel_time(
                slab.nnz, k, nonempty, ctx.threads.total
            )
            if faults is not None:
                comp_time *= faults.compute_skew(rank)
            node = ctx.breakdown.node(rank)
            # A couple of threads issue the gets concurrently.
            node.async_comm += get_time / ctx.threads.async_comm
            node.sync_comp += comp_time
            if resil is not None:
                RESILIENCE_STATS.merge_from(resil)
                node.sync_comm += sync_time
                for owner, cost in root_costs:
                    ctx.breakdown.node(owner).sync_comm += cost

    @staticmethod
    def _resilient_get(
        ctx: RunContext,
        faults,
        rank: int,
        owner: int,
        nbytes: int,
        resil: ResilienceStats,
        request_seq: int,
    ) -> Tuple[float, float, list, int]:
        """One whole-block get under fault injection.

        Same retry/backoff/fallback policy as the Two-Face async lane,
        with a single piece (whole-block gets have nothing to re-chunk).
        """
        cfg = faults.config
        net = ctx.machine.network
        scale = faults.link_scale(owner, rank)
        async_comm = 0.0
        sync_comm = 0.0
        root_costs = []
        attempt = 0
        while True:
            if not faults.rget_attempt_fails(
                rank, owner, request_seq, attempt
            ):
                ctx.mpi.rget_charge(
                    rank, owner, nbytes, 1, "B_got", "B_got:block",
                )
                async_comm += scale * net.rget_time(nbytes, n_chunks=1)
                break
            resil.rget_failures += 1
            async_comm += scale * net.rget_time(nbytes, n_chunks=1)
            ctx.mpi.rget_failure(
                rank, owner, nbytes, f"B_got:attempt{attempt}",
            )
            attempt += 1
            if attempt >= cfg.rget_max_attempts:
                resil.lane_fallbacks += 1
                ctx.mpi.fallback_multicast(
                    owner, rank, nbytes, "B_got", "B_got:fallback",
                )
                cost = scale * net.bcast_time(nbytes, 1)
                sync_comm += cost
                root_costs.append((owner, cost))
                break
            backoff = cfg.rget_backoff_base * (2 ** (attempt - 1))
            resil.retries += 1
            resil.backoff_seconds += backoff
            async_comm += backoff
        return async_comm, sync_comm, root_costs, request_seq + 1
