"""The Two-Face runtime (paper §5.2, Algorithms 1-3).

Executes a :class:`~repro.core.plan.TwoFacePlan` on the simulated
cluster.  Per node, two lanes run in parallel:

* **Synchronous lane** — thread 0 drives the series of MPI_Ibcast
  multicasts described by the dense-stripe metadata; once all dense
  stripes have arrived (the ``sync_transfer_done`` flag), the sync
  threads sweep the row panels of the sync/local-input matrix.
* **Asynchronous lane** — the async threads pop stripes from a work
  queue, fetch the needed dense rows with coalesced MPI_Rget, and
  compute column-major with per-nonzero accumulation.

A node finishes at ``max(sync lane, async lane) + other``; the cluster
finishes with its slowest node.

The lanes are concurrent only in simulated time.  Host-side, each
phase is a plain loop over the ranks in rank order that applies its
SimMPI accounting as it goes and draws scratch from the process
fetch-buffer arena.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.base import RunContext
from ..cluster.buffers import process_arena
from ..cluster.faults import RESILIENCE_STATS, FaultPlan, ResilienceStats
from ..errors import OutOfMemoryError, PartitionError
from ..runtime.threads import max_coalescing_gap
from ..sparse.ops import (
    SCATTER_SEGMENTED,
    SCATTER_STATS,
    ScatterStats,
    scatter_add,
    scatter_mode,
    segmented_reduce_into,
)
from .plan import TwoFacePlan
from .sampling_mask import SampleMask

#: Extra per-node setup of Two-Face (window creation, queues, metadata
#: replication) on top of the shared base setup — the "Other" bar of
#: Fig. 10 is visibly larger for Two-Face than for dense shifting.
TWOFACE_SETUP_SECONDS = 3.0e-5


def arena_ceilings(plan: TwoFacePlan, k: int) -> dict:
    """Per-slot ``(n_rows, n_cols)`` arena ceilings of a plan.

    The scratch this plan's largest async stripe needs; the
    shared-memory transport sizes each worker's arena segments with it.

    A plan whose schedules were never finalised (hand-assembled in a
    test, legacy deserialisation path) is finalised here first —
    otherwise the fetch ceiling would silently degenerate to one row
    and undersize every arena.
    """
    from ..sparse.ops import _SCATTER_CHUNK_ELEMS

    if not plan.finalized:
        plan.ensure_finalized()
    max_rows = 1
    max_nnz = 1
    max_segments = 1
    for rank_plan in plan.ranks:
        for stripe in rank_plan.async_matrix.stripes:
            max_rows = max(
                max_rows, int(stripe.schedule.chunk_sizes.sum())
            )
            max_nnz = max(max_nnz, stripe.nnz)
            max_segments = max(
                max_segments, stripe.reduce_schedule.n_segments
            )
    # The "scatter" slot holds per-chunk products on the atomic path
    # and per-segment sums on the segmented path; cover both.
    scatter_rows = max(
        max_segments,
        min(max_nnz, max(1, _SCATTER_CHUNK_ELEMS // max(1, k))),
    )
    return {
        "async_fetch": (max_rows, k),
        "async_gather": (max_nnz, k),
        "scatter": (scatter_rows, k),
    }


def accumulate_async_stripe(
    c_block: np.ndarray,
    fetched: np.ndarray,
    stripe,
    packed: np.ndarray,
    vals: np.ndarray,
    segmented: bool,
    arena,
    scatter: ScatterStats,
    keep: Optional[np.ndarray] = None,
) -> None:
    """Accumulate one async stripe's contribution into ``c_block``.

    The scatter half of the async lane, shared verbatim by the
    simulator path below and the shared-memory transport
    (:mod:`repro.transport.shm`): given the fetched dense rows, apply
    either the segmented-reduction kernel or the pinned atomic
    reference, in the plan's deterministic order.

    Args:
        c_block: the rank's output block (accumulated in place).
        fetched: the stripe's fetched dense rows, fetch order.
        stripe: the :class:`~repro.core.formats.AsyncStripe`.
        packed: the schedule's per-nonzero fetched-row index.
        vals: the stripe's nonzero values.
        segmented: pre-resolved ``scatter_mode() == SCATTER_SEGMENTED``.
        arena: the scratch :class:`~repro.cluster.buffers.FetchArena`.
        scatter: counter sink.
        keep: optional per-nonzero sampling mask (None = all live).
    """
    if segmented:
        reduce = stripe.ensure_reduce_schedule()
        if keep is None:
            vals_perm = reduce.permuted_vals(vals)
        else:
            vals_perm = (vals * keep)[reduce.order]
        segmented_reduce_into(
            c_block, fetched, reduce.gather_indices(packed),
            vals_perm, reduce.seg_ptrs(), reduce.out_rows,
            arena=arena, stats=scatter,
        )
    else:
        if keep is not None:
            vals = vals * keep
        scatter_add(
            c_block, stripe.nonzeros.rows, vals,
            arena.take_rows(fetched, packed, "async_gather"),
            arena=arena, stats=scatter,
        )


def execute_plan(
    plan: TwoFacePlan,
    ctx: RunContext,
    mask: Optional[SampleMask] = None,
) -> None:
    """Run distributed SpMM following ``plan`` (DistSPMM, Algorithm 1).

    Fills ``ctx.C`` with correct values and ``ctx.breakdown`` with the
    simulated lane times.

    Args:
        plan: the preprocessed plan.
        ctx: the distributed run context.
        mask: optional per-nonzero sampling mask (paper §5.4's sketch
            for GNN sampling: the graph stays stored as in Fig. 6, and
            a per-iteration mask filters eliminated nonzeros).  The
            communication schedule is unchanged — classification was
            decided offline on expected densities — while compute work
            and results cover only surviving nonzeros.

    Raises:
        PartitionError: if the plan does not match the run's partition.
        OutOfMemoryError: if received dense stripes or fetched rows
            exceed a node's simulated memory.
    """
    if plan.n_nodes != ctx.n_nodes:
        raise PartitionError(
            f"plan built for {plan.n_nodes} nodes, run has {ctx.n_nodes}"
        )
    if plan.k != ctx.k:
        raise PartitionError(
            f"plan built for K={plan.k}, run has K={ctx.k}"
        )
    if mask is not None:
        mask.validate_against(plan)
    for node in ctx.breakdown.nodes:
        node.other += TWOFACE_SETUP_SECONDS

    _sync_transfers(plan, ctx)
    _async_lane(plan, ctx, mask)
    _sync_compute(plan, ctx, mask)


# ----------------------------------------------------------------------
# Phase 1: collective transfers of dense stripes (Algorithm 1, lines 5-8)
# ----------------------------------------------------------------------
def _sync_transfers(plan: TwoFacePlan, ctx: RunContext) -> None:
    net = ctx.machine.network
    geometry = plan.geometry
    faults = ctx.cluster.faults
    for gid, dests in sorted(plan.stripe_destinations.items()):
        if not dests:
            continue
        owner = geometry.owner_of_stripe(gid)
        lo, hi = geometry.col_bounds(gid)
        payload = ctx.B.data[lo:hi]
        receivers = [d for d in dests if d != owner]
        if not receivers:
            continue
        ctx.mpi.multicast(
            owner, payload, receivers, label="dense_stripe_recv",
            charge_time=False,
        )
        cost = net.bcast_time(int(payload.nbytes), len(receivers))
        if faults is None:
            ctx.breakdown.node(owner).sync_comm += cost
            for dest in receivers:
                ctx.breakdown.node(dest).sync_comm += cost
        else:
            # A degraded link slows its destination; the root serves
            # until its slowest destination is done.
            scales = [faults.link_scale(owner, d) for d in receivers]
            ctx.breakdown.node(owner).sync_comm += cost * max(scales)
            for dest, scale in zip(receivers, scales):
                ctx.breakdown.node(dest).sync_comm += cost * scale


# ----------------------------------------------------------------------
# Phase 2: asynchronous stripes (Algorithm 1 lines 9-14, Algorithm 3)
# ----------------------------------------------------------------------
def _rechunk_boundaries(
    chunk_sizes: np.ndarray, max_piece_rows: int
) -> Optional[List[Tuple[int, int, int]]]:
    """Split a schedule's chunks into contiguous pieces that fit memory.

    Returns ``(chunk_lo, chunk_hi, piece_rows)`` triples covering the
    chunks in order, each piece at most ``max_piece_rows`` rows — or
    None when a single chunk alone exceeds the budget (a genuine OOM).
    The greedy left-to-right split is a pure function of the schedule
    and the budget, so re-chunking is deterministic.
    """
    pieces: List[Tuple[int, int, int]] = []
    lo = 0
    acc = 0
    for i, size in enumerate(chunk_sizes.tolist()):
        if size > max_piece_rows:
            return None
        if acc + size > max_piece_rows:
            pieces.append((lo, i, acc))
            lo, acc = i, 0
        acc += size
    pieces.append((lo, len(chunk_sizes), acc))
    return pieces


def _resilient_fetch_accounting(
    ctx: RunContext,
    faults: FaultPlan,
    rank: int,
    owner: int,
    schedule,
    row_bytes: int,
    headroom: int,
    resil: ResilienceStats,
    request_seq: int,
) -> Tuple[float, float, List[Tuple[int, float]], int]:
    """Charge one async stripe's fetch under fault injection.

    The data itself was already gathered (host views cannot fail); this
    models what the simulated cluster *pays* for it: per-piece rget
    requests (re-chunked to fit squeezed memory), failed attempts that
    burn their timeout budget, exponential backoff before retries, and
    sync-lane fallback multicasts once the attempt budget is exhausted.

    Returns ``(async_comm_seconds, sync_comm_seconds,
    fallback_root_costs, next_request_seq)``.
    """
    cfg = faults.config
    net = ctx.machine.network
    scale = faults.link_scale(owner, rank)
    total_rows = int(schedule.chunk_sizes.sum())
    total_bytes = total_rows * row_bytes
    ledger = ctx.cluster.node(rank).memory

    if total_bytes <= headroom:
        pieces = [(0, schedule.n_chunks, total_rows)]
    else:
        max_piece_rows = headroom // row_bytes
        pieces = (
            _rechunk_boundaries(schedule.chunk_sizes, max_piece_rows)
            if max_piece_rows > 0 else None
        )
        if pieces is None:
            oom = OutOfMemoryError(
                rank, ledger.current + total_bytes, ledger.capacity
            )
            if hasattr(oom, "add_note"):  # 3.11+
                oom.add_note(
                    f"async stripe fetch of {total_bytes} B cannot be "
                    f"re-chunked into the {headroom} B left by injected "
                    "memory pressure"
                )
            raise oom
        resil.rechunked_stripes += 1
        resil.rechunk_pieces += len(pieces)

    async_comm = 0.0
    sync_comm = 0.0
    root_costs: List[Tuple[int, float]] = []
    for piece_idx, (chunk_lo, chunk_hi, piece_rows) in enumerate(pieces):
        if piece_idx:
            # Streamed re-chunking: the previous piece's rows are
            # consumed and released before the next piece arrives, so
            # the ledger peak is one piece, not the whole stripe.
            ledger.free("async_rows")
        piece_bytes = piece_rows * row_bytes
        piece_chunks = chunk_hi - chunk_lo
        attempt = 0
        while True:
            if not faults.rget_attempt_fails(
                rank, owner, request_seq, attempt
            ):
                ctx.mpi.rget_charge(
                    rank, owner, piece_bytes, piece_chunks, "async_rows",
                    f"async_rows:{piece_chunks}chunks",
                )
                async_comm += scale * net.rget_time(
                    piece_bytes, n_chunks=piece_chunks
                )
                break
            resil.rget_failures += 1
            # The failed attempt burns its timeout budget: the full
            # modeled transfer time before the failure is detected.
            async_comm += scale * net.rget_time(
                piece_bytes, n_chunks=piece_chunks
            )
            ctx.mpi.rget_failure(
                rank, owner, piece_bytes, f"async_rows:attempt{attempt}",
            )
            attempt += 1
            if attempt >= cfg.rget_max_attempts:
                # Retry budget exhausted: this piece degrades to the
                # sync multicast lane (owner pushes the rows), at
                # collective rates, still over the degraded link.
                resil.lane_fallbacks += 1
                ctx.mpi.fallback_multicast(
                    owner, rank, piece_bytes, "async_rows",
                    "async_rows:fallback",
                )
                cost = scale * net.bcast_time(piece_bytes, 1)
                sync_comm += cost
                root_costs.append((owner, cost))
                break
            backoff = cfg.rget_backoff_base * (2 ** (attempt - 1))
            resil.retries += 1
            resil.backoff_seconds += backoff
            async_comm += backoff
        request_seq += 1
    return async_comm, sync_comm, root_costs, request_seq


def _async_lane(
    plan: TwoFacePlan,
    ctx: RunContext,
    mask: Optional[SampleMask] = None,
) -> None:
    net = ctx.machine.network
    compute = ctx.machine.compute
    k = ctx.k
    max_gap = max_coalescing_gap(k)
    faults = ctx.cluster.faults
    # Resolve the knob once so one execution never mixes kernels.
    segmented = scatter_mode() == SCATTER_SEGMENTED
    arena = process_arena()

    for rank in range(ctx.n_nodes):
        rank_plan = plan.rank_plan(rank)
        c_block = ctx.C.block(rank)
        comm_seconds = 0.0
        comp_seconds = 0.0
        sync_comm_seconds = 0.0
        root_costs: List[Tuple[int, float]] = []
        request_seq = 0
        if faults is not None:
            # Resilience counters are subtotalled per rank and folded
            # into the process totals after the rank, which fixes the
            # float summation order of the backoff seconds.
            resil = ResilienceStats()
            # Every stripe frees its rows and the other ranks' ops touch
            # other ledgers, so one headroom figure serves the whole rank.
            ledger = ctx.cluster.node(rank).memory
            headroom = ledger.capacity - ledger.current
            skew = faults.compute_skew(rank)
        for stripe_idx, stripe in enumerate(
            rank_plan.async_matrix.stripes
        ):
            if stripe.owner == rank:
                raise PartitionError(
                    f"stripe {stripe.gid} is local to rank {rank} but was "
                    "classified asynchronous"
                )
            block_start, _ = ctx.B.partition.bounds(stripe.owner)
            schedule = stripe.ensure_schedule(block_start, max_gap)
            # The cached packed map lands each nonzero's global c_id on
            # its fetched row; coverage is validated once per schedule
            # (the memoised verdict on the stripe) so steady-state
            # executions skip the per-stripe comparison.
            packed = schedule.packed
            if not stripe.covers_columns(schedule):
                raise PartitionError(
                    f"stripe {stripe.gid}: fetched rows do not cover the "
                    "stripe's c_ids"
                )
            block = ctx.B.block(stripe.owner)
            rows = schedule.local_rows()
            if faults is None:
                fetched = ctx.mpi.rget_row_chunks(
                    rank, stripe.owner, block,
                    schedule.chunk_offsets, schedule.chunk_sizes,
                    label="async_rows", rows=rows,
                    charge_time=False,
                    out=arena.request(
                        "async_fetch", len(rows), block.shape[1],
                        block.dtype,
                    ),
                )
                comm_seconds += net.rget_time(
                    int(fetched.nbytes), n_chunks=schedule.n_chunks
                )
            else:
                # Data movement (host views cannot fail) is one gather;
                # the simulated cost is modelled per piece/attempt.
                fetched = np.take(
                    block, rows, axis=0,
                    out=arena.request(
                        "async_fetch", len(rows), block.shape[1],
                        block.dtype,
                    ),
                )
                a_comm, s_comm, roots, request_seq = (
                    _resilient_fetch_accounting(
                        ctx, faults, rank, stripe.owner, schedule,
                        int(block.shape[1] * block.itemsize), headroom,
                        resil, request_seq,
                    )
                )
                comm_seconds += a_comm
                sync_comm_seconds += s_comm
                root_costs.extend(roots)
            vals = stripe.nonzeros.vals
            nnz_live = stripe.nnz
            keep = None
            if mask is not None:
                keep = mask.async_masks[rank][stripe_idx]
                nnz_live = int(np.count_nonzero(keep))
                if nnz_live == stripe.nnz:
                    keep = None  # keep-all: bitwise fast path
            # Segmented mode: one csr_matvecs call sums each output
            # row's segment straight out of the fetch buffer (indices =
            # the plan-resident composition packed[order], data = the
            # cached permuted values), then each output row lands with
            # a single fancy-indexed +=.  No gather, no materialised
            # products.
            accumulate_async_stripe(
                c_block, fetched, stripe, packed, vals, segmented,
                arena, SCATTER_STATS, keep=keep,
            )
            stripe_comp = compute.async_stripe_time(
                nnz_live, k, ctx.threads.async_comp, n_stripes=1
            )
            if faults is not None:
                stripe_comp *= skew
            comp_seconds += stripe_comp
            ctx.cluster.node(rank).memory.free("async_rows")
        node_breakdown = ctx.breakdown.node(rank)
        node_breakdown.async_comp += comp_seconds
        node_breakdown.async_comm += comm_seconds / ctx.threads.async_comm
        if faults is not None:
            RESILIENCE_STATS.merge_from(resil)
            node_breakdown.sync_comm += sync_comm_seconds
            for owner, cost in root_costs:
                ctx.breakdown.node(owner).sync_comm += cost


# ----------------------------------------------------------------------
# Phase 3: synchronous row panels (Algorithm 1 lines 15-19, Algorithm 2)
# ----------------------------------------------------------------------
def _sync_compute(
    plan: TwoFacePlan,
    ctx: RunContext,
    mask: Optional[SampleMask] = None,
) -> None:
    compute = ctx.machine.compute
    k = ctx.k
    faults = ctx.cluster.faults

    for rank in range(ctx.n_nodes):
        sync_local = plan.rank_plan(rank).sync_local
        nnz_live = sync_local.nnz
        if sync_local.nnz:
            csr = sync_local.scipy_handle()
            if mask is not None:
                keep = mask.sync_masks[rank]
                nnz_live = int(np.count_nonzero(keep))
                if nnz_live != sync_local.nnz:
                    # Rewrap instead of csr.copy(): shares the cached
                    # index arrays and allocates only the masked data.
                    csr = sync_local.masked_handle(keep)
            ctx.C.block(rank)[:] += csr @ ctx.B.data
        seconds = compute.sync_panel_time(
            nnz_live, k, sync_local.nonempty_rows(),
            ctx.threads.sync_comp,
        ) + sync_local.n_panels * compute.panel_overhead
        if faults is not None:
            seconds *= faults.compute_skew(rank)
        ctx.breakdown.node(rank).sync_comp += seconds
