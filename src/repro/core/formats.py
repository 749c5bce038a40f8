"""Two-Face sparse matrix representation (paper §5.1, Fig. 6).

After classification, each rank's slab of ``A`` is split into two
structures:

* :class:`SyncLocalMatrix` — the synchronous + local-input nonzeros in
  row-major order, divided into *row panels* (the unit of work of the
  synchronous compute threads).  Backed by CSR, whose ``indptr`` provides
  the panel pointers.
* :class:`AsyncStripeMatrix` — the asynchronous nonzeros grouped by
  stripe, column-major within each stripe so the unique ``c_id``s (the
  dense rows to fetch) fall out of a linear scan.  An array of stripe
  pointers delimits the stripes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dist.oned import RowPartition
from ..errors import FormatError
from ..sparse.coo import COOMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.ops import (
    SCATTER_STATS,
    ScatterStats,
    build_reduce_order,
    coalesce_row_id_arrays,
    coalesce_row_ids,
    expand_chunks,
)


@dataclass
class TransferCacheStats:
    """Counters for cached-transfer-schedule usage in the async lane.

    Attributes:
        hits: stripe executions that reused a precomputed schedule.
        recomputes: stripe executions that had to rebuild the schedule
            (a plan that was never finalised, e.g. hand-assembled in a
            test).
    """

    hits: int = 0
    recomputes: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.recomputes = 0

    def snapshot(self) -> Tuple[int, int]:
        return self.hits, self.recomputes


#: Process-global cache counters; executors increment, benchmarks and
#: tests read/reset.  See :func:`transfer_cache_stats`.
TRANSFER_CACHE = TransferCacheStats()


def transfer_cache_stats() -> TransferCacheStats:
    """The process-global transfer-schedule cache counters."""
    return TRANSFER_CACHE


def reset_transfer_cache_stats() -> None:
    """Zero the process-global cache counters (test/bench hygiene)."""
    TRANSFER_CACHE.reset()


@dataclass
class TransferSchedule:
    """Precomputed one-sided transfer metadata of one async stripe.

    Everything the async lane previously rebuilt per execution is
    geometry-only — it depends on the stripe's ``row_ids``, the owner's
    block offset, and the K-derived coalescing gap, all fixed at plan
    time — so preprocessing computes it once and executions reuse it
    (paper §5.4/§7.3: the plan is amortised over many SpMMs).

    Attributes:
        chunk_offsets: first row of each rget chunk, owner-block-local.
        chunk_sizes: row count of each chunk (aligned with offsets).
        fetched_ids: global ``B`` row ids the chunks deliver, in fetch
            order (sorted ascending, may include coalescing filler).
        packed: per-nonzero index into ``fetched_ids`` mapping each
            nonzero's global ``c_id`` to its packed fetched row.
    """

    chunk_offsets: np.ndarray
    chunk_sizes: np.ndarray
    fetched_ids: np.ndarray
    packed: np.ndarray
    #: Lazily cached expansion of the chunks into block-local row
    #: indices (what the owner-side gather uses); derived, not
    #: serialised.
    _local_rows: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_chunks(self) -> int:
        return int(len(self.chunk_offsets))

    def local_rows(self) -> np.ndarray:
        """Block-local row indices the chunks fetch, in fetch order."""
        if self._local_rows is None:
            self._local_rows = expand_chunks(
                self.chunk_offsets, self.chunk_sizes
            )
        return self._local_rows

    def chunks(self) -> List[Tuple[int, int]]:
        """The ``(offset, size)`` pair list :meth:`SimMPI.rget_rows` takes."""
        return list(
            zip(self.chunk_offsets.tolist(), self.chunk_sizes.tolist())
        )

    def nbytes(self) -> int:
        return int(
            self.chunk_offsets.nbytes
            + self.chunk_sizes.nbytes
            + self.fetched_ids.nbytes
            + self.packed.nbytes
        )


@dataclass
class ReduceSchedule:
    """Precomputed segmented-reduction geometry of one async stripe.

    The accumulation order of a stripe's scatter is pure plan-time
    geometry — it depends only on ``nonzeros.rows`` — so preprocessing
    computes the stable sort permutation and segment boundaries once
    and every execution reuses them (the same amortisation argument as
    :class:`TransferSchedule`; see DESIGN.md §6).

    Attributes:
        order: stable sort permutation of the stripe's nonzero rows
            (groups equal output rows, preserves column order within).
        seg_starts: offsets into the permuted arrays where each output
            row's segment begins.
        out_rows: slab-local output-row id of each segment (unique,
            ascending) — the fancy-index target of the single ``+=``.
    """

    order: np.ndarray
    seg_starts: np.ndarray
    out_rows: np.ndarray
    #: Lazily cached ``(packed, packed[order])`` — the fetched-row
    #: gather index in reduction order; derived, not serialised.
    _gather: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Lazily cached ``(vals, vals[order])`` of the owning stripe;
    #: derived, not serialised (values travel in the stripe's COO
    #: arrays).
    _vals_perm: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily cached CSR-style segment boundaries
    #: (``seg_starts`` + ``[nnz]``); pure geometry, so no identity key.
    _seg_ptrs: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_segments(self) -> int:
        return int(len(self.out_rows))

    def seg_ptrs(self) -> np.ndarray:
        """Segment boundaries as a CSR ``indptr``-style array.

        ``seg_starts`` extended with the nonzero count — the ``indptr``
        of the segment-sum matrix ``csr_matvecs`` reduces with.
        Derived from immutable geometry, so cached unconditionally.
        """
        if self._seg_ptrs is None:
            self._seg_ptrs = np.concatenate(
                [self.seg_starts, [len(self.order)]]
            ).astype(np.int64, copy=False)
        return self._seg_ptrs

    def gather_indices(self, packed: np.ndarray) -> np.ndarray:
        """``packed[order]``, computed once per source array.

        The cache is keyed on the *identity* of ``packed``: schedule
        objects are shared by shallow plan clones (e.g. the attention
        layer's value-remapped plans), so a fresh argument array must
        recompute rather than serve the previous plan's composition.
        The result is coerced to int64 so it can feed ``csr_matvecs``
        directly alongside :meth:`seg_ptrs`.
        """
        cached = self._gather
        if cached is None or cached[0] is not packed:
            composed = packed[self.order].astype(np.int64, copy=False)
            cached = (packed, composed)
            self._gather = cached
        return cached[1]

    def permuted_vals(self, vals: np.ndarray) -> np.ndarray:
        """``vals[order]``, computed once per source array.

        Identity-keyed like :meth:`gather_indices` — value-remapped
        plan clones (attention) share this schedule object but pass
        fresh value arrays, which must not hit the stale cache.
        Callers with masked (per-iteration) values should permute fresh
        instead of going through this cache.
        """
        cached = self._vals_perm
        if cached is None or cached[0] is not vals:
            cached = (vals, vals[self.order])
            self._vals_perm = cached
        return cached[1]

    def nbytes(self) -> int:
        return int(
            self.order.nbytes + self.seg_starts.nbytes + self.out_rows.nbytes
        )


@dataclass
class SyncLocalMatrix:
    """Row-major sync/local-input nonzeros of one rank (Fig. 6b).

    The matrix is immutable after plan build, so the derived scipy CSR
    handle and the nonempty-row count are memoised on first use and
    never invalidated — the sync lane stops rebuilding both per
    execution.

    Attributes:
        rank: owning node.
        csr: the nonzeros in CSR over the rank's local row slab; column
            indices are *global* (they index the full ``B``).
        panel_height: rows per panel.
        panel_bounds: row offsets of the panels (the panel pointers).
    """

    rank: int
    csr: CSRMatrix
    panel_height: int

    def __post_init__(self) -> None:
        if self.panel_height <= 0:
            raise FormatError(
                f"panel height must be positive: {self.panel_height}"
            )
        self.panel_bounds = self.csr.panel_bounds(self.panel_height)
        # Identity-keyed memos: plan clones with remapped values
        # (attention) shallow-copy this object and swap ``csr``, so the
        # cached handle must be checked against the current source.
        self._scipy: Optional[tuple] = None
        self._nonempty: Optional[tuple] = None

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def n_panels(self) -> int:
        return len(self.panel_bounds) - 1

    def nonempty_rows(self) -> int:
        """Rows with at least one nonzero (modelled flush count).

        Memoised per ``indptr`` identity — the count depends only on
        the row pointers, which value-remapped clones share.
        """
        cached = self._nonempty
        indptr = self.csr.indptr
        if cached is None or cached[0] is not indptr:
            cached = (indptr, int(np.count_nonzero(np.diff(indptr))))
            self._nonempty = cached
        return cached[1]

    def scipy_handle(self, stats: Optional[ScatterStats] = None):
        """The memoised ``scipy.sparse.csr_matrix`` over the nonzeros.

        Memoised per ``csr`` identity: a clone whose ``csr`` was
        swapped for a value-remapped copy rebuilds (counted as a
        ``sync_csr_build``) instead of serving the stale handle.

        Args:
            stats: counter sink for ``sync_csr_hits``/``sync_csr_builds``;
                defaults to the process-global
                :data:`~repro.sparse.ops.SCATTER_STATS`.
        """
        sink = SCATTER_STATS if stats is None else stats
        cached = self._scipy
        csr = self.csr
        if cached is None or cached[0] is not csr:
            cached = (csr, csr.to_scipy())
            self._scipy = cached
            sink.sync_csr_builds += 1
        else:
            sink.sync_csr_hits += 1
        return cached[1]

    def masked_handle(self, keep: np.ndarray,
                      stats: Optional[ScatterStats] = None):
        """CSR over ``data * keep`` sharing the cached index arrays.

        Allocates only the masked value array — ``indices``/``indptr``
        come from the memoised handle.
        """
        import scipy.sparse as sp

        base = self.scipy_handle(stats=stats)
        return sp.csr_matrix(
            (base.data * keep, base.indices, base.indptr), shape=base.shape
        )

    def nbytes(self) -> int:
        return self.csr.nbytes() + int(self.panel_bounds.nbytes)


@dataclass
class AsyncStripe:
    """One asynchronous sparse stripe (a row of Fig. 6c).

    Attributes:
        gid: global stripe id.
        owner: rank owning the dense stripe (rget target).
        nonzeros: column-major COO; rows are slab-local, cols global.
        row_ids: sorted unique global ``B`` rows the stripe needs.
    """

    gid: int
    owner: int
    nonzeros: COOMatrix
    row_ids: np.ndarray
    #: Cached transfer schedule; filled at preprocessing time (or on the
    #: first execution of a never-finalised plan) and reused thereafter.
    schedule: Optional[TransferSchedule] = field(default=None, repr=False)
    #: Cached segmented-reduction schedule; same lifecycle as
    #: ``schedule`` (plan-time by ``finalize_schedules``, lazily for
    #: hand-assembled plans).
    reduce_schedule: Optional[ReduceSchedule] = field(
        default=None, repr=False
    )
    #: Identity-keyed memo of the coverage check: ``(schedule, ok)``.
    #: Plan geometry is immutable, so each schedule is validated once
    #: per plan lifetime instead of per execution per stripe.
    _coverage: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    @property
    def nnz(self) -> int:
        return self.nonzeros.nnz

    def covers_columns(self, schedule: TransferSchedule) -> bool:
        """Whether ``schedule`` lands every nonzero on a fetched row.

        The packed map is clipped (:func:`packed_row_indices`), so a
        non-covering plan shows up as a value mismatch here rather
        than an ``IndexError`` in the gather.  Both operands are
        immutable plan data; the verdict is memoised keyed on the
        schedule's identity (value-remapped plan clones share the
        schedule object and therefore the memo).
        """
        cached = self._coverage
        if cached is None or cached[0] is not schedule:
            if len(schedule.fetched_ids) == 0:
                ok = self.nnz == 0
            else:
                ok = bool(
                    np.array_equal(
                        schedule.fetched_ids[schedule.packed],
                        self.nonzeros.cols,
                    )
                )
            cached = (schedule, ok)
            self._coverage = cached
        return cached[1]

    @property
    def rows_needed(self) -> int:
        return int(len(self.row_ids))

    def transfer_chunks(
        self, block_start: int, max_gap: int
    ) -> List[Tuple[int, int]]:
        """Coalesced ``(offset, size)`` chunks relative to the owner block.

        Args:
            block_start: first global ``B`` row of the owner's block.
            max_gap: coalescing distance (the paper uses ``127/K + 1``).
        """
        local_ids = self._local_ids(block_start)
        return coalesce_row_ids(local_ids, max_gap=max_gap)

    def _local_ids(self, block_start: int) -> np.ndarray:
        local_ids = self.row_ids - block_start
        if len(local_ids) and local_ids.min() < 0:
            raise FormatError(
                f"stripe {self.gid} requests rows below the owner block"
            )
        return local_ids

    def build_schedule(
        self, block_start: int, max_gap: int
    ) -> TransferSchedule:
        """Compute the transfer schedule (no caching side effects)."""
        offsets, sizes = coalesce_row_id_arrays(
            self._local_ids(block_start), max_gap=max_gap
        )
        fetched_ids = expand_chunks(offsets, sizes) + block_start
        return TransferSchedule(
            chunk_offsets=offsets,
            chunk_sizes=sizes,
            fetched_ids=fetched_ids,
            packed=packed_row_indices(fetched_ids, self.nonzeros.cols),
        )

    def ensure_schedule(
        self,
        block_start: int,
        max_gap: int,
        stats: Optional[TransferCacheStats] = None,
    ) -> TransferSchedule:
        """The cached schedule, computing and storing it when absent.

        Args:
            stats: counter sink; defaults to the process-global
                :data:`TRANSFER_CACHE`.
        """
        sink = TRANSFER_CACHE if stats is None else stats
        if self.schedule is None:
            sink.recomputes += 1
            self.schedule = self.build_schedule(block_start, max_gap)
        else:
            sink.hits += 1
        return self.schedule

    def build_reduce_schedule(self) -> ReduceSchedule:
        """Compute the reduction schedule (no caching side effects)."""
        order, seg_starts, out_rows = build_reduce_order(self.nonzeros.rows)
        return ReduceSchedule(
            order=order, seg_starts=seg_starts, out_rows=out_rows
        )

    def ensure_reduce_schedule(self) -> ReduceSchedule:
        """The cached reduction schedule, built and stored when absent.

        Unlike :meth:`ensure_schedule` there is no counter: the
        transfer-cache hit/recompute counters already pin the
        plan-resident-cache contract (both schedules share a lifecycle),
        and the scatter counters record which kernel consumed it.
        """
        if self.reduce_schedule is None:
            self.reduce_schedule = self.build_reduce_schedule()
        return self.reduce_schedule


def packed_row_indices(
    fetched_ids: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Map global ``c_id``s onto positions in the fetched row set.

    The raw ``np.searchsorted`` result can be ``len(fetched_ids)`` when
    a column exceeds every fetched id; that index is clipped so callers
    can gather and *compare* (``fetched_ids[packed] != cols``) to detect
    non-coverage as a :class:`~repro.errors.PartitionError` instead of
    tripping an ``IndexError`` on the gather itself.
    """
    packed = np.searchsorted(fetched_ids, cols).astype(np.int64)
    if len(fetched_ids):
        np.minimum(packed, len(fetched_ids) - 1, out=packed)
    return packed


@dataclass
class AsyncStripeMatrix:
    """All asynchronous stripes of one rank (Fig. 6c).

    Stripes are kept in ascending gid (row-major stripe order, matching
    the paper's layout choice for easy runtime distribution).
    """

    rank: int
    stripes: List[AsyncStripe]

    def __post_init__(self) -> None:
        gids = [s.gid for s in self.stripes]
        if gids != sorted(gids):
            raise FormatError("async stripes must be in ascending gid order")
        if len(set(gids)) != len(gids):
            raise FormatError("duplicate async stripe gid")

    @property
    def n_stripes(self) -> int:
        return len(self.stripes)

    @property
    def nnz(self) -> int:
        return sum(s.nnz for s in self.stripes)

    @property
    def total_rows_needed(self) -> int:
        """The model's ``L_A`` for this rank."""
        return sum(s.rows_needed for s in self.stripes)

    def stripe_pointers(self) -> np.ndarray:
        """Offsets of each stripe in the concatenated nonzero arrays.

        This is the *Asynchronous Stripe Pointers* array of Fig. 6c.
        """
        ptrs = np.zeros(self.n_stripes + 1, dtype=np.int64)
        for i, stripe in enumerate(self.stripes):
            ptrs[i + 1] = ptrs[i] + stripe.nnz
        return ptrs

    def nbytes(self) -> int:
        return sum(s.nonzeros.nbytes() + s.row_ids.nbytes for s in self.stripes)

    @property
    def finalized(self) -> bool:
        """True when every stripe carries both cached schedules."""
        return all(
            s.schedule is not None and s.reduce_schedule is not None
            for s in self.stripes
        )

    def finalize_schedules(
        self, col_partition: RowPartition, max_gap: int
    ) -> None:
        """Precompute every stripe's transfer + reduce schedule
        (idempotent).

        Stripes are grouped by owner so the fetched-row id construction
        runs as one fused gather per (rank, owner) group rather than one
        ``np.concatenate([np.arange(...)])`` per stripe.

        Args:
            col_partition: partition of ``B``'s rows over the owners.
            max_gap: K-derived coalescing distance (``127 // K + 1``).
        """
        pending: Dict[int, List[AsyncStripe]] = {}
        for stripe in self.stripes:
            if stripe.schedule is None:
                pending.setdefault(stripe.owner, []).append(stripe)
        for owner, group in pending.items():
            block_start, _ = col_partition.bounds(owner)
            offsets_parts, sizes_parts = [], []
            for stripe in group:
                offsets, sizes = coalesce_row_id_arrays(
                    stripe._local_ids(block_start), max_gap=max_gap
                )
                offsets_parts.append(offsets)
                sizes_parts.append(sizes)
            all_sizes = np.concatenate(sizes_parts)
            fetched_all = (
                expand_chunks(np.concatenate(offsets_parts), all_sizes)
                + block_start
            )
            bounds = np.concatenate(
                [[0], np.cumsum([p.sum() for p in sizes_parts])]
            ).astype(np.int64)
            for i, stripe in enumerate(group):
                fetched_ids = fetched_all[bounds[i] : bounds[i + 1]]
                stripe.schedule = TransferSchedule(
                    chunk_offsets=offsets_parts[i],
                    chunk_sizes=sizes_parts[i],
                    fetched_ids=fetched_ids,
                    packed=packed_row_indices(
                        fetched_ids, stripe.nonzeros.cols
                    ),
                )
        for stripe in self.stripes:
            if stripe.reduce_schedule is None:
                stripe.reduce_schedule = stripe.build_reduce_schedule()


def build_sync_local_matrix(
    rank: int,
    slab: COOMatrix,
    selection: np.ndarray,
    panel_height: int,
) -> SyncLocalMatrix:
    """Assemble the sync/local-input matrix from selected nonzeros.

    Args:
        rank: owning node.
        slab: the rank's full slab (local rows, global cols).
        selection: indices into the slab's nonzero arrays.
        panel_height: row-panel height.
    """
    picked = COOMatrix(
        slab.rows[selection],
        slab.cols[selection],
        slab.vals[selection],
        slab.shape,
        _validated=True,
    )
    return SyncLocalMatrix(
        rank=rank, csr=CSRMatrix.from_coo(picked), panel_height=panel_height
    )


def build_async_stripe_matrix(
    rank: int,
    slab: COOMatrix,
    stripe_selections: Dict[int, Tuple[int, np.ndarray]],
) -> AsyncStripeMatrix:
    """Assemble the async matrix from per-stripe nonzero selections.

    Args:
        rank: owning node.
        slab: the rank's full slab.
        stripe_selections: gid -> (owner, indices into the slab arrays).
    """
    stripes: List[AsyncStripe] = []
    for gid in sorted(stripe_selections):
        owner, sel = stripe_selections[gid]
        coo = COOMatrix(
            slab.rows[sel], slab.cols[sel], slab.vals[sel], slab.shape,
            _validated=True,
        ).sorted_col_major()
        stripes.append(
            AsyncStripe(
                gid=int(gid),
                owner=int(owner),
                nonzeros=coo,
                row_ids=np.unique(coo.cols),
            )
        )
    return AsyncStripeMatrix(rank=rank, stripes=stripes)
