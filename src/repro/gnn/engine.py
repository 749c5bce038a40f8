"""Reusable distributed SpMM engine for GNN training.

Full-graph GNN training performs hundreds of SpMM operations with the
same sparse matrix (paper §5.4).  :class:`DistSpMMEngine` preprocesses
once per dense width K, caches the Two-Face plan, and accumulates both
the simulated SpMM time and the (modelled) preprocessing time — the
quantities behind the paper's amortisation argument (§7.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms.base import DistSpMMAlgorithm
from ..algorithms.twoface import TwoFace
from ..cluster.buffers import arena_stats
from ..cluster.machine import MachineConfig
from ..core.formats import transfer_cache_stats
from ..core.model import CostCoefficients
from ..core.plancache import AUTO, PlanCacheLike, plan_cache_stats
from ..errors import ReproError, ShapeError
from ..sparse.coo import COOMatrix
from ..sparse.ops import scatter_stats
from ..sparse.suite import stripe_width_for

#: Sentinel distinguishing "use the engine's cache" from an explicit
#: None (= disable persistent caching for this multiply).
_ENGINE_DEFAULT = object()


class DistSpMMEngine:
    """Runs repeated distributed SpMMs against one sparse matrix.

    Args:
        A: the sparse matrix (e.g. a normalised adjacency).
        machine: simulated machine configuration.
        stripe_width: Two-Face stripe width; dimension-scaled default.
        coeffs: preprocessing-model coefficients.
        algorithm_factory: optional ``f(plan_or_none) -> algorithm`` for
            running a baseline instead of Two-Face (plans are ignored by
            baselines); by default Two-Face with plan reuse.
        plan_cache: plan cache handed to Two-Face preprocessing; the
            default AUTO resolves the ``REPRO_PLAN_CACHE``-configured
            process-global cache, None disables persistent caching (the
            engine's own per-K plan reuse is unaffected).
        classify_k: pin stripe classification at this dense width for
            every multiply regardless of its actual K.  The serving
            layer uses this so a fused K-panel and each request's
            unbatched run accumulate ``C`` in the same order — the
            byte-identity guarantee of DESIGN.md §8.
        grid: optional process-grid layout every multiply runs under
            (``None``/``Grid1D`` keep the byte-identical 1D path).
            Layered grids re-plan per layer inside the run, so the
            engine's per-K plan reuse is bypassed — hand a persistent
            ``plan_cache`` to amortise layer planning instead (the
            serving scheduler's tuned groups do exactly that).
    """

    def __init__(
        self,
        A: COOMatrix,
        machine: MachineConfig,
        stripe_width: Optional[int] = None,
        coeffs: Optional[CostCoefficients] = None,
        algorithm_factory=None,
        plan_cache: PlanCacheLike = AUTO,
        classify_k: Optional[int] = None,
        grid=None,
    ):
        if grid is not None:
            grid.validate_nodes(machine.n_nodes)
        self.A = A
        self.machine = machine
        self.stripe_width = stripe_width or stripe_width_for(A.shape[0])
        self.coeffs = coeffs
        self._factory = algorithm_factory
        self.plan_cache = plan_cache
        self.classify_k = classify_k
        self.grid = grid
        self._plans: Dict[int, object] = {}
        self.spmm_seconds = 0.0
        self.preprocess_seconds = 0.0
        self.n_spmm = 0
        self.n_preprocess = 0
        self._cache_baseline = transfer_cache_stats().snapshot()
        self._arena_baseline = arena_stats().snapshot()
        self._plan_cache_baseline = plan_cache_stats().snapshot()
        self._scatter_baseline = scatter_stats().snapshot()

    # ------------------------------------------------------------------
    def multiply(
        self,
        B: np.ndarray,
        plan_cache: PlanCacheLike = _ENGINE_DEFAULT,
        machine: Optional[MachineConfig] = None,
    ) -> Tuple[np.ndarray, float]:
        """Compute ``A @ B`` on the simulated cluster.

        Args:
            B: dense input block, shape ``(A.shape[1], K)``.
            plan_cache: per-call plan-cache override — the serving
                layer passes the requesting tenant's
                :class:`~repro.core.plancache.PlanCacheNamespace` here
                so a cold plan build is attributed to that tenant.
                Defaults to the engine's own cache.  Only consulted
                when this K has no engine-cached plan yet.
            machine: per-call machine override.  The resilience tier
                threads a fresh fault ``crash_epoch`` per dispatch
                attempt this way; the override must keep the node
                count/shape of the engine's machine (plans are shaped
                by it).  None uses the engine's machine.

        Returns:
            ``(C, simulated_seconds)``; running totals are accumulated
            on the engine.

        Raises:
            ReproError: if the underlying run fails (e.g. OOM).
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.A.shape[1]:
            raise ShapeError(
                f"B shape {B.shape} incompatible with A {self.A.shape}"
            )
        k = B.shape[1]
        algorithm = self._algorithm_for(k, plan_cache)
        run_machine = machine if machine is not None else self.machine
        result = algorithm.run(self.A, B, run_machine, grid=self.grid)
        if result.failed:
            raise ReproError(f"distributed SpMM failed: {result.failure}")
        self._after_run(k, algorithm)
        self.spmm_seconds += result.seconds
        self.n_spmm += 1
        return result.C, result.seconds

    # ------------------------------------------------------------------
    def _algorithm_for(
        self, k: int, plan_cache: PlanCacheLike = _ENGINE_DEFAULT
    ) -> DistSpMMAlgorithm:
        if plan_cache is _ENGINE_DEFAULT:
            plan_cache = self.plan_cache
        if self._factory is not None:
            return self._factory(self._plans.get(k))
        # A precomputed 1D plan cannot be re-partitioned onto a layered
        # grid (the runner's layer clone would refuse it), so layered
        # engines plan through the plan cache on every multiply.
        layered = self.grid is not None and self.grid.depth > 1
        return TwoFace(
            stripe_width=self.stripe_width,
            coeffs=self.coeffs,
            plan=None if layered else self._plans.get(k),
            plan_cache=plan_cache,
            classify_k=self.classify_k,
        )

    def _after_run(self, k: int, algorithm: DistSpMMAlgorithm) -> None:
        """Cache the plan and record the one-time preprocessing cost."""
        if not isinstance(algorithm, TwoFace):
            return
        if self.grid is not None and self.grid.depth > 1:
            # last_plan is the final layer's sub-plan, not a 1D plan
            # for this K; reusing it would corrupt later multiplies.
            return
        if k not in self._plans and algorithm.last_plan is not None:
            self._plans[k] = algorithm.last_plan
            if algorithm.last_report is not None:
                self.preprocess_seconds += (
                    algorithm.last_report.modeled_seconds
                )
                self.n_preprocess += 1

    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Simulated SpMM time plus one-time preprocessing."""
        return self.spmm_seconds + self.preprocess_seconds

    def cache_stats(self) -> Dict[str, int]:
        """Transfer-schedule cache activity since engine construction.

        ``recomputes`` should stay 0 across a whole training run: the
        plan is finalised during preprocessing, so every epoch's SpMMs
        reuse the cached chunks / fetched-row ids / packing maps —
        the amortisation behaviour of paper §5.4/§7.3.
        """
        hits, recomputes = transfer_cache_stats().snapshot()
        plan_now = plan_cache_stats().snapshot()
        plan_base = self._plan_cache_baseline
        return {
            "hits": hits - self._cache_baseline[0],
            "recomputes": recomputes - self._cache_baseline[1],
            "plan_hits": plan_now[0] - plan_base[0],
            "plan_misses": plan_now[1] - plan_base[1],
            "plan_evictions": plan_now[2] - plan_base[2],
            "plan_invalidations": plan_now[3] - plan_base[3],
            "plan_stores": plan_now[4] - plan_base[4],
        }

    def exec_stats(self) -> Dict[str, int]:
        """Fetch-arena and scatter activity since construction.

        The fetch arena is process-global, so it persists across
        epochs: after the first epoch sizes it, ``arena_grows`` stops
        increasing — every later SpMM reuses the same scratch buffers
        (zero per-stripe allocations).

        Scatter counters say which kernel served the async stripes
        (``scatter_segmented`` under the default ``REPRO_SCATTER``,
        ``scatter_atomic`` under the pinned reference path) and how the
        sync lane's memoised scipy handles behaved —
        ``sync_csr_builds`` should equal the number of distinct
        rank-local matrices, with every later epoch a ``sync_csr_hit``.
        """
        hits, grows = arena_stats().snapshot()
        scatter = scatter_stats().snapshot()
        base = self._scatter_baseline
        return {
            "arena_hits": hits - self._arena_baseline[0],
            "arena_grows": grows - self._arena_baseline[1],
            "scatter_segmented": scatter[0] - base[0],
            "scatter_atomic": scatter[1] - base[1],
            "sync_csr_hits": scatter[2] - base[2],
            "sync_csr_builds": scatter[3] - base[3],
        }
