"""The layer map: which program functions make up each layer.

Layers use the repository's module names:

* ``sparse`` - matrix build and kernels.  Matrices are built during
  set-up (``setup_s``); inside an op, ``repro.sparse`` runs only under
  another layer (row slabs under ``dist``, CSR construction under
  ``plan``, ``csr @ B`` under ``exec``) and is charged to that layer, so
  it has no self-time metric of its own;
* ``dist`` - distribution (``DistSparseMatrix``/``DistDenseMatrix``);
* ``grid`` - ``repro.algorithms.gridrun``;
* ``plan`` - ``repro.core.preprocess``, ``stripes``, ``classifier``,
  ``formats``;
* ``plancache`` - ``repro.core.plancache`` and ``serialize``;
* ``exec`` - ``repro.core.executor`` over ``repro.cluster.simmpi``;
* ``alg`` - ``DistSpMMAlgorithm.run`` itself, including the baselines'
  own kernels;
* ``gnn`` and ``serve``.

``repro.tune`` and ``repro.transport.shm`` are on no workload's default
path and are left unmeasured.

Every hook names the attribute its *caller* resolves at call time.
``repro.algorithms.twoface`` binds ``execute_plan`` and
``cached_preprocess`` by name, and ``repro.core.plancache`` binds
``preprocess`` and ``load_plan`` by name, so those are wrapped there and
not at their definitions.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple


class Hook(NamedTuple):
    """One wrapped function: its layer, target and whether it is hot."""

    layer: str
    target: str
    #: Runs once per stripe: folded into count + total, no event.
    hot: bool = False
    #: ``f(result) -> label`` counted per call (e.g. cache hit/miss).
    outcome: Optional[Callable] = None


def _hit_or_miss(plan) -> str:
    return "miss" if plan is None else "hit"


#: The op boundary (one SpMM call).  The benchmark's op recorder owns
#: this attribute; the traced run nests the span inside the recorder.
OP_TARGET = "repro.algorithms.base:DistSpMMAlgorithm.run"
OP_LAYER = "alg.run"

HOOKS: Tuple[Hook, ...] = (
    Hook("dist.distribute", "repro.dist.matrices:DistSparseMatrix.__init__"),
    Hook("dist.distribute", "repro.dist.matrices:DistDenseMatrix.__init__"),
    Hook("grid.column_subset", "repro.algorithms.gridrun:column_subset"),
    Hook("grid.layer", "repro.algorithms.gridrun:run_on_grid"),
    Hook("grid.layer", "repro.cluster.simmpi:SimMPI.group_allreduce"),
    Hook("plan.self", "repro.core.plancache:preprocess"),
    Hook("plan.stripe_stats",
         "repro.core.preprocess:compute_rank_stripe_stats"),
    Hook("plan.classify", "repro.core.preprocess:classify_rank_stripes"),
    Hook("plan.build_sync", "repro.core.preprocess:build_sync_local_matrix"),
    Hook("plan.build_async",
         "repro.core.preprocess:build_async_stripe_matrix"),
    Hook("plan.finalize",
         "repro.core.formats:AsyncStripeMatrix.finalize_schedules"),
    Hook("plancache.self", "repro.algorithms.twoface:cached_preprocess"),
    Hook("plancache.lookup", "repro.core.plancache:plan_cache_key"),
    Hook("plancache.lookup", "repro.core.plancache:PlanCache.get",
         outcome=_hit_or_miss),
    Hook("plancache.lookup", "repro.core.plancache:PlanCacheNamespace.get",
         outcome=_hit_or_miss),
    Hook("plancache.load", "repro.core.plancache:load_plan"),
    Hook("exec.self", "repro.algorithms.twoface:execute_plan"),
    Hook("exec.fetch", "repro.cluster.simmpi:SimMPI.rget_row_chunks", True),
    Hook("exec.scatter", "repro.core.executor:accumulate_async_stripe", True),
    Hook("exec.multicast", "repro.cluster.simmpi:SimMPI.multicast", True),
    Hook("gnn.engine", "repro.gnn.engine:DistSpMMEngine.multiply"),
    Hook("gnn.dense", "repro.gnn.train:train_gcn"),
    Hook("serve.scheduler", "repro.serve.scheduler:ServeScheduler.serve"),
)

#: Self-time metrics, in ms per op: metric -> layers summed.
SELF_MS: Dict[str, Tuple[str, ...]] = {
    "plan.stripe_stats_ms": ("plan.stripe_stats",),
    "plan.classify_ms": ("plan.classify",),
    "plan.build_sync_ms": ("plan.build_sync",),
    "plan.build_async_ms": ("plan.build_async",),
    "plan.finalize_ms": ("plan.finalize",),
    "plan.self_ms": ("plan.self",),
    "dist.distribute_ms": ("dist.distribute",),
    "grid.column_subset_ms": ("grid.column_subset",),
    "grid.layer_self_ms": ("grid.layer",),
    "plancache.lookup_ms": ("plancache.lookup",),
    "plancache.load_ms": ("plancache.load",),
    "plancache.self_ms": ("plancache.self",),
    "exec.self_ms": ("exec.self",),
    "exec.fetch_ms": ("exec.fetch",),
    "exec.scatter_ms": ("exec.scatter",),
    "exec.multicast_ms": ("exec.multicast",),
    "alg.run_self_ms": (OP_LAYER,),
    "gnn.dense_ms": ("gnn.dense",),
    "gnn.engine_ms": ("gnn.engine",),
}

#: Call counts per op: metric -> layer.
CALLS: Dict[str, str] = {
    "exec.calls": "exec.self",
    "exec.fetch_calls": "exec.fetch",
    "exec.scatter_calls": "exec.scatter",
    "exec.multicast_calls": "exec.multicast",
}

#: Which end-to-end metric each layer metric should move, and where.
MOVES: Dict[str, str] = {
    "plan.*": "ops_per_s and op_p90_ms on spmm_cold; ops_per_s on "
              "gnn_train (the first multiply per width, 2 of 22, plans; "
              "op_p90_ms sits just below those two); nothing on "
              "serve_replay (plans come from the cache)",
    "dist.distribute_ms": "op_p50_ms on gnn_train and serve_replay (A is "
                          "redistributed on every multiply)",
    "grid.column_subset_ms, grid.layer_self_ms": "spmm_cold only (the "
                                                 "only workload on 2D grids)",
    "plancache.*": "serve_replay only (disk plan loads per fresh "
                   "scheduler)",
    "exec.*": "op_p50_ms everywhere; most weight on gnn_train and "
              "serve_replay",
    "alg.run_self_ms": "ops_per_s on spmm_cold (Allgather cells are "
                       "nearly all alg.run self time)",
    "gnn.dense_ms, gnn.engine_ms": "ops_per_s on gnn_train",
    "serve.scheduler_ms": "ops_per_s on serve_replay",
    "comm.*": "nothing: exact work counts per iteration, which show a "
              "change kept the same work",
}


def per_layer_metrics(
    tracer,
    ops: int,
    iterations: int,
    comm: Tuple[int, int, int],
    overhead_pct: float,
    coverage_pct: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Self times and call counts are per op (one SpMM call);
    ``serve.scheduler_ms``, the plan-cache counts and the ``comm.*``
    counts are per unit (sweep pass, ``train_gcn`` call, replay).
    """
    ops = max(1, ops)
    units = max(1, iterations)
    out: Dict[str, Tuple[float, str]] = {}
    for name, layers in SELF_MS.items():
        total = sum(tracer.self_seconds(layer) for layer in layers)
        out[name] = (total * 1e3 / ops, "ms")
    for name, layer in CALLS.items():
        out[name] = (tracer.calls(layer) / ops, "count")
    out["serve.scheduler_ms"] = (
        tracer.self_seconds("serve.scheduler") * 1e3 / units, "ms",
    )
    outcomes = tracer.outcomes("plancache.lookup")
    hits, misses = outcomes.get("hit", 0), outcomes.get("miss", 0)
    lookups = hits + misses
    out["plancache.hits"] = (hits / units, "count")
    out["plancache.misses"] = (misses / units, "count")
    out["plancache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    collective, onesided, requests = comm
    out["comm.collective_bytes"] = (collective / units, "B")
    out["comm.onesided_bytes"] = (onesided / units, "B")
    out["comm.onesided_requests"] = (requests / units, "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.coverage_pct"] = (coverage_pct, "%")
    out["trace.ops"] = (float(ops), "count")
    return out


def layer_self_total(tracer) -> float:
    """Self seconds summed over every traced layer."""
    return sum(stats.self_s for stats in tracer.stats.values())
