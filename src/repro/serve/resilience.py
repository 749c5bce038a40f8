"""Fault-tolerant replicated serving on the virtual clock.

The single-executor :class:`~repro.serve.scheduler.ServeScheduler` has
no failure semantics: one crashed batch or one degraded link takes the
whole tenant down.  This module layers a resilience tier on top of it
(DESIGN.md §12):

* A :class:`ReplicaSet` runs N independent simulated executors.  Each
  replica gets its own seeded :class:`~repro.cluster.faults.FaultPlan`
  (``seed + rid``), its own plan-cache namespace
  (``replica<rid>/<tenant>``), its own engines, and an optional
  per-replica process grid — so replicas fail *independently*.
* A :class:`LoadBalancer` orders replicas per dispatch by a
  health-weighted score: earliest availability (the replica's virtual
  ``free_at``) plus its expected service time — the replica's own
  latency EWMA scaled by a health factor fed by periodic synthetic
  probes (cadence ``probe_interval``) that measure the replica's
  static fault profile (compute skew × worst incoming link).
* Request execution gains per-attempt *timeouts* (a dispatch whose
  simulated service time exceeds ``timeout`` charges exactly
  ``timeout`` seconds and its result is discarded), bounded
  *retry-with-exponential-backoff* across replicas, and optional
  *hedged dispatch*: when the primary has not completed by
  ``hedge_delay``, a backup runs on the next-best replica, the first
  success wins, and every non-winning hedge participant's charged
  seconds land in the ``hedge_wasted_seconds`` counter.
* A per-replica :class:`CircuitBreaker` (closed → open → half-open,
  virtual-clock cooldowns) quarantines replicas whose recent failure
  rate or service-latency drift (EWMA vs the fleet's) exceeds
  thresholds.
* Admission is SLO-aware: requests carry ``priority``/``deadline``;
  under queue pressure the scheduler *degrades* (prefers fused widths
  whose plans are already cached — ``"stale_plan"`` — or halves the
  fused K-panel cap — ``"k_panel"``) and, past the shed threshold,
  drops the lowest-priority queued work
  (:class:`~repro.serve.request.RejectReason.SHED`) instead of
  rejecting new arrivals outright.

Determinism contract: every decision — routing order, retry schedule,
breaker transitions, shed victims — is a pure function of the virtual
clock, the request trace, and the fault seeds.  The underlying
executor is deterministic, so a fixed trace replays with identical
routing traces and counters everywhere; and because injected faults
never corrupt results (the fault layer's exactness contract), every
*completed* request's ``C`` slice is byte-identical to its fault-free
run.

Executor crashes are injected per dispatch *attempt*: each attempt
threads a fresh ``crash_epoch`` into the replica's
:class:`~repro.cluster.faults.FaultConfig` (via ``dataclasses.replace``,
which perturbs no other fault stream), so whether attempt ``n`` on
replica ``r`` crashes is a fixed function of ``(seed + r, n)``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.faults import FaultConfig, compile_faults, resilience_stats
from ..cluster.machine import MachineConfig
from ..core.model import CostCoefficients
from ..core.plancache import AUTO, PlanCacheLike
from ..errors import ConfigurationError, ExecutorCrashError, ReproError
from ..gnn.engine import DistSpMMEngine
from ..sparse.coo import COOMatrix
from .request import (
    DONE,
    FAILED,
    REJECTED,
    RejectReason,
    ServeOutcome,
    ServeRequest,
)
from .scheduler import BatchRecord, ServePolicy, ServeReport, ServeScheduler

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Attempt outcome kinds (routing-trace vocabulary).
OK = "ok"
CRASH = "crash"
TIMEOUT = "timeout"
ERROR = "error"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the resilience tier (all times are simulated seconds).

    Attributes:
        n_replicas: independent simulated executors behind the balancer.
        timeout: per-attempt service-time cap; an attempt whose
            simulated seconds exceed it charges exactly ``timeout``
            and counts as a failure.  None disables timeouts.
        max_retries: re-dispatches after the first attempt (hedge
            included) before a group is marked FAILED.
        retry_backoff_base: backoff before the first retry; doubles
            per subsequent retry.
        hedge_delay: issue a backup dispatch on the next-best replica
            when the primary has not completed this long after the
            dispatch instant.  None disables hedging.
        crash_detect_seconds: virtual seconds to detect an injected
            executor crash (the failed attempt's only charge).
        probe_interval: cadence of synthetic health probes.
        probe_cost: nominal probe service time; a probe observes
            ``probe_cost × static slowness`` of the replica.
        ewma_alpha: smoothing of latency/health EWMAs.
        breaker_window: recent attempts per replica the failure-rate
            trigger looks at.
        breaker_failure_threshold: open the breaker when the windowed
            failure rate reaches this (window must be full).
        breaker_cooldown: open → half-open after this long.
        breaker_drift_factor: open when a replica's service-latency
            EWMA exceeds this multiple of the fleet EWMA (the p99-drift
            analogue on smoothed service time).
        degrade_queue_fraction: queue pressure (fraction of
            ``max_queue_depth``) above which dispatches degrade
            (stale-plan width preference, then K-panel halving).
        shed_queue_fraction: pressure above which the lowest-priority
            queued requests are shed.
        protect_priority: requests with ``priority >= protect_priority``
            are never shed.
    """

    n_replicas: int = 2
    timeout: Optional[float] = None
    max_retries: int = 4
    retry_backoff_base: float = 2e-3
    hedge_delay: Optional[float] = None
    crash_detect_seconds: float = 1e-3
    probe_interval: float = 0.25
    probe_cost: float = 1e-4
    ewma_alpha: float = 0.3
    breaker_window: int = 8
    breaker_failure_threshold: float = 0.5
    breaker_cooldown: float = 0.5
    breaker_drift_factor: float = 4.0
    degrade_queue_fraction: float = 0.75
    shed_queue_fraction: float = 0.9
    protect_priority: int = 1

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1: {self.n_replicas}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        for name in (
            "retry_backoff_base", "crash_detect_seconds", "probe_cost",
            "breaker_cooldown",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0: {getattr(self, name)}"
                )
        for name in ("timeout", "hedge_delay"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive (or None): {value}"
                )
        if self.probe_interval <= 0:
            raise ConfigurationError(
                f"probe_interval must be positive: {self.probe_interval}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}"
            )
        if self.breaker_window < 1:
            raise ConfigurationError(
                f"breaker_window must be >= 1: {self.breaker_window}"
            )
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ConfigurationError(
                "breaker_failure_threshold must be in (0, 1]: "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_drift_factor < 1.0:
            raise ConfigurationError(
                "breaker_drift_factor must be >= 1: "
                f"{self.breaker_drift_factor}"
            )
        if not 0.0 < self.degrade_queue_fraction <= 1.0:
            raise ConfigurationError(
                "degrade_queue_fraction must be in (0, 1]: "
                f"{self.degrade_queue_fraction}"
            )
        if not 0.0 < self.shed_queue_fraction <= 1.0:
            raise ConfigurationError(
                "shed_queue_fraction must be in (0, 1]: "
                f"{self.shed_queue_fraction}"
            )
        if self.protect_priority < 0:
            raise ConfigurationError(
                f"protect_priority must be >= 0: {self.protect_priority}"
            )


class CircuitBreaker:
    """Per-replica closed → open → half-open breaker (virtual clock).

    ``allow(t)`` gates dispatch; ``record(t, ok)`` feeds outcomes.  The
    breaker opens when the windowed failure rate reaches the threshold
    or when :meth:`check_drift` sees the replica's service-latency EWMA
    drift past ``drift_factor`` × the fleet's.  After ``cooldown``
    virtual seconds it half-opens: one probe dispatch is allowed, and
    its outcome closes or re-opens the breaker.
    """

    def __init__(self, window: int, failure_threshold: float,
                 cooldown: float, drift_factor: float):
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.drift_factor = drift_factor
        self.state = CLOSED
        self.opens = 0
        self._open_until = 0.0
        self._outcomes: collections.deque = collections.deque(maxlen=window)

    def allow(self, t: float) -> bool:
        """May a dispatch go to this replica at virtual time ``t``?"""
        if self.state == OPEN:
            if t < self._open_until:
                return False
            self.state = HALF_OPEN
        return True

    def record(self, t: float, ok: bool) -> None:
        """Feed one attempt outcome observed at time ``t``."""
        if self.state == HALF_OPEN:
            if ok:
                self.state = CLOSED
                self._outcomes.clear()
            else:
                self._trip(t)
            return
        self._outcomes.append(ok)
        if len(self._outcomes) == self.window:
            failures = sum(1 for o in self._outcomes if not o)
            if failures / self.window >= self.failure_threshold:
                self._trip(t)

    def check_drift(self, t: float, replica_ewma: Optional[float],
                    fleet_ewma: Optional[float]) -> None:
        """Open on service-latency drift vs the fleet (both EWMAs must
        exist; a lone replica never drifts against itself)."""
        if (
            self.state == CLOSED
            and replica_ewma is not None
            and fleet_ewma is not None
            and fleet_ewma > 0.0
            and replica_ewma > self.drift_factor * fleet_ewma
        ):
            self._trip(t)

    def _trip(self, t: float) -> None:
        self.state = OPEN
        self.opens += 1
        self._open_until = t + self.cooldown
        self._outcomes.clear()

    def describe(self) -> Dict[str, object]:
        return {"state": self.state, "opens": self.opens}


@dataclass
class ReplicaStats:
    """Per-replica counters (all deterministic under a fixed trace)."""

    dispatches: int = 0
    successes: int = 0
    failures: int = 0
    crashes: int = 0
    timeouts: int = 0
    probes: int = 0
    busy_seconds: float = 0.0
    rget_failures: int = 0
    rget_retries: int = 0
    lane_fallbacks: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Replica:
    """One simulated service executor behind the balancer.

    Owns its machine (per-replica fault seed), its engines (one per
    request group), its virtual ``free_at`` clock, its breaker, and
    its health/latency EWMAs.  The plan-cache namespace is applied at
    dispatch time by labelling the tenant ``replica<rid>/<tenant>``.
    """

    def __init__(self, rid: int, machine: MachineConfig,
                 fault_config: Optional[FaultConfig],
                 breaker: CircuitBreaker, grid=None):
        self.rid = rid
        self.fault_config = fault_config
        self.machine = replace(machine, faults=fault_config)
        self.grid = grid
        self.breaker = breaker
        self.engines: Dict[Tuple, DistSpMMEngine] = {}
        self.free_at = 0.0
        self.latency_ewma: Optional[float] = None
        self.health: float = 1.0
        self.next_probe_at = 0.0
        self.next_epoch = 0
        self.stats = ReplicaStats()
        # Static fault profile for synthetic probes: mean compute skew
        # times the worst incoming link multiplier.  Crash decisions
        # are per-epoch, so compiling here (epoch 0) never raises.
        plan = (
            compile_faults(fault_config, machine.n_nodes)
            if fault_config is not None else None
        )
        if plan is None:
            self.static_slowness = 1.0
        else:
            skews = [
                plan.compute_skew(r) for r in range(machine.n_nodes)
            ]
            self.static_slowness = (sum(skews) / len(skews)) * max(
                plan.worst_incoming_scale(r)
                for r in range(machine.n_nodes)
            )

    def machine_for_epoch(self, epoch: int) -> MachineConfig:
        """The dispatch machine with a fresh crash epoch threaded in."""
        if self.fault_config is None:
            return self.machine
        return replace(
            self.machine, faults=replace(self.fault_config,
                                         crash_epoch=epoch)
        )

    def observe_latency(self, sample: float, alpha: float) -> None:
        if self.latency_ewma is None:
            self.latency_ewma = sample
        else:
            self.latency_ewma = (
                alpha * sample + (1.0 - alpha) * self.latency_ewma
            )

    def describe(self) -> Dict[str, object]:
        info = self.stats.as_dict()
        info.update(self.breaker.describe())
        info["health"] = self.health
        info["latency_ewma"] = self.latency_ewma
        info["free_at"] = self.free_at
        return info


class ReplicaSet:
    """N independent replicas with derived fault seeds.

    Replica ``rid`` gets ``seed + rid``: every fault draw mixes the
    seed through splitmix64, so consecutive seeds yield independent
    fault streams — replicas straggle, degrade, and crash on their own
    schedules.
    """

    def __init__(self, machine: MachineConfig, n: int,
                 fault_config: Optional[FaultConfig],
                 policy: ResiliencePolicy,
                 grids: Optional[Sequence] = None):
        if grids is not None and len(grids) not in (0, n):
            raise ConfigurationError(
                f"grids must have one entry per replica ({n}), "
                f"got {len(grids)}"
            )
        self.policy = policy
        self.fleet_ewma: Optional[float] = None
        self.replicas: List[Replica] = []
        for rid in range(n):
            rep_faults = (
                replace(fault_config, seed=fault_config.seed + rid)
                if fault_config is not None else None
            )
            breaker = CircuitBreaker(
                policy.breaker_window,
                policy.breaker_failure_threshold,
                policy.breaker_cooldown,
                policy.breaker_drift_factor,
            )
            grid = grids[rid] if grids else None
            self.replicas.append(
                Replica(rid, machine, rep_faults, breaker, grid=grid)
            )

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas)

    def __getitem__(self, rid: int) -> Replica:
        return self.replicas[rid]

    def observe_fleet(self, sample: float) -> None:
        alpha = self.policy.ewma_alpha
        if self.fleet_ewma is None:
            self.fleet_ewma = sample
        else:
            self.fleet_ewma = (
                alpha * sample + (1.0 - alpha) * self.fleet_ewma
            )

    def run_probes(self, t: float) -> int:
        """Run every synthetic probe due at or before ``t``.

        A probe observes ``probe_cost × static slowness`` and folds the
        slowness into the replica's health EWMA.  Probes are
        out-of-band: they consume no executor time.
        """
        ran = 0
        alpha = self.policy.ewma_alpha
        for rep in self.replicas:
            while rep.next_probe_at <= t:
                rep.next_probe_at += self.policy.probe_interval
                rep.health = (
                    alpha * rep.static_slowness
                    + (1.0 - alpha) * rep.health
                )
                rep.stats.probes += 1
                ran += 1
        return ran


class LoadBalancer:
    """Health-weighted replica ordering for one dispatch.

    The score of a replica at time ``t`` is when it could *finish* the
    work: ``max(free_at, t)`` plus its expected service time — its own
    latency EWMA (the fleet's while it has no samples) scaled by the
    probe-fed health factor.  Breaker-blocked replicas are excluded
    unless every replica is blocked (then all are eligible: serving
    degraded beats serving nothing).  Ties break on replica id.
    """

    def __init__(self, replica_set: ReplicaSet):
        self.replica_set = replica_set

    def _score(self, rep: Replica, t: float) -> float:
        base = rep.latency_ewma
        if base is None:
            base = self.replica_set.fleet_ewma or 0.0
        return max(rep.free_at, t) + rep.health * base

    def order(self, t: float,
              exclude: Tuple[int, ...] = ()) -> List[Replica]:
        """Replicas to try at ``t``, best first; ``exclude`` demotes
        (never removes) already-tried replicas."""
        eligible = [
            rep for rep in self.replica_set if rep.breaker.allow(t)
        ]
        if not eligible:
            eligible = list(self.replica_set)
        return sorted(
            eligible,
            key=lambda rep: (
                rep.rid in exclude, self._score(rep, t), rep.rid,
            ),
        )


@dataclass
class ResilienceReport(ServeReport):
    """A :class:`~repro.serve.scheduler.ServeReport` plus the
    resilience tier's counters and the deterministic routing trace."""

    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_wasted_seconds: float = 0.0
    crashes: int = 0
    timeouts: int = 0
    shed: int = 0
    degraded_dispatches: int = 0
    probes: int = 0
    breaker_opens: int = 0
    replica_stats: Dict[int, Dict[str, object]] = field(
        default_factory=dict
    )
    #: One tuple per dispatched group:
    #: ``(batch_id, winner_replica, attempts, hedged, status)``.
    #: Replaying the same trace with the same seeds must reproduce
    #: this list exactly.
    routing_trace: List[Tuple[int, int, int, bool, str]] = field(
        default_factory=list
    )

    @property
    def availability(self) -> float:
        """Completed fraction of all submitted requests (1.0 empty)."""
        if not self.outcomes:
            return 1.0
        done = sum(1 for o in self.outcomes if o.status == DONE)
        return done / len(self.outcomes)

    def counter_trace(self) -> Tuple:
        """Everything that must replay identically: the routing trace
        plus retry/hedge/breaker/shed counters."""
        return (
            tuple(self.routing_trace),
            self.retries,
            self.hedges,
            self.hedge_wins,
            round(self.hedge_wasted_seconds, 12),
            self.crashes,
            self.timeouts,
            self.shed,
            self.degraded_dispatches,
            self.breaker_opens,
        )

    def serving_summary(self) -> Dict[str, float]:
        summary = super().serving_summary()
        summary.update({
            "availability": self.availability,
            "replicas": len(self.replica_stats),
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_wasted_seconds": self.hedge_wasted_seconds,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "degraded": self.degraded_dispatches,
            "probes": self.probes,
            "breaker_opens": self.breaker_opens,
        })
        return summary


class ResilientScheduler:
    """The fault-tolerant serving tier: N replicas, one event loop.

    Drop-in analogue of :class:`~repro.serve.scheduler.ServeScheduler`
    — same trace in, a :class:`ResilienceReport` out — but dispatches
    route through the :class:`LoadBalancer` onto a :class:`ReplicaSet`
    with timeouts, retries, hedging, circuit breakers, and SLO-aware
    admission.  Group keys (and any autotuned layouts) come from a
    fault-free *router* scheduler, so grouping and classification pins
    are identical to the single-executor path.

    Args:
        machine: base cluster every replica clones (fault seeds vary).
        matrices: suite name -> loaded matrix.
        policy: admission/fusion policy (shared with the router).
        resilience: the resilience knobs (:class:`ResiliencePolicy`).
        faults: fault config injected into the replicas; None serves
            fault-free (the resilience machinery still routes).
            Replica ``rid`` runs under ``seed + rid``.
        stripe_width / coeffs / plan_cache: forwarded to engines; the
            shared persistent cache is namespaced per replica *and*
            tenant (``replica<rid>/<tenant>``).
        grids: optional per-replica process grids (length
            ``n_replicas``).
    """

    def __init__(
        self,
        machine: MachineConfig,
        matrices: Dict[str, COOMatrix],
        policy: Optional[ServePolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        faults: Optional[FaultConfig] = None,
        stripe_width: Optional[int] = None,
        coeffs: Optional[CostCoefficients] = None,
        plan_cache: PlanCacheLike = AUTO,
        grids: Optional[Sequence] = None,
    ):
        self.policy = policy if policy is not None else ServePolicy()
        self.resilience = (
            resilience if resilience is not None else ResiliencePolicy()
        )
        if faults is None:
            faults = machine.faults
        self.faults = faults
        self.stripe_width = stripe_width
        self.coeffs = coeffs
        # The router owns group keys, tuned grids, and the shared plan
        # cache; it never executes (its machine is fault-free).
        self._router = ServeScheduler(
            replace(machine, faults=None), matrices, policy=self.policy,
            stripe_width=stripe_width, coeffs=coeffs,
            plan_cache=plan_cache,
        )
        self.replicas = ReplicaSet(
            replace(machine, faults=None), self.resilience.n_replicas,
            faults, self.resilience, grids=grids,
        )
        self.balancer = LoadBalancer(self.replicas)

    # ------------------------------------------------------------------
    def _engine_for(self, rep: Replica, key: Tuple,
                    lead: ServeRequest) -> DistSpMMEngine:
        """The replica's engine for one request group (lazy).

        Pinned exactly like the single-executor path
        (``classify_k`` or the group lead's width), so every replica —
        and the fault-free baseline — accumulates ``C`` in the same
        order and completed slices are byte-identical.
        """
        engine = rep.engines.get(key)
        if engine is None:
            pin = self.policy.classify_k
            engine = DistSpMMEngine(
                self._router.matrices[lead.matrix],
                rep.machine,
                stripe_width=self.stripe_width,
                coeffs=self.coeffs,
                plan_cache=None,
                classify_k=pin if pin is not None else lead.k,
                grid=(
                    rep.grid if rep.grid is not None
                    else self._router._group_grids.get(key)
                ),
            )
            rep.engines[key] = engine
        return engine

    def _cached_widths(self, key: Tuple) -> set:
        """Fused widths some replica already holds a plan for."""
        widths: set = set()
        for rep in self.replicas:
            engine = rep.engines.get(key)
            if engine is not None:
                widths.update(engine._plans)
        return widths

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[ServeRequest],
              fuse: bool = True) -> ResilienceReport:
        """Replay ``requests`` through the replicated event loop."""
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("request ids must be unique")
        pending = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        queues: Dict[Tuple, List[ServeRequest]] = {}
        outcomes: Dict[int, ServeOutcome] = {}
        report = ResilienceReport(fused=fuse)
        state = {"queued": 0, "idx": 0, "batch_id": 0}

        def admit_until(t: float) -> None:
            while (
                state["idx"] < len(pending)
                and pending[state["idx"]].arrival <= t
            ):
                req = pending[state["idx"]]
                state["idx"] += 1
                if state["queued"] >= self.policy.max_queue_depth:
                    outcomes[req.request_id] = ServeOutcome(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        matrix=req.matrix,
                        status=REJECTED,
                        completion=req.arrival,
                        reject_reason=RejectReason.QUEUE_FULL,
                    )
                    continue
                queues.setdefault(
                    self._router._group_key(req), []
                ).append(req)
                state["queued"] += 1
                report.peak_queue_depth = max(
                    report.peak_queue_depth, state["queued"]
                )
                self._shed(req.arrival, queues, outcomes, state, report)

        def ready_at(queue: List[ServeRequest]) -> float:
            first = queue[0]
            if not fuse:
                return first.arrival
            cum = 0
            for req in queue:
                if cum and cum + req.k > self.policy.max_fused_k:
                    return req.arrival
                cum += req.k
                if cum >= self.policy.max_fused_k:
                    return req.arrival
            if state["idx"] >= len(pending):
                return queue[-1].arrival
            return first.arrival + self.policy.max_batch_delay

        def select() -> Tuple[Tuple, float]:
            free = min(rep.free_at for rep in self.replicas)
            best_key = None
            best = (float("inf"), -1)
            for key, queue in queues.items():
                t = max(ready_at(queue), free)
                cand = (t, queue[0].request_id)
                if best_key is None or cand < best:
                    best_key, best = key, cand
            assert best_key is not None
            return best_key, best[0]

        while state["idx"] < len(pending) or state["queued"]:
            if state["queued"] == 0:
                admit_until(pending[state["idx"]].arrival)
                continue
            while True:
                key, t = select()
                if (
                    state["idx"] < len(pending)
                    and pending[state["idx"]].arrival <= t
                ):
                    admit_until(t)
                    continue
                break
            self._dispatch(key, t, fuse, queues, outcomes, state, report)

        report.outcomes = [outcomes[i] for i in sorted(outcomes)]
        for rep in self.replicas:
            report.replica_stats[rep.rid] = rep.describe()
            report.breaker_opens += rep.breaker.opens
            report.probes += rep.stats.probes
        return report

    # ------------------------------------------------------------------
    def _shed(self, t: float, queues, outcomes, state, report) -> None:
        """Drop lowest-priority queued work once pressure crosses the
        shed threshold (latest arrival first within a priority class;
        ``protect_priority`` work is never shed)."""
        limit = self.policy.max_queue_depth * (
            self.resilience.shed_queue_fraction
        )
        while state["queued"] > limit:
            victim_key = None
            victim = None
            for key, queue in queues.items():
                for req in queue:
                    if req.priority >= self.resilience.protect_priority:
                        continue
                    better = victim is None or (
                        (req.priority, -req.arrival, -req.request_id)
                        < (victim.priority, -victim.arrival,
                           -victim.request_id)
                    )
                    if better:
                        victim_key, victim = key, req
            if victim is None:
                return
            queues[victim_key].remove(victim)
            if not queues[victim_key]:
                del queues[victim_key]
            state["queued"] -= 1
            report.shed += 1
            outcomes[victim.request_id] = ServeOutcome(
                request_id=victim.request_id,
                tenant=victim.tenant,
                matrix=victim.matrix,
                status=REJECTED,
                completion=t,
                reject_reason=RejectReason.SHED,
            )

    # ------------------------------------------------------------------
    def _attempt(self, rep: Replica, key: Tuple, lead: ServeRequest,
                 B: np.ndarray, start: float,
                 report: ResilienceReport):
        """Run one dispatch attempt on ``rep`` starting at ``start``.

        Returns ``(ok, charged, C, kind, completion)``; the replica's
        clock, stats, EWMAs, and breaker are all updated here.
        """
        res = self.resilience
        epoch = rep.next_epoch
        rep.next_epoch += 1
        engine = self._engine_for(rep, key, lead)
        cache = self._router.tenant_cache(
            f"replica{rep.rid}/{lead.tenant}"
        )
        before = resilience_stats().snapshot()
        C = None
        try:
            C, seconds = engine.multiply(
                B, plan_cache=cache, machine=rep.machine_for_epoch(epoch)
            )
        except ExecutorCrashError:
            ok, charged, kind = False, res.crash_detect_seconds, CRASH
            rep.stats.crashes += 1
            report.crashes += 1
        except ReproError:
            ok, charged, kind = False, 0.0, ERROR
        else:
            if res.timeout is not None and seconds > res.timeout:
                ok, charged, kind = False, res.timeout, TIMEOUT
                C = None
                rep.stats.timeouts += 1
                report.timeouts += 1
            else:
                ok, charged, kind = True, seconds, OK
        after = resilience_stats().snapshot()
        rep.stats.rget_failures += after[0] - before[0]
        rep.stats.rget_retries += after[1] - before[1]
        rep.stats.lane_fallbacks += after[3] - before[3]
        rep.free_at = start + charged
        completion = rep.free_at
        rep.stats.dispatches += 1
        rep.stats.busy_seconds += charged
        if ok:
            rep.stats.successes += 1
            rep.observe_latency(charged, res.ewma_alpha)
            self.replicas.observe_fleet(charged)
        else:
            rep.stats.failures += 1
        rep.breaker.record(completion, ok)
        rep.breaker.check_drift(
            completion, rep.latency_ewma, self.replicas.fleet_ewma
        )
        return ok, charged, C, kind, completion

    def _dispatch(self, key: Tuple, t: float, fuse: bool, queues,
                  outcomes, state, report: ResilienceReport) -> None:
        """Route one group dispatch: degrade, balance, hedge, retry."""
        res = self.resilience
        self.replicas.run_probes(t)
        queue = queues[key]

        # Degradation ladder: under pressure prefer a fused width whose
        # plan is already cached; failing that, halve the K-panel cap.
        cap = self.policy.max_fused_k
        degraded = None
        if fuse and len(queue) > 1:
            pressure = state["queued"] / self.policy.max_queue_depth
            if pressure >= res.degrade_queue_fraction:
                widths, cum = [], 0
                for req in queue:
                    if cum and cum + req.k > cap:
                        break
                    cum += req.k
                    widths.append(cum)
                full = widths[-1]
                cached = self._cached_widths(key)
                if full not in cached:
                    stale = max(
                        (w for w in widths[:-1] if w in cached),
                        default=None,
                    )
                    if stale is not None:
                        cap, degraded = stale, "stale_plan"
                    else:
                        cap = max(queue[0].k, cap // 2)
                        if cap < full:
                            degraded = "k_panel"

        batch: List[ServeRequest] = []
        fused_k = 0
        for req in queue:
            if batch and (not fuse or fused_k + req.k > cap):
                break
            batch.append(req)
            fused_k += req.k
            if not fuse:
                break
        del queue[: len(batch)]
        if not queue:
            del queues[key]
        state["queued"] -= len(batch)

        lead = batch[0]
        if len(batch) == 1:
            B = lead.B
        else:
            B = np.concatenate([r.B for r in batch], axis=1)
        batch_id = int(state["batch_id"])
        state["batch_id"] += 1
        if degraded is not None:
            report.degraded_dispatches += 1

        # --- primary attempt -----------------------------------------
        tried: List[int] = []
        order = self.balancer.order(t)
        primary = order[0]
        tried.append(primary.rid)
        ok, charged, C, kind, comp = self._attempt(
            primary, key, lead, B, max(primary.free_at, t), report,
        )
        attempts = 1
        hedged = False
        winner: Optional[Replica] = primary if ok else None
        completion = comp
        last_failure = comp

        # --- hedge ----------------------------------------------------
        if (
            res.hedge_delay is not None
            and len(self.replicas) > 1
            and (not ok or comp > t + res.hedge_delay)
            and attempts <= res.max_retries
        ):
            backup = self.balancer.order(
                t + res.hedge_delay, exclude=tuple(tried)
            )[0]
            if backup.rid != primary.rid:
                tried.append(backup.rid)
                bok, bcharged, bC, bkind, bcomp = self._attempt(
                    backup, key, lead, B,
                    max(backup.free_at, t + res.hedge_delay), report,
                )
                attempts += 1
                hedged = True
                report.hedges += 1
                if ok and bok:
                    if bcomp < comp:
                        winner, C, completion = backup, bC, bcomp
                        report.hedge_wins += 1
                        report.hedge_wasted_seconds += charged
                    else:
                        report.hedge_wasted_seconds += bcharged
                elif bok:
                    winner, C, completion = backup, bC, bcomp
                    report.hedge_wins += 1
                elif ok:
                    report.hedge_wasted_seconds += bcharged
                    last_failure = max(last_failure, bcomp)
                else:
                    report.hedge_wasted_seconds += charged + bcharged
                    last_failure = max(last_failure, bcomp)

        # --- retry-with-backoff --------------------------------------
        retry_index = 0
        while winner is None and attempts <= res.max_retries:
            retry_index += 1
            backoff = res.retry_backoff_base * (2 ** (retry_index - 1))
            earliest = last_failure + backoff
            rep = self.balancer.order(earliest, exclude=tuple(tried))[0]
            if rep.rid not in tried:
                tried.append(rep.rid)
            ok, charged, C, kind, comp = self._attempt(
                rep, key, lead, B, max(rep.free_at, earliest), report,
            )
            attempts += 1
            report.retries += 1
            if ok:
                winner, completion = rep, comp
            else:
                last_failure = comp

        # --- record outcomes -----------------------------------------
        status = DONE if winner is not None else FAILED
        report.routing_trace.append((
            batch_id, winner.rid if winner is not None else -1,
            attempts, hedged, status,
        ))
        if winner is None:
            completion = last_failure
        offset = 0
        for req in batch:
            piece = None
            if winner is not None:
                piece = np.ascontiguousarray(
                    C[:, offset:offset + req.k]
                )
            offset += req.k
            outcomes[req.request_id] = ServeOutcome(
                request_id=req.request_id,
                tenant=req.tenant,
                matrix=req.matrix,
                status=status,
                batch_id=batch_id,
                fused_k=fused_k,
                dispatched=t,
                completion=completion,
                latency=completion - req.arrival,
                deadline_missed=(
                    req.deadline is not None
                    and completion > req.deadline
                ),
                replica=winner.rid if winner is not None else None,
                attempts=attempts,
                hedged=hedged,
                degraded=degraded,
                C=piece,
            )
        report.batches.append(
            BatchRecord(
                batch_id, lead.matrix, tuple(r.tenant for r in batch),
                t, fused_k, len(batch),
                completion - t if winner is not None else 0.0,
            )
        )
