"""Op recording, the correctness gate and the timed loops.

An *op* is one SpMM call into ``DistSpMMAlgorithm.run``.  The
:class:`OpRecorder` replaces that attribute for the whole measurement, so
every op a workload performs - a sweep cell, an engine multiply inside
``train_gcn``, a fused serving dispatch - is timed and checked the same
way:

* in the untimed verification pass, ``C`` is compared with
  ``spmm_reference`` and a bitwise fingerprint of ``C`` plus the op's
  simulated seconds and traffic totals are recorded per op index; for
  the default seed those simulated figures must also equal the values
  committed in ``expected.json``;
* in timed iterations, the fingerprint and simulated figures of op ``i``
  must equal the verification record of op ``i``.

All checking happens after the op's interval closes, and its duration
is subtracted from the enclosing unit's wall time (and, when tracing,
from the enclosing span), so it never counts as program time.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Tolerance of the reference comparison (the reference sums in another
#: order, so equality is only expected to rounding).
RTOL = 1e-9
ATOL = 1e-9
#: A timed loop starts no unit that its last unit's duration says would
#: end past this, so a run stays inside its time limit on a slow host.
HARD_CAP_S = 90.0
#: Failure messages kept for the report.
MAX_MESSAGES = 20

OOM = "oom"


def fingerprint(C: Optional[np.ndarray]) -> str:
    """Bitwise digest of ``C`` (``"oom"`` for a failed op)."""
    if C is None:
        return OOM
    data = np.ascontiguousarray(C)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str((data.shape, data.dtype.str)).encode())
    digest.update(memoryview(data).cast("B"))
    return digest.hexdigest()


def sim_record(result) -> list:
    """Simulated seconds (float hex) and traffic totals of one op."""
    if result.failed:
        return [OOM]
    t = result.traffic
    return [
        float(result.seconds).hex(), t.collective_bytes, t.onesided_bytes,
        t.onesided_requests, t.p2p_bytes,
    ]


@dataclass
class OpCheck:
    """The verification record of one op index."""

    label: str
    fingerprint: str
    sim: list


@dataclass
class OpRecorder:
    """Hooks ``DistSpMMAlgorithm.run``; times, checks and counts ops.

    Args:
        committed: ``[label, sim]`` pairs committed for this workload's
            default seed, or None when no committed values apply.  For
            any seed, an op whose committed entry (same label) is an
            OOM is an *expected* OOM and does not count as failed.
        exact: compare the verification pass with ``committed`` entry by
            entry (default seed and default configuration only).
    """

    committed: Optional[List[list]] = None
    exact: bool = False
    mode: str = "idle"
    label: Optional[str] = None
    checks: List[OpCheck] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    expected_ooms: int = 0
    messages: List[str] = field(default_factory=list)
    excluded_s: float = 0.0
    comm: List[int] = field(default_factory=lambda: [0, 0, 0])
    tracer: object = None
    _index: int = 0
    _orig: object = None
    _inner: Optional[Callable] = None

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.algorithms.base import DistSpMMAlgorithm

        self._orig = DistSpMMAlgorithm.__dict__["run"]
        self._inner = self._orig
        recorder = self

        def run(alg, A, B, *args, **kwargs):
            return recorder._op(alg, A, B, args, kwargs)

        run.__doc__ = self._orig.__doc__
        DistSpMMAlgorithm.run = run

    def uninstall(self) -> None:
        from repro.algorithms.base import DistSpMMAlgorithm

        if self._orig is not None:
            DistSpMMAlgorithm.run = self._orig
            self._orig = None

    def trace_with(self, tracer, layer: str) -> None:
        """Nest a ``layer`` span of ``tracer`` inside every op (None: off)."""
        self.tracer = tracer
        self._inner = (
            self._orig if tracer is None else tracer.wrap(self._orig, layer)
        )

    def expected_oom(self, label: str) -> bool:
        return any(
            entry[0] == label and entry[1] == [OOM]
            for entry in (self.committed or ())
        )

    def fail(self, message: str) -> None:
        """Count one failed or wrong op."""
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def fail_unit(self, message: str) -> None:
        """Count a failure outside any op (a unit raised, ops missing)."""
        self.attempted += 1
        self.fail(message)

    # ------------------------------------------------------------------
    def begin_unit(self) -> None:
        self._index = 0

    def end_unit(self) -> None:
        """Every timed unit must replay the verification pass's op count."""
        if self.mode == "timed" and self._index < len(self.checks):
            self.fail_unit(
                f"unit ran {self._index} ops, verification ran "
                f"{len(self.checks)}"
            )

    def _op(self, alg, A, B, args, kwargs):
        start = time.perf_counter()
        result = self._inner(alg, A, B, *args, **kwargs)
        end = time.perf_counter()
        label = self.label or f"op{self._index}/{alg.name}/K{B.shape[1]}"
        if self.mode == "timed":
            self.samples.append(end - start)
        if self.mode != "idle":
            self._check(label, A, B, result)
        spent = time.perf_counter() - end
        self.excluded_s += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)
        return result

    def _check(self, label: str, A, B, result) -> None:
        index = self._index
        self._index += 1
        self.attempted += 1
        fp = fingerprint(result.C)
        sim = sim_record(result)
        if self.mode == "verify":
            self.checks.append(OpCheck(label, fp, sim))
            problem = self._verify_problem(index, label, A, B, result, sim)
        elif index >= len(self.checks):
            problem = f"op {index} has no verification record"
        elif (label, fp, sim) != (
            self.checks[index].label, self.checks[index].fingerprint,
            self.checks[index].sim,
        ):
            problem = "C or simulated figures differ from verification"
        elif result.failed and not self.expected_oom(label):
            problem = f"unexpected failure: {result.failure}"
        else:
            problem = None
            if not result.failed:
                t = result.traffic
                self.comm[0] += t.collective_bytes
                self.comm[1] += t.onesided_bytes
                self.comm[2] += t.onesided_requests
        if problem is not None:
            self.fail(f"{label}: {problem}")

    def _verify_problem(self, index, label, A, B, result, sim):
        from repro.sparse import spmm_reference

        if result.failed:
            if not self.expected_oom(label):
                return f"unexpected failure: {result.failure}"
            self.expected_ooms += 1
        elif not np.allclose(result.C, spmm_reference(A, np.asarray(B)),
                             rtol=RTOL, atol=ATOL):
            return "C differs from spmm_reference"
        if self.exact:
            want = (
                self.committed[index] if index < len(self.committed)
                else None
            )
            if want != [label, sim]:
                return (
                    f"simulated seconds/traffic {sim} differ from "
                    f"committed {want}"
                )
        return None


@dataclass
class Measurement:
    """One timed loop: whole units of work over a net wall time.

    Per unit it keeps the op samples and the unit's time outside ops, so
    the figures can be taken per op index across units.  The program is
    deterministic, so what varies between units of one run is the host:
    on a shared host, contention from other tenants slows whatever runs
    during it, by up to 1.8x for seconds to minutes, and only ever adds
    time.  The figures therefore take each op index's fastest run across
    units (best of N, as ``timeit`` does), which a slow phase covering
    only some of the units does not move; one covering a whole run
    still does.
    """

    units: float
    wall_s: float
    samples: List[float]
    iterations: int
    comm: Tuple[int, int, int]
    unit_samples: List[List[float]] = field(default_factory=list)
    unit_other_s: List[float] = field(default_factory=list)

    def _full_units(self) -> List[List[float]]:
        """Units that ran the most common op count (the others failed,
        and were counted so)."""
        counts = [len(u) for u in self.unit_samples]
        if not counts:
            return []
        n = max(set(counts), key=counts.count)
        return [u for u in self.unit_samples if len(u) == n]

    def op_best(self) -> List[float]:
        """Fastest seconds of each op index across the full units."""
        full = self._full_units()
        return [min(u[i] for u in full) for i in range(len(full[0]))] \
            if full else []

    def best_unit_s(self) -> float:
        """The ops' best times plus the best time outside ops."""
        if not self.unit_other_s:
            return 0.0
        return sum(self.op_best()) + min(self.unit_other_s)

    @property
    def ops_per_s(self) -> float:
        """Natural units per second of the best unit."""
        best = self.best_unit_s()
        if best <= 0 or self.iterations == 0:
            return 0.0
        return self.units / self.iterations / best

    def op_percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile of the ops' best times, in ms."""
        return percentile_ms(self.op_best(), q)

    def merged(self, other: "Measurement") -> "Measurement":
        return Measurement(
            self.units + other.units, self.wall_s + other.wall_s,
            self.samples + other.samples,
            self.iterations + other.iterations,
            tuple(a + b for a, b in zip(self.comm, other.comm)),
            self.unit_samples + other.unit_samples,
            self.unit_other_s + other.unit_other_s,
        )


def verify(workload, recorder: OpRecorder) -> None:
    """The untimed verification pass: one unit, every op checked."""
    recorder.mode = "verify"
    recorder.begin_unit()
    try:
        workload.run_unit()
    except Exception as exc:  # the gate records any failure and goes on
        traceback.print_exc(file=sys.stderr)
        recorder.fail_unit(f"verification unit raised {exc!r}")
    else:
        workload.verify_unit(recorder)
    if recorder.exact and len(recorder.checks) < len(recorder.committed):
        recorder.fail_unit(
            f"verification ran {len(recorder.checks)} ops, "
            f"{len(recorder.committed)} are committed"
        )
    recorder.mode = "idle"


def measure(
    workload,
    recorder: OpRecorder,
    seconds: float,
    min_units: int = 1,
) -> Measurement:
    """Run whole units until ``seconds`` elapsed and ``min_units`` ran.

    Units are never cut short: a workload's op mix is only
    representative over whole units, so a partial one would shift the
    percentiles between runs.
    """
    recorder.mode = "timed"
    recorder.samples = []
    recorder.comm = [0, 0, 0]
    units = 0.0
    wall = 0.0
    iterations = 0
    unit_samples: List[List[float]] = []
    unit_other: List[float] = []
    started = time.perf_counter()
    while True:
        recorder.begin_unit()
        excluded = recorder.excluded_s
        first = len(recorder.samples)
        t0 = time.perf_counter()
        try:
            done = workload.run_unit()
        except Exception as exc:  # counted as a failed op, loop goes on
            traceback.print_exc(file=sys.stderr)
            recorder.fail_unit(f"timed unit raised {exc!r}")
            done = 0
        t1 = time.perf_counter()
        unit_wall = (t1 - t0) - (recorder.excluded_s - excluded)
        wall += unit_wall
        ops = recorder.samples[first:]
        unit_samples.append(ops)
        unit_other.append(unit_wall - sum(ops))
        workload.check_unit(recorder)
        recorder.end_unit()
        units += done
        iterations += 1
        now = time.perf_counter()
        elapsed = now - started
        if elapsed + (now - t0) > HARD_CAP_S:
            break
        if elapsed >= seconds and iterations >= min_units:
            break
    recorder.mode = "idle"
    return Measurement(
        units, wall, list(recorder.samples), iterations,
        tuple(recorder.comm), unit_samples, unit_other,
    )


def percentile_ms(samples: List[float], q: float) -> float:
    """The ``q``-th percentile of op seconds, in ms (linear)."""
    if not samples:
        return math.nan
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def timed_setups(workload, repeats: int, budget_s: float) -> List[float]:
    """Set the workload up ``repeats`` times, or fewer (but at least
    once) once ``budget_s`` is spent; keeps the last inputs."""
    times: List[float] = []
    while len(times) < repeats and (not times or sum(times) < budget_s):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times
