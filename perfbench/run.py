"""Standing wall-clock benchmark: spmm_cold, gnn_train, serve_replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spmm_cold --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py                     # all three, one process
    python3 perfbench/run.py --record-expected   # rewrite expected.json

Per workload it sets the inputs up in three rounds (``setup_s`` is the
median), checks every op of one untimed verification pass against
``spmm_reference`` (and, for seed 0, against the simulated seconds and
traffic committed in ``expected.json``), then runs whole units for at
least ``--seconds`` and :data:`MIN_UNITS` units, checking every op's
bitwise ``C`` fingerprint outside the timed interval.  ``op_p50_ms``/``op_p90_ms`` are percentiles over the op
indexes of a unit of each op's best time across units, and ``ops_per_s``
is the natural units of a unit over the sum of those best times plus
the best time outside ops (see ``harness.Measurement``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untimed units with traced units that wrap each layer's public
functions (``layers.HOOKS``) from this directory - nothing in ``src/``
is instrumented - and prints per-layer self times, writing a Chrome
trace (Perfetto) to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Environment knobs cleared so the program runs at its defaults (one
#: process, serial exec/plan pools, no persistent plan cache, default
#: scatter kernel).
PINNED_ENV = (
    "REPRO_EXEC_WORKERS", "REPRO_PLAN_WORKERS", "REPRO_PLAN_CACHE",
    "REPRO_SCATTER", "REPRO_BENCH_WORKERS",
)
#: BLAS thread pools pinned to one thread.  On a small shared host a
#: two-thread BLAS stalls whenever the other CPU is busy (the same
#: 400x400 matmul swung between 1.5 and 22 ms from run to run on a
#: 2-CPU host), which would make ``gnn_train`` figures unrepeatable.
BLAS_THREADS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)
#: Set-ups per run; ``setup_s`` is their median.  Set-up runs in three
#: rounds - before the verification pass, before the timed loop and
#: after it - so that the median does not hang on one phase of host
#: contention, which on a shared host slows everything by up to 1.8x
#: for seconds to minutes.  A round repeats a set-up up to
#: :data:`SETUP_REPEATS` times until :data:`SETUP_BUDGET_S` is spent.
#: Same seed, same inputs: a later round rebuilds the very inputs the
#: verification pass checked, and every timed op is checked against it.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
#: Units a timed loop runs at least, so that each op index's best time
#: is a best of three or more.
MIN_UNITS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="spmm_cold, gnn_train, serve_replay or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from seed 0 and exit")
    return parser.parse_args(argv)


def _environment(cleared: Dict[str, Optional[str]],
                 pinned: Dict[str, Optional[str]]) -> dict:
    import numpy
    import scipy

    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cleared_env": cleared,
        "blas_threads_pinned_to_1_was": pinned,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED) as fh:
        return json.load(fh)


def _make_workload(name: str, seed: int, scratch: Path):
    from perfbench.workloads import WORKLOADS, ServeReplay

    cls = WORKLOADS[name]
    if cls is ServeReplay:
        return cls(seed=seed, scratch=scratch)
    return cls(seed=seed)


def run_workload(
    workload, seconds: float, trace: bool, out_dir: Path, env: dict,
) -> Tuple[dict, Dict[str, Tuple[float, str]]]:
    """Measure one workload instance; returns ``(summary, metrics)``."""
    from perfbench import harness
    from perfbench.workloads import DEFAULT_SEED

    name, seed = workload.name, workload.seed
    entry = _load_expected().get(name)
    committed = (
        entry["ops"] if entry and entry["config"] == workload.config()
        else None
    )
    recorder = harness.OpRecorder(
        committed=committed,
        exact=committed is not None and seed == DEFAULT_SEED,
    )
    workload.recorder = recorder
    summary: dict = {"workload": name, "seed": seed}
    try:
        setups = summary["setups"] = []

        def set_up() -> None:
            setups.extend(harness.timed_setups(workload, SETUP_REPEATS,
                                               SETUP_BUDGET_S))

        set_up()
        recorder.install()
        harness.verify(workload, recorder)
        summary["verified_ops"] = len(recorder.checks)
        set_up()
        if trace:
            metrics = _traced_run(workload, recorder, seconds, out_dir, env,
                                  summary)
        else:
            base = harness.measure(workload, recorder, seconds, MIN_UNITS)
            summary["timed"] = base
            set_up()
            values = {
                "ops_per_s": base.ops_per_s,
                "op_p50_ms": base.op_percentile_ms(50),
                "op_p90_ms": base.op_percentile_ms(90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": _peak_rss_mb(),
                "success_rate": 1.0 - recorder.failed / max(
                    1, recorder.attempted
                ),
            }
            metrics = {
                key: (value, END_TO_END_UNITS[key])
                for key, value in values.items()
            }
    finally:
        recorder.uninstall()
        workload.close()
    summary["attempted"] = recorder.attempted
    summary["failed"] = min(recorder.failed, recorder.attempted)
    summary["expected_ooms"] = recorder.expected_ooms
    summary["messages"] = recorder.messages
    summary["exact"] = recorder.exact
    return summary, metrics


def _traced_run(workload, recorder, seconds: float, out_dir: Path,
                env: dict, summary: dict) -> Dict[str, Tuple[float, str]]:
    """Alternate untraced and traced units for ``seconds``.

    Alternating unit by unit makes host speed drift hit both sides of
    ``trace.overhead_pct`` alike.  Traced ops are checked against the
    verification pass like untraced ones, so tracing provably leaves
    ``C`` and the simulated figures bit for bit unchanged.
    """
    from perfbench import harness, layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    plain = traced = None
    started = time.perf_counter()
    while plain is None or time.perf_counter() - started < seconds:
        one = harness.measure(workload, recorder, 0.0)
        plain = one if plain is None else plain.merged(one)
        try:
            tracer.install(layers.HOOKS)
            recorder.trace_with(tracer, layers.OP_LAYER)
            one = harness.measure(workload, recorder, 0.0)
        finally:
            recorder.trace_with(None, layers.OP_LAYER)
            tracer.uninstall()
        traced = one if traced is None else traced.merged(one)
    summary["timed"], summary["traced"] = plain, traced
    overhead = (
        (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0
        if traced.ops_per_s > 0 else float("nan")
    )
    coverage = (
        layers.layer_self_total(tracer) / traced.wall_s * 100.0
        if traced.wall_s > 0 else float("nan")
    )
    path = out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
    n_events = tracer.write_chrome_trace(
        path, metadata={"workload": workload.name, "seed": workload.seed,
                        **env},
    )
    summary["trace_file"] = (path, n_events)
    return layers.per_layer_metrics(
        tracer, len(traced.samples), traced.iterations, traced.comm,
        overhead, coverage,
    )


def _report(summary: dict, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Human-readable lines (everything but the final JSON line)."""
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']})")
    setups = summary.get("setups") or []
    if setups:
        print(f"  set-up runs: {', '.join(f'{s:.3f}' for s in setups)} s")
    committed = (
        "checked against committed simulated seconds/traffic"
        if summary["exact"]
        else "no committed simulated figures for this seed/config"
    )
    print(f"  verification: {summary.get('verified_ops', 0)} ops vs "
          f"spmm_reference; {committed}; expected OOMs "
          f"{summary['expected_ooms']}")
    for key in ("timed", "traced"):
        m = summary.get(key)
        if m is not None:
            p90 = m.op_percentile_ms(90)
            beyond = sum(1 for s in m.samples if s * 1e3 > p90)
            print(f"  {key}: {m.iterations} units, {len(m.samples)} op "
                  f"samples ({beyond} beyond p90) over "
                  f"{len(m.op_best())} op indexes, {m.wall_s:.2f} s net")
    if "trace_file" in summary:
        path, n_events = summary["trace_file"]
        print(f"  chrome trace: {path} ({n_events} events)")
    rate = summary["failed"] / max(1, summary["attempted"])
    print(f"  error_rate: {rate:.6f} ({summary['failed']} failed or wrong "
          f"of {summary['attempted']} ops attempted)")
    for message in summary["messages"]:
        print(f"  FAILURE: {message}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:26s} {value:14.6g} {unit}")


def _record_expected(scratch: Path) -> int:
    from perfbench import harness
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    expected = {}
    for name in WORKLOADS:
        workload = _make_workload(name, DEFAULT_SEED, scratch)
        recorder = harness.OpRecorder()
        workload.recorder = recorder
        try:
            workload.setup()
            recorder.install()
            harness.verify(workload, recorder)
        finally:
            recorder.uninstall()
            workload.close()
        # An OOM is recorded as expected: it is a simulated outcome.
        failures = [m for m in recorder.messages
                    if "unexpected failure" not in m]
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        expected[name] = {
            "config": workload.config(),
            "ops": [[c.label, c.sim] for c in recorder.checks],
        }
        print(f"{name}: {len(recorder.checks)} ops recorded")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    cleared = {key: os.environ.pop(key, None) for key in PINNED_ENV}
    if "numpy" in sys.modules:
        print("perfbench: numpy was imported before the BLAS thread "
              "count could be pinned", file=sys.stderr)
        return 2
    pinned = {key: os.environ.get(key) for key in BLAS_THREADS_ENV}
    os.environ.update({key: "1" for key in BLAS_THREADS_ENV})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        if args.record_expected:
            return _record_expected(Path(scratch))
        env = _environment(cleared, pinned)
        print("environment: " + json.dumps(env, sort_keys=True))
        attempted = failed = 0
        merged: Dict[str, dict] = {}
        for name in names:
            workload = _make_workload(name, args.seed, Path(scratch))
            summary, metrics = run_workload(
                workload, args.seconds, bool(args.trace), OUT_DIR, env,
            )
            _report(summary, metrics)
            attempted += summary["attempted"]
            failed += summary["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit) in metrics.items():
                merged[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
