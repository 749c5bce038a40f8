"""Span tracing from outside the program: wrap functions, derive self time.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces a
function at the attribute its caller resolves (a module global, or a
class attribute reached through the MRO) with a wrapper that records
one span per call, and puts the original back on :meth:`Tracer.uninstall`.

Self time comes from span nesting: every open span keeps the sum of its
children's durations, and on exit a span's self time is its duration
minus that sum.  Time the benchmark spends checking outputs inside an
open span is handed to :meth:`Tracer.exclude`, which counts it as a child
of the open span (so no layer is charged for it) and keeps it apart.

"Hot" functions run once per stripe, thousands of times per op.  They
are folded into a call count and a total, with no per-call event, which
keeps the traced run's overhead low while their self time still leaves
the enclosing span.  Everything else is kept as a complete event and can
be written as Chrome trace-event JSON (loadable in Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Cap on recorded (non-folded) events; spans past it are still timed.
MAX_EVENTS = 400_000


@dataclass
class SpanStats:
    """Accumulated spans of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.module:Class.attr"`` -> ``(owner, attr)``.

    The module is taken from ``importlib.import_module`` (the
    ``sys.modules`` entry), not from its parent package's attribute:
    ``repro.core.preprocess`` as a package attribute is the function of
    that name, not the module.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target}: no attribute {attr!r}")
    return owner, attr


class Tracer:
    """Records nested spans of wrapped functions on the calling thread.

    Calls from any other thread run unwrapped-equivalent (untimed): the
    benchmark pins the program to its serial pools, and a span stack
    shared across threads would mis-nest.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.events: List[Tuple[str, str, float, float]] = []
        self.excluded_s = 0.0
        self.events_dropped = 0
        self._stack: List[List[float]] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        hot: bool = False,
        outcome: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records its calls under ``layer``.

        ``outcome(result)`` labels each returned result; the labels are
        counted in the layer's ``outcomes``.
        """
        stats = self.stats.setdefault(layer, SpanStats())
        stack = self._stack
        events = self.events
        owner_thread = self._thread
        clock = time.perf_counter
        name = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner_thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    label = outcome(result)
                    stats.outcomes[label] = stats.outcomes.get(label, 0) + 1
                return result
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    if len(events) < MAX_EVENTS:
                        events.append((layer, name, start, duration))
                    else:
                        self.events_dropped += 1

        return traced

    def exclude(self, seconds: float) -> None:
        """Account benchmark-own time spent inside the open span."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    # ------------------------------------------------------------------
    def install(self, hooks) -> None:
        """Wrap every ``(layer, target, hot, outcome)`` hook in place."""
        for layer, target, hot, outcome in hooks:
            owner, attr = resolve(target)
            # A class attribute is read raw from the defining __dict__
            # so classmethods keep their descriptor; an inherited one is
            # shadowed on ``owner`` and deleted again on uninstall.
            if isinstance(owner, type):
                own = attr in owner.__dict__
                raw = owner.__dict__[attr] if own else getattr(owner, attr)
            else:
                own, raw = True, getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(
                    self.wrap(raw.__func__, layer, hot, outcome)
                )
            else:
                patched = self.wrap(raw, layer, hot, outcome)
            self._patches.append((owner, attr, raw, own))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        stats = self.stats.get(layer)
        return stats.self_s if stats is not None else 0.0

    def calls(self, layer: str) -> int:
        stats = self.stats.get(layer)
        return stats.calls if stats is not None else 0

    def outcomes(self, layer: str) -> Dict[str, int]:
        stats = self.stats.get(layer)
        return dict(stats.outcomes) if stats is not None else {}

    def write_chrome_trace(self, path, metadata: Optional[dict] = None) -> int:
        """Write the recorded spans as Chrome trace events; returns count.

        Folded (hot) layers appear only in the per-layer summary under
        ``otherData``; every other span is a complete (``"X"``) event on
        one host thread, timestamps in microseconds since tracer start.
        """
        trace_events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self._epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for layer, name, start, duration in self.events
        ]
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "host (wall clock)"},
        })
        summary = {
            layer: {"calls": s.calls, "total_ms": s.total_s * 1e3,
                    "self_ms": s.self_s * 1e3}
            for layer, s in sorted(self.stats.items())
        }
        other = dict(metadata or {})
        other.update(layers=summary, events_dropped=self.events_dropped,
                     excluded_ms=self.excluded_s * 1e3)
        with open(path, "w") as fh:
            json.dump({"traceEvents": trace_events,
                       "displayTimeUnit": "ms", "otherData": other}, fh)
        return len(trace_events) - 1
