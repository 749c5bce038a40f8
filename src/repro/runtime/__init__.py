"""Runtime support: thread allocation, time breakdowns."""

from .threads import ThreadConfig, max_coalescing_gap
from .trace import NodeBreakdown, TimeBreakdown

__all__ = [
    "NodeBreakdown",
    "ThreadConfig",
    "TimeBreakdown",
    "max_coalescing_gap",
]
