"""Zero-copy fetch-buffer arenas for the async hot path.

Each execution of an async stripe used to allocate three fresh arrays:
the rget destination (``source[rows]``), the packed-row gather
(``fetched[packed]``), and the per-chunk scatter product
(``vals[:, None] * B_rows``).  All three are scratch — consumed within
the stripe — so a grow-only arena hands out views of preallocated
buffers instead: the first execution sizes the buffers to the largest
stripe, and every later one performs **zero** per-stripe allocations
(the GNN pattern: hundreds of epochs against one plan).

Rank bodies run serially in rank order, so the process keeps a single
arena (:func:`process_arena`).  Its hit / grow counters surface through
``repro.bench.telemetry`` next to the transfer-schedule cache stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Smallest buffer a slot is grown to (elements); avoids re-growing
#: through tiny stripes during warm-up.
_MIN_SLOT_ELEMS = 1024


class FetchArena:
    """Grow-only scratch buffers.

    Buffers are keyed by slot name (``"async_fetch"``, ``"async_gather"``,
    ``"scatter"``); a request that fits the slot's current buffer is a
    *hit* and returns a view, a larger request *grows* the buffer
    (doubling, so grows converge quickly and then stop).
    """

    def __init__(self):
        self._slots: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.grows = 0

    # ------------------------------------------------------------------
    def request(
        self, slot: str, n_rows: int, n_cols: int, dtype=np.float64
    ) -> np.ndarray:
        """A ``(n_rows, n_cols)`` scratch view backed by slot storage.

        The contents are uninitialised; callers must fully overwrite
        (``np.take(..., out=...)`` / ``np.multiply(..., out=...)``).
        """
        needed = int(n_rows) * int(n_cols)
        buf = self._slots.get(slot)
        if buf is None or buf.size < needed or buf.dtype != dtype:
            capacity = max(
                needed,
                _MIN_SLOT_ELEMS,
                2 * (buf.size if buf is not None else 0),
            )
            buf = np.empty(capacity, dtype=dtype)
            self._slots[slot] = buf
            self.grows += 1
        else:
            self.hits += 1
        return buf[:needed].reshape(n_rows, n_cols)

    def take_rows(
        self, source: np.ndarray, indices: np.ndarray, slot: str
    ) -> np.ndarray:
        """``source[indices]`` gathered into arena scratch (no alloc)."""
        out = self.request(slot, len(indices), source.shape[1], source.dtype)
        return np.take(source, indices, axis=0, out=out)

    @classmethod
    def with_buffers(cls, buffers: Dict[str, np.ndarray]) -> "FetchArena":
        """An arena whose slots are pre-seeded with caller storage.

        The shared-memory transport carves each worker process's slots
        out of ``multiprocessing.shared_memory`` segments, so the rget
        destination and gather scratch are zero-copy views of shared
        pages.  Requests within the seeded capacity are ordinary hits;
        an oversized request falls back to a private grow exactly like
        an unseeded arena (correct, just no longer shared).

        Args:
            buffers: slot name -> flat (1-D) backing array.
        """
        arena = cls()
        for slot, flat in buffers.items():
            arena._slots[slot] = flat.reshape(-1)
        return arena

    # ------------------------------------------------------------------
    def capacity_bytes(self) -> int:
        return int(sum(buf.nbytes for buf in self._slots.values()))

    def release(self) -> None:
        """Drop the buffers (counters are left untouched)."""
        self._slots.clear()


# ----------------------------------------------------------------------
# The process arena
# ----------------------------------------------------------------------
_ARENA = FetchArena()


def process_arena() -> FetchArena:
    """The arena every simulated rank body draws its scratch from.

    It lives for the whole process, so its buffers stay warm across
    executions and epochs.
    """
    return _ARENA


@dataclass(frozen=True)
class ArenaStats:
    """Counters of the process arena.

    Attributes:
        hits: requests served from an existing buffer (zero-alloc).
        grows: requests that (re)allocated a slot buffer.
        capacity_bytes: total bytes currently held by the arena.
    """

    hits: int
    grows: int
    capacity_bytes: int

    def snapshot(self) -> Tuple[int, int]:
        return (self.hits, self.grows)


def arena_stats() -> ArenaStats:
    """Hit/grow/capacity counters of the process arena."""
    return ArenaStats(
        hits=_ARENA.hits,
        grows=_ARENA.grows,
        capacity_bytes=_ARENA.capacity_bytes(),
    )


def reset_arenas(release_buffers: bool = False) -> None:
    """Zero the process arena's counters (bench/test hygiene).

    Args:
        release_buffers: also drop the buffers, forcing a fresh
            warm-up (used to measure warm-up vs steady state).
    """
    _ARENA.hits = 0
    _ARENA.grows = 0
    if release_buffers:
        _ARENA.release()
