"""Unit tests for the zero-copy fetch-buffer arenas."""

import numpy as np

from repro.cluster.buffers import (
    _MIN_SLOT_ELEMS,
    FetchArena,
    arena_stats,
    process_arena,
    reset_arenas,
)


class TestFetchArena:
    def test_first_request_grows(self):
        arena = FetchArena()
        view = arena.request("s", 4, 3)
        assert view.shape == (4, 3)
        assert arena.grows == 1 and arena.hits == 0

    def test_fitting_request_hits(self):
        arena = FetchArena()
        arena.request("s", 4, 3)
        view = arena.request("s", 2, 5)
        assert view.shape == (2, 5)
        assert arena.hits == 1 and arena.grows == 1

    def test_view_is_backed_by_slot_buffer(self):
        arena = FetchArena()
        a = arena.request("s", 4, 3)
        b = arena.request("s", 4, 3)
        assert np.shares_memory(a, b)

    def test_min_slot_size(self):
        arena = FetchArena()
        arena.request("s", 1, 1)
        assert arena.capacity_bytes() == _MIN_SLOT_ELEMS * 8

    def test_growth_doubles(self):
        arena = FetchArena()
        arena.request("s", _MIN_SLOT_ELEMS, 1)
        arena.request("s", _MIN_SLOT_ELEMS + 1, 1)
        assert arena.grows == 2
        assert arena.capacity_bytes() == 2 * _MIN_SLOT_ELEMS * 8
        # Anything up to the doubled capacity is now a hit.
        arena.request("s", 2 * _MIN_SLOT_ELEMS, 1)
        assert arena.hits == 1

    def test_slots_are_independent(self):
        arena = FetchArena()
        a = arena.request("a", 8, 2)
        b = arena.request("b", 8, 2)
        assert not np.shares_memory(a, b)
        assert arena.grows == 2

    def test_dtype_change_regrows(self):
        arena = FetchArena()
        arena.request("s", 4, 4, dtype=np.float64)
        view = arena.request("s", 4, 4, dtype=np.float32)
        assert view.dtype == np.float32
        assert arena.grows == 2

    def test_take_rows_matches_fancy_indexing(self):
        rng = np.random.default_rng(0)
        source = rng.standard_normal((50, 7))
        idx = rng.integers(0, 50, size=30)
        arena = FetchArena()
        out = arena.take_rows(source, idx, "gather")
        np.testing.assert_array_equal(out, source[idx])

    def test_take_rows_empty(self):
        arena = FetchArena()
        out = arena.take_rows(
            np.zeros((5, 3)), np.array([], dtype=np.int64), "gather"
        )
        assert out.shape == (0, 3)

    def test_release_drops_buffers_keeps_counters(self):
        arena = FetchArena()
        arena.request("s", 4, 4)
        arena.request("s", 2, 2)
        arena.release()
        assert arena.capacity_bytes() == 0
        assert (arena.hits, arena.grows) == (1, 1)


class TestProcessArena:
    def test_one_arena_per_process(self):
        assert process_arena() is process_arena()

    def test_stats_and_reset(self):
        reset_arenas(release_buffers=True)
        process_arena().request("stats_test", 4, 4)
        process_arena().request("stats_test", 2, 2)
        stats = arena_stats()
        assert (stats.hits, stats.grows) == (1, 1)
        assert stats.capacity_bytes > 0
        assert stats.snapshot() == (stats.hits, stats.grows)
        reset_arenas()
        after = arena_stats()
        assert (after.hits, after.grows) == (0, 0)
        assert after.capacity_bytes > 0  # buffers kept
        reset_arenas(release_buffers=True)
        assert arena_stats().capacity_bytes == 0
