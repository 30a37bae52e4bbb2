"""Tests for the byte-budget trace LRU and its synthesis integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.trace import TraceCache, shared_trace_cache
from repro.trace.cache import _trace_nbytes

from conftest import make_trace


def sized_trace(n_hot_pages: int):
    """A trace whose epoch arrays retain 8 bytes per hot page."""
    pages = tuple(range(n_hot_pages))
    counts = (1,) * n_hot_pages
    return make_trace(n_pages=max(n_hot_pages, 8), pages=pages, counts=counts)


def nbytes(trace) -> int:
    return sum(e.pages.nbytes + e.counts.nbytes for e in trace.epochs)


class TestTraceCache:
    def test_miss_then_hit_counts(self):
        cache = TraceCache(1 << 20)
        trace = sized_trace(4)
        assert cache.get("k") is None
        cache.put("k", trace)
        assert cache.get("k") is trace  # same object, not a copy
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1
        assert cache._bytes == nbytes(trace)

    def test_byte_budget_evicts_lru(self):
        one = sized_trace(64)
        budget = nbytes(one) * 2  # room for two traces, not three
        cache = TraceCache(budget)
        cache.put("a", one)
        cache.put("b", sized_trace(64))
        cache.put("c", sized_trace(64))
        assert cache.evictions == 1
        assert cache.get("a") is None  # least recently used went first
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        assert cache._bytes <= budget

    def test_get_refreshes_recency(self):
        one = sized_trace(64)
        cache = TraceCache(nbytes(one) * 2)
        cache.put("a", one)
        cache.put("b", sized_trace(64))
        cache.get("a")  # a is now the most recent
        cache.put("c", sized_trace(64))
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversized_trace_is_not_cached(self):
        big = sized_trace(1024)
        cache = TraceCache(nbytes(big) - 1)
        cache.put("small", sized_trace(8))
        cache.put("big", big)
        # Admitting it would have flushed everything for one entry.
        assert cache.get("big") is None
        assert cache.get("small") is not None
        assert cache.evictions == 0

    def test_replacing_a_key_updates_bytes(self):
        cache = TraceCache(1 << 20)
        cache.put("k", sized_trace(256))
        replacement = sized_trace(8)
        cache.put("k", replacement)
        assert len(cache) == 1
        assert cache._bytes == nbytes(replacement)

    def test_clear_drops_entries_keeps_counters(self):
        cache = TraceCache(1 << 20)
        cache.put("k", sized_trace(8))
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache._bytes == 0
        assert cache.hits == 1
        assert cache.get("k") is None

    def test_zero_budget_caches_nothing(self):
        cache = TraceCache(0)
        cache.put("k", sized_trace(8))
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            TraceCache(-1)


class TestSynthesisIntegration:
    def test_repeat_synthesis_hits_and_shares_the_object(self, tiny_function):
        cache = shared_trace_cache()
        cache.clear()
        hits_before = cache.hits
        first = tiny_function.trace(2, 7)
        second = tiny_function.trace(2, 7)
        assert second is first  # one immutable object, shared
        assert cache.hits == hits_before + 1

    def test_cached_trace_equals_fresh_synthesis(self, tiny_function):
        """A cache hit must be indistinguishable from re-synthesis."""
        cache = shared_trace_cache()
        cache.clear()
        cached = tiny_function.trace(1, 3)
        cache.clear()  # force a genuine re-synthesis
        fresh = tiny_function.trace(1, 3)
        assert cached is not fresh
        assert cached.n_pages == fresh.n_pages
        assert len(cached.epochs) == len(fresh.epochs)
        for a, b in zip(cached.epochs, fresh.epochs):
            assert a.cpu_time_s == b.cpu_time_s
            assert np.array_equal(a.pages, b.pages)
            assert np.array_equal(a.counts, b.counts)

    def test_synthesized_trace_costs_8_bytes_per_element(self, tiny_function):
        """The int32 columns are all a cached trace is charged for."""
        trace = tiny_function.trace(3, 11)
        assert trace.pages.size > 0
        assert _trace_nbytes(trace) == 8 * trace.pages.size

    def test_distinct_seeds_are_distinct_entries(self, tiny_function):
        cache = shared_trace_cache()
        cache.clear()
        a = tiny_function.trace(0, 1)
        b = tiny_function.trace(0, 2)
        c = tiny_function.trace(1, 1)
        assert len({id(a), id(b), id(c)}) == 3
        assert len(cache) >= 3
