"""Tests for the keep-alive cache and its TOSS integration."""

from __future__ import annotations

import pytest

from repro import config
from repro.core.toss import Phase, TossConfig
from repro.errors import SchedulerError
from repro.functions.base import FunctionModel
from repro.platform import KeepAliveCache, ServerlessPlatform


class TestGreedyDualCache:
    def test_miss_then_hit(self):
        cache = KeepAliveCache(1024)
        assert not cache.lookup("f")
        assert cache.admit("f", fast_mb=100, init_cost_s=0.01)
        assert cache.lookup("f")
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_enforced(self):
        cache = KeepAliveCache(256)
        cache.admit("a", fast_mb=128, init_cost_s=0.01)
        cache.admit("b", fast_mb=128, init_cost_s=0.01)
        assert cache.used_mb <= 256
        cache.admit("c", fast_mb=128, init_cost_s=1.0)  # expensive newcomer
        assert cache.used_mb <= 256
        assert cache.evictions >= 1
        assert "c" in cache.warm_functions

    def test_oversized_entry_rejected(self):
        cache = KeepAliveCache(100)
        assert not cache.admit("huge", fast_mb=200, init_cost_s=1.0)

    def test_valuable_entries_survive(self):
        """Greedy-Dual: a cheap newcomer cannot evict expensive entries."""
        cache = KeepAliveCache(256)
        cache.admit("gold", fast_mb=256, init_cost_s=10.0)
        assert not cache.admit("dust", fast_mb=256, init_cost_s=1e-6)
        assert "gold" in cache.warm_functions

    def test_frequency_raises_priority(self):
        cache = KeepAliveCache(200)
        cache.admit("hot", fast_mb=100, init_cost_s=0.01)
        cache.admit("cold", fast_mb=100, init_cost_s=0.01)
        for _ in range(50):
            cache.lookup("hot")
        cache.admit("new", fast_mb=100, init_cost_s=0.01)
        assert "hot" in cache.warm_functions
        assert "cold" not in cache.warm_functions

    def test_invalidate(self):
        cache = KeepAliveCache(100)
        cache.admit("f", fast_mb=10, init_cost_s=0.1)
        cache.invalidate("f")
        assert not cache.lookup("f")

    def test_invalid_inputs(self):
        with pytest.raises(SchedulerError):
            KeepAliveCache(0)
        cache = KeepAliveCache(10)
        with pytest.raises(SchedulerError):
            cache.admit("f", fast_mb=0, init_cost_s=0.1)


class TestReAdmissionFootprint:
    """Re-admission must bill the *current* fast-tier footprint.

    The old ``admit`` returned early when the name was already resident,
    so a VM whose tiering shrank (or a re-profiled VM that grew) kept
    being billed at the footprint frozen at first admission — silently
    wasting headroom in the shrink case and overcommitting DRAM in the
    grow case."""

    def test_shrink_then_grow_refreshes_billing(self):
        cache = KeepAliveCache(150)
        assert cache.admit("f", fast_mb=100, init_cost_s=0.5)
        # Tiering moved most pages to the slow tier: re-admission now
        # pins 40 MB, and the freed headroom must be real.
        assert cache.admit("f", fast_mb=40, init_cost_s=0.5)
        assert cache.used_mb == pytest.approx(40.0)
        assert cache.admit("g", fast_mb=100, init_cost_s=0.5)
        assert cache.evictions == 0
        assert cache.warm_functions == {"f", "g"}
        # Growing back re-competes for capacity instead of sliding in at
        # the stale 40 MB billing: g must be evicted to make room.
        assert cache.admit("f", fast_mb=140, init_cost_s=5.0)
        assert cache.used_mb == pytest.approx(140.0)
        assert cache.used_mb <= cache.capacity_mb
        assert cache.evictions == 1
        assert cache.warm_functions == {"f"}

    def test_grown_footprint_cannot_overcommit(self):
        cache = KeepAliveCache(150)
        cache.admit("gold", fast_mb=50, init_cost_s=10.0)
        cache.admit("f", fast_mb=50, init_cost_s=0.001)
        # f grew past the remaining headroom and is too cheap to evict
        # the expensive neighbour: admission must fail, never leave the
        # cache over budget, and drop the stale 50 MB entry (its
        # footprint no longer exists).
        assert not cache.admit("f", fast_mb=140, init_cost_s=0.001)
        assert cache.used_mb <= cache.capacity_mb
        assert "gold" in cache.warm_functions
        assert "f" not in cache.warm_functions

    def test_readmission_keeps_frequency(self):
        cache = KeepAliveCache(300)
        cache.admit("hot", fast_mb=100, init_cost_s=0.01)
        for _ in range(50):
            cache.lookup("hot")
        # Re-admission at a new footprint keeps the earned frequency, so
        # the entry still outranks a same-cost newcomer.
        cache.admit("hot", fast_mb=150, init_cost_s=0.01)
        cache.admit("cold", fast_mb=150, init_cost_s=0.01)
        cache.admit("new", fast_mb=150, init_cost_s=0.01)
        assert "hot" in cache.warm_functions
        assert "cold" not in cache.warm_functions


class TestPlatformIntegration:
    def _platform(self, keepalive):
        return ServerlessPlatform(
            n_cores=4,
            toss_cfg=TossConfig(convergence_window=3,
                                min_profiling_invocations=3),
            keepalive=keepalive,
        )

    def test_warm_starts_draw_under_the_configured_root_seed(
        self, tiny_function, monkeypatch
    ):
        """Every trace a platform synthesises, keep-alive starts included,
        uses its controllers' root seed."""
        root_seeds = []
        synthesize = FunctionModel.trace

        def recording(self, input_index, invocation_seed, *,
                      root_seed=config.DEFAULT_SEED):
            root_seeds.append(root_seed)
            return synthesize(self, input_index, invocation_seed,
                              root_seed=root_seed)

        monkeypatch.setattr(FunctionModel, "trace", recording)
        platform = ServerlessPlatform(
            n_cores=4,
            toss_cfg=TossConfig(root_seed=7, convergence_window=3,
                                min_profiling_invocations=3),
            keepalive=KeepAliveCache(1e5),
        )
        platform.deploy(tiny_function)
        log = platform.serve([(0.05 * i, "tiny", 3) for i in range(40)])
        warm = [e for e in log
                if e.phase is Phase.TIERED and e.setup_time_s == 0.0]
        assert warm, "keep-alive never produced a warm start"
        assert set(root_seeds) == {7}

    def test_warm_starts_skip_setup(self, tiny_function):
        cache = KeepAliveCache(1024)
        platform = self._platform(cache)
        platform.deploy(tiny_function)
        log = platform.serve([(0.05 * i, "tiny", 3) for i in range(40)])
        tiered = [e for e in log if e.phase is Phase.TIERED]
        warm = [e for e in tiered if e.setup_time_s == 0.0]
        assert warm, "keep-alive never produced a warm start"
        # After the first tiered admit, every later request is warm.
        assert len(warm) >= len(tiered) - 1
        assert cache.hits > cache.misses

    def test_tiering_shrinks_cache_footprint(self, tiny_function):
        """The synergy: a tiered VM pins only its fast fraction of DRAM."""
        cache = KeepAliveCache(1024)
        platform = self._platform(cache)
        platform.deploy(tiny_function)
        platform.serve([(0.05 * i, "tiny", 3) for i in range(30)])
        dep = platform.deployments["tiny"]
        fast_mb = tiny_function.guest_mb * (1 - dep.controller.slow_fraction)
        assert cache.used_mb == pytest.approx(max(fast_mb, 1e-3), rel=1e-6)
        assert cache.used_mb < 0.3 * tiny_function.guest_mb
