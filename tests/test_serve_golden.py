"""Serve-stream golden: every output channel of two fixed request streams.

Two streams run under a fully wired observation and every channel they
produce is pinned by sha256 in ``fixtures/serve_golden.json``:

* **host** — one :class:`~repro.platform.server.ServerlessPlatform` with
  the whole overload layer on (admission limits, deadlines, a circuit
  breaker, the degradation ladder), host capacity, pre-warming, a
  keep-alive cache, an injected tier outage plus SSD read errors and
  an SLO tracker.  It reaches shed, failed, fallback and served entries.
* **cluster** — a :class:`~repro.cluster.fleet.ClusterPlatform` under an
  overload config whose host 0 crashes mid-stream, observed through a
  :class:`~repro.obs.fleet.FleetAggregator`.

The channels are the request log (every field of every entry, floats
written exactly), the Perfetto JSON (which carries every telemetry
event), the Prometheus text and the SLO tracker's ``records_jsonl()``.

To re-record after a deliberate behaviour change, run
``PYTHONPATH=src python tests/test_serve_golden.py`` and write its
output over the fixture; the diff then names every channel that moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cluster import FLEET_SUITE, ClusterConfig, ClusterPlatform
from repro.cluster.workload import steady_requests
from repro.core.toss import TossConfig
from repro.errors import FaultInjected
from repro.faults import FaultInjector, FaultPlan, StorageFaultSpec, TierFaultSpec
from repro.faults.plan import HostFaultSpec
from repro.obs import (
    FleetAggregator,
    Observation,
    SloConfig,
    SloTracker,
    perfetto_json,
    prometheus_text,
)
from repro.obs.runtime import observing
from repro.obs.slo import BurnWindow
from repro.platform import HostCapacity, KeepAliveCache, PrewarmPolicy
from repro.platform.overload import OverloadConfig
from repro.platform.server import ServerlessPlatform

FIXTURE = Path(__file__).parent / "fixtures" / "serve_golden.json"

TOSS_CFG = TossConfig(convergence_window=3, min_profiling_invocations=3)

SLO_CFG = SloConfig(
    name="availability",
    objective=0.99,
    windows=(
        BurnWindow(long_s=2.0, short_s=0.5, threshold=2.0, severity="page"),
        BurnWindow(long_s=4.0, short_s=1.0, threshold=1.0, severity="ticket"),
    ),
    min_samples=8,
)

ENTRY_FIELDS = (
    "function",
    "input_index",
    "arrival_s",
    "start_s",
    "finish_s",
    "phase",
    "setup_time_s",
    "exec_time_s",
    "bill",
    "retries",
    "failures",
    "degraded",
    "failed",
    "request_class",
    "deadline_s",
    "shed",
    "shed_reason",
    "aborted",
)
"""The log-entry fields the golden pins (every field a log entry has)."""


def _exact(value):
    """A JSON-ready value with every float written exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if hasattr(value, "value"):
        return value.value
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: _exact(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    return value


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rows_sha(rows) -> str:
    return _sha(json.dumps(_exact(list(rows)), separators=(",", ":")))


def _entry_row(entry):
    return [getattr(entry, name) for name in ENTRY_FIELDS]


@contextmanager
def failing_every(n: int):
    """Fail every ``n``-th invocation of each platform with an injected
    fault.

    The controller's recovery chain always ends in a lazy restore that
    succeeds, so nothing in the fault plan alone fails a request; this
    stands in for a fault the whole chain could not absorb.  Each
    platform counts its own invocations, so which cluster request fails
    depends on its host's calls, not on the order hosts are called in."""
    original = ServerlessPlatform._invoke
    calls: Counter[int] = Counter()

    def flaky(self, dep, input_index, **kwargs):
        calls[id(self)] += 1
        count = calls[id(self)]
        if count % n == 0:
            raise FaultInjected(f"injected failure of invocation {count}")
        return original(self, dep, input_index, **kwargs)

    ServerlessPlatform._invoke = flaky
    try:
        yield
    finally:
        ServerlessPlatform._invoke = original


def host_stream() -> dict[str, object]:
    """The single-host stream; returns its channels and outcome counts."""
    functions = FLEET_SUITE[:3]
    injector = FaultInjector(
        FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.02, retry_success_rate=0.0),
            tier=TierFaultSpec(outage_windows=((1.0, 1.8),)),
            seed=7,
        )
    )
    platform = ServerlessPlatform(
        n_cores=2,
        toss_cfg=TOSS_CFG,
        keepalive=KeepAliveCache(300.0),
        prewarm=PrewarmPolicy(),
        faults=injector,
        overload=OverloadConfig(
            max_queue_depth=3,
            max_queue_delay_s=0.04,
            max_function_depth=3,
            slo_factor=8.0,
            breaker_failures=2,
            breaker_cooldown_s=0.4,
            breaker_fail_fast=True,
            pressured_delay_s=0.005,
            degraded_delay_s=0.02,
            shedding_delay_s=0.05,
        ),
        capacity=HostCapacity(fast_mb=900.0, slow_mb=2048.0),
    )
    for function in functions:
        platform.deploy(function)
    tracker = SloTracker(SLO_CFG)
    observation = Observation(slo=tracker)
    requests = [
        (
            0.02 * i + (0.001 * (i % 7) if 40 <= i < 90 else 0.0),
            functions[i % 3].name,
            i % 4,
            "batch" if i % 3 == 2 else "latency",
        )
        for i in range(150)
    ]
    # Two calls, so capacity leases and keep-alive state carry over.
    with observing(observation), failing_every(23):
        log = platform.serve(requests[:100])
        log += platform.serve(requests[100:])
    return {
        "channels": {
            "entries": _rows_sha(_entry_row(e) for e in log),
            "perfetto": _sha(perfetto_json(observation.tracer)),
            "prometheus": _sha(prometheus_text(observation.metrics)),
            "slo_records": _sha(tracker.records_jsonl()),
        },
        "counts": {
            "entries": len(log),
            "shed": sum(e.shed for e in log),
            "failed": sum(e.failed for e in log),
            "fallback": sum(e.degraded and not e.failed for e in log),
            "served": sum(not e.shed and not e.failed for e in log),
        },
    }


def cluster_stream() -> dict[str, object]:
    """The cluster stream; returns its channels and outcome counts."""
    cluster = ClusterPlatform(
        ClusterConfig(n_hosts=3, replication_factor=2, cores_per_host=2),
        toss_cfg=TOSS_CFG,
        plan=FaultPlan(
            hosts=(HostFaultSpec(host=0, crash_windows=((0.887, 1.5),)),)
        ),
        keepalive_mb=200.0,
        prewarm=True,
        overload=OverloadConfig(
            max_queue_depth=2,
            max_queue_delay_s=0.01,
            slo_factor=8.0,
            pressured_delay_s=0.004,
            degraded_delay_s=0.01,
            shedding_delay_s=0.03,
        ),
    )
    cluster.deploy_fleet(list(FLEET_SUITE))
    tracker = SloTracker(SLO_CFG)
    aggregator = FleetAggregator(tracker)
    observation = Observation(slo=tracker, fleet=aggregator)
    with observing(observation), failing_every(29):
        outcomes = cluster.serve(
            steady_requests(n_requests=400, duration_s=2.0, batch_every=3)
        )
    registry = aggregator.fleet_registry(cluster=cluster, parent=observation.metrics)
    outcome_rows = [
        [
            o.function,
            o.input_index,
            o.arrival_s,
            o.request_class,
            o.host,
            o.attempts,
            o.redispatches,
            o.kills,
            o.backoff_s,
            o.shed_reason,
            o.error,
            None if o.entry is None else _entry_row(o.entry),
        ]
        for o in outcomes
    ]
    perfetto = [
        perfetto_json(child.tracer, process_name=f"repro-host{hid}")
        for hid, child in aggregator.host_tracer_items()
    ] + [perfetto_json(observation.tracer)]
    return {
        "channels": {
            "entries": _rows_sha(outcome_rows),
            "perfetto": _sha("\n".join(perfetto)),
            "prometheus": _sha(prometheus_text(registry)),
            "slo_records": _sha(tracker.records_jsonl()),
        },
        "counts": {
            "outcomes": len(outcomes),
            "host_shed": sum(o.host_shed for o in outcomes),
            "cluster_shed": sum(o.cluster_shed for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "kills": cluster.total_kills(),
            "served": sum(o.served for o in outcomes),
        },
    }


STREAMS = {"host": host_stream, "cluster": cluster_stream}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs():
    return {}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_reaches_every_settle_kind(stream, golden, runs):
    run = runs.setdefault(stream, STREAMS[stream]())
    assert run["counts"] == golden[stream]["counts"]
    assert all(n > 0 for n in run["counts"].values())


@pytest.mark.parametrize(
    "stream,channel",
    [
        (stream, channel)
        for stream in sorted(STREAMS)
        for channel in ("entries", "perfetto", "prometheus", "slo_records")
    ],
)
def test_channel_digest_matches_golden(stream, channel, golden, runs):
    run = runs.setdefault(stream, STREAMS[stream]())
    assert run["channels"][channel] == golden[stream]["channels"][channel]


if __name__ == "__main__":
    json.dump(
        {name: make() for name, make in sorted(STREAMS.items())},
        sys.stdout,
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write("\n")
