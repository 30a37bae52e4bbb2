"""Fleet-scale aggregation: per-host child observations merged into one
host-labelled registry plus computed fleet rollups.

``ClusterPlatform.serve`` asks the active observation's
:class:`FleetAggregator` for a child :class:`~repro.obs.runtime.Observation`
per host and activates it around that host's ``platform.serve`` call, so
every span and metric a host produces lands in its own tracer/registry
(span names already carry the ``hostN/`` prefix the platform sets).
Afterwards :meth:`FleetAggregator.fleet_registry` merges the per-host
families into fleet families with ``host=`` labels and prepends computed
rollups — fleet availability, per-rung shed totals, and the durability
plane's repair-ladder counts — all deterministically ordered so the
rendered Prometheus text is byte-stable across runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _HistogramSample,
    _labelset,
)
from .runtime import Observation

if TYPE_CHECKING:
    from ..cluster.fleet import ClusterPlatform
    from .slo import SloTracker

__all__ = ["FleetAggregator"]

_REPAIR_RUNGS: tuple[tuple[str, str], ...] = (
    ("repaired-replica", "repaired_replica"),
    ("re-snapshot", "re_snapshot"),
    ("rebuilt-cold", "rebuilt_cold"),
    ("evicted-unrecoverable", "unrecoverable"),
)
"""Repair-ladder rung label -> durability summary key, ladder order."""


def _merge_counter(
    out: MetricsRegistry, family: Counter, extra: Mapping[str, str]
) -> None:
    target = out.counter(family.name, family.help_text)
    for labels in sorted(family.values):
        target.inc(family.values[labels], **{**dict(labels), **extra})


def _merge_gauge(
    out: MetricsRegistry, family: Gauge, extra: Mapping[str, str]
) -> None:
    target = out.gauge(family.name, family.help_text)
    for labels in sorted(family.values):
        target.set(family.values[labels], **{**dict(labels), **extra})


def _merge_histogram(
    out: MetricsRegistry, family: Histogram, extra: Mapping[str, str]
) -> None:
    target = out.histogram(family.name, family.help_text, family.buckets)
    for labels in sorted(family.samples):
        sample = family.samples[labels]
        key = _labelset({**dict(labels), **extra})
        existing = target.samples.get(key)
        if existing is None:
            target.samples[key] = _HistogramSample(
                counts=list(sample.counts),
                total=sample.total,
                n=sample.n,
            )
        else:
            for i, count in enumerate(sample.counts):
                existing.counts[i] += count
            existing.total += sample.total
            existing.n += sample.n


def _merge_family(
    out: MetricsRegistry,
    family: Counter | Gauge | Histogram,
    extra: Mapping[str, str],
) -> None:
    if isinstance(family, Counter):
        _merge_counter(out, family, extra)
    elif isinstance(family, Gauge):
        _merge_gauge(out, family, extra)
    else:
        _merge_histogram(out, family, extra)


class FleetAggregator:
    """Per-host child observations plus the merge that rolls them up."""

    def __init__(self, slo: "SloTracker | None" = None) -> None:
        self.slo = slo
        """The tracker the cluster feeds host-labelled SLO samples to
        (children carry no feed of their own: the cluster sees kills
        and cluster sheds, which hosts cannot)."""
        self._hosts: dict[int, Observation] = {}

    def host_observation(self, hid: int) -> Observation:
        """The (lazily created) child observation for one host.

        Children carry only a tracer and a registry — no nested ``slo``
        or ``fleet`` — so a host can never recursively aggregate.
        """
        obs = self._hosts.get(hid)
        if obs is None:
            obs = Observation()
            self._hosts[hid] = obs
        return obs

    def host_tracer_items(self) -> list[tuple[int, Observation]]:
        """``(hid, child observation)`` pairs in host order."""
        return [(hid, self._hosts[hid]) for hid in sorted(self._hosts)]

    # -- the merge -------------------------------------------------------------

    def fleet_registry(
        self,
        *,
        cluster: "ClusterPlatform | None" = None,
        parent: MetricsRegistry | None = None,
    ) -> MetricsRegistry:
        """One registry for the whole fleet, deterministically ordered.

        Family order: computed ``toss_fleet_*`` rollups first, then the
        parent (cluster-scope) families sorted by name, then the union
        of per-host family names sorted by name — each host's samples
        re-labelled with ``host=<hid>``.  Within a family, sample order
        is the renderer's sorted-labelset order, so the exposition text
        is byte-stable.
        """
        out = MetricsRegistry()
        if cluster is not None:
            self._rollups(out, cluster)
        if parent is not None:
            for family in sorted(parent.families(), key=lambda f: f.name):
                _merge_family(out, family, {})
        names: set[str] = set()
        for obs in self._hosts.values():
            names.update(f.name for f in obs.metrics.families())
        for name in sorted(names):
            for hid in sorted(self._hosts):
                family = self._hosts[hid].metrics.get(name)
                if family is not None:
                    _merge_family(out, family, {"host": str(hid)})
        return out

    def _rollups(self, out: MetricsRegistry, cluster: "ClusterPlatform") -> None:
        out.gauge(
            "toss_fleet_availability",
            "Served fraction of requests the fleet was obliged to serve",
        ).set(cluster.availability())
        shed = out.counter(
            "toss_fleet_shed_total",
            "Requests shed, by ladder rung (cluster reason or host admission)",
        )
        for outcome in cluster.outcomes:
            if outcome.cluster_shed:
                shed.inc(rung=outcome.shed_reason)
            elif outcome.host_shed:
                shed.inc(rung="host-admission")
        if cluster.durability is not None:
            repairs = out.counter(
                "toss_fleet_repairs_total",
                "Durability repair-ladder resolutions, by rung",
            )
            summary = cluster.durability.summary()
            for rung, key in _REPAIR_RUNGS:
                repairs.inc(float(summary[key]), rung=rung)
