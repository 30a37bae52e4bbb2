"""The five benchmark workloads.

A workload is a ``setup(seed, scale)`` that builds the systems and
generates every input from the seed (untimed; it counts towards
``setup_s``), a ``body(state)`` that is the timed work, and a
``summarize(state, result)`` that turns the program's outputs into the
simulated metrics, a determinism digest, the correctness checks, and the
public counters the traced run reports.  The program under test only
ever receives the generated inputs; nothing in ``src/`` is changed.

``scale`` multiplies every size (request counts, burst concurrency,
functions swept); 1.0 is the size the benchmark is defined at and
``--quick`` runs 1/20 of it.  The sizes the scenarios were first drafted
at (2000 serve requests, C up to 1000, a 14-function fleet study, 4000
fleet requests) took 11-19 s and up to 2.7 GB per cold process; they are
shrunk here so that several cold processes fit in one measured run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from stats import percentile

# Open-loop request streams: arrivals are fixed in simulated time before
# serving starts, and latency is measured from each request's due
# arrival, so the generator can never run late.
SERVE_REQUESTS = 125
# A function that reaches TIERED stays warm in the 4096 MB keep-alive
# cache, which never fills at this size: its later requests are warm
# tiered starts, and serve_suite makes no tiered restore (the bursts and
# fleet_chaos_observed do).
KEEPALIVE_MB = 4096
SERVE_RATE_PER_S = 20.0
SUITE_ZIPF_S = 1.1
INPUT_MIX = (0.4, 0.3, 0.2, 0.1)
BATCH_EVERY = 4

# Two functions, not more: a cold three-function sweep at C=1000 was
# OOM-killed on an 8 GB host, and four functions at C<=500 peaked at
# 6.8 GB.
BURST_FUNCTIONS = ("pyaes", "json_load_dump")
BURST_LEVELS = (10, 30, 100)
BURST_INPUT = 3  # input IV, the Figure 9 input
WARM_SEEDS = 5

FLEET_REQUESTS = 360
FLEET_RATE_PER_S = 50.0
CRASHED_HOSTS = (0, 1)
CRASH_WINDOW = (0.25, 0.5)  # share of the stream's horizon

STREAM_TAGS = {"serve_suite": 1, "fleet_chaos_observed": 2, "burst": 3}


@dataclass(frozen=True)
class Summary:
    """What one run of a workload produced, in benchmark terms."""

    ops: int
    failed_ops: int
    sim: dict[str, float]
    samples: dict[str, int]
    """Sample count behind each percentile metric."""
    digest: str
    """sha256 over the canonicalised per-request outcomes."""
    checks: list[str]
    """Failed correctness checks (empty when every check passed)."""
    counts: dict[str, float]
    """Public counters of the run, for the traced run's layer metrics."""


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    setup: Callable[[int, float], Any]
    body: Callable[[Any], Any]
    summarize: Callable[[Any, Any], Summary]
    nominal_ops: Callable[[float], int]
    """Operations one run attempts, known without importing the program
    (a crashed run counts all of them as failed)."""


# -- input generation -----------------------------------------------------


def scaled(n: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(n * scale)))


def quotas(n: int, weights) -> list[int]:
    """Split ``n`` into integer counts proportional to ``weights``
    (largest remainder, ties to the earlier weight)."""
    total = float(sum(weights))
    exact = [n * w / total for w in weights]
    counts = [math.floor(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def request_stream(
    seed: int,
    tag: str,
    n: int,
    rate_per_s: float,
    names: list[str],
    weights,
    input_mix=INPUT_MIX,
) -> list[tuple[float, str, int, str]]:
    """``n`` open-loop Poisson requests ``(arrival_s, name, input, class)``.

    The function mix is an exact quota, and each function walks a fixed,
    evenly interleaved sequence of its input quota.  The seed decides how
    the functions interleave and when requests arrive.  So every seed asks
    each function for the same work in the same order (its TOSS lifecycle
    sees the same inputs), which keeps host metrics comparable across
    seeds.  Every ``BATCH_EVERY``-th request is batch class, the rest
    latency class.
    """
    rng = np.random.default_rng([seed, STREAM_TAGS[tag]])
    counts = quotas(n, weights)
    inputs = {
        name: interleave(quotas(count, input_mix))
        for name, count in zip(names, counts)
    }
    slots = np.repeat(np.arange(len(names)), counts)
    order = [names[i] for i in rng.permutation(slots)]
    arrivals = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))
    taken = dict.fromkeys(names, 0)
    stream = []
    for i, name in enumerate(order):
        stream.append((
            float(arrivals[i]),
            name,
            inputs[name][taken[name]],
            "batch" if i % BATCH_EVERY == BATCH_EVERY - 1 else "latency",
        ))
        taken[name] += 1
    return stream


def interleave(counts: list[int]) -> list[int]:
    """Indexes ``i`` repeated ``counts[i]`` times, spread evenly: copy
    ``m`` of ``i`` sits at ``(m + 0.5) / counts[i]`` of the sequence."""
    slots = [((m + 0.5) / k, i) for i, k in enumerate(counts) for m in range(k)]
    return [i for _, i in sorted(slots)]


def zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


# -- outcome helpers --------------------------------------------------------


def digest(rows) -> str:
    """sha256 of rows with every float written exactly (``float.hex``)."""

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return [exact(v) for v in value]
        return value

    text = json.dumps([exact(r) for r in rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bill_ok(bill) -> bool:
    """A tiered bill lies between 0 and the DRAM bill times the slowdown."""
    ceiling = bill.dram_cost * bill.slowdown
    return 0.0 <= bill.tiered_cost <= ceiling * (1.0 + 1e-9)


def served_metrics(rows, attempted: int, errors: int) -> tuple[dict, dict]:
    """Simulated metrics over served requests.

    ``rows`` holds ``(latency_s, setup_s, exec_s, t_dram_s, bill)`` per
    served request; ``errors`` counts shed and failed requests.
    """
    latency = [r[0] for r in rows]
    setup = [r[1] for r in rows]
    sim = {
        "sim_latency_p50_s": percentile(latency, 50),
        "sim_latency_p99_s": percentile(latency, 99),
        "sim_setup_p99_s": percentile(setup, 99),
        "sim_slowdown": float(np.mean([r[2] / r[3] for r in rows])),
        "sim_cost_vs_dram": (
            sum(r[4].tiered_cost for r in rows) / sum(r[4].dram_cost for r in rows)
        ),
        "error_rate": errors / attempted,
    }
    samples = {
        "sim_latency_p50_s": len(latency),
        "sim_latency_p99_s": len(latency),
        "sim_setup_p99_s": len(setup),
    }
    return sim, samples


def spans_finished(observations) -> int:
    return sum(len(obs.tracer.spans) for obs in observations)


# -- serve_suite ------------------------------------------------------------


def serve_setup(seed: int, scale: float):
    from repro.core.toss import TossConfig
    from repro.functions import SUITE
    from repro.platform import (
        KeepAliveCache,
        OverloadConfig,
        PrewarmPolicy,
        ServerlessPlatform,
    )

    platform = ServerlessPlatform(
        n_cores=8,
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        keepalive=KeepAliveCache(KEEPALIVE_MB),
        prewarm=PrewarmPolicy(),
        overload=OverloadConfig(
            max_queue_delay_s=1.0,
            slo_factor=10,
            breaker_failures=5,
            pressured_delay_s=0.2,
            degraded_delay_s=0.5,
            shedding_delay_s=1.0,
        ),
    )
    for function in SUITE:
        platform.deploy(function)
    names = [f.name for f in SUITE]
    requests = request_stream(
        seed,
        "serve_suite",
        scaled(SERVE_REQUESTS, scale, 20),
        SERVE_RATE_PER_S,
        names,
        zipf_weights(len(names), SUITE_ZIPF_S),
    )
    return {"platform": platform, "requests": requests}


def serve_body(state):
    return state["platform"].serve(state["requests"])


def serve_summarize(state, log) -> Summary:
    platform = state["platform"]
    n = len(state["requests"])
    shed = sum(1 for e in log if e.shed)
    failed = sum(1 for e in log if e.failed and not e.shed)
    served = [e for e in log if not e.shed and not e.failed]
    checks = []
    if len(log) != n or len(served) + shed + failed != n:
        checks.append(
            f"attempted {n} != served {len(served)} + shed {shed} "
            f"+ failed {failed} (log has {len(log)})"
        )
    bad_bills = sum(1 for e in served if not bill_ok(e.bill))
    if bad_bills:
        checks.append(f"{bad_bills} tiered bills outside [0, dram x slowdown]")
    functions = {name: dep.function for name, dep in platform.deployments.items()}
    rows = [
        (
            e.latency_s,
            e.setup_time_s,
            e.exec_time_s,
            functions[e.function].input_spec(e.input_index).t_dram_s,
            e.bill,
        )
        for e in served
    ]
    sim, samples = served_metrics(rows, n, shed + failed)
    sim["sim_slo_attainment"] = sum(1 for e in log if e.deadline_met) / n
    keepalive, prewarm = platform.keepalive, platform.prewarm
    return Summary(
        ops=n,
        failed_ops=failed,
        sim=sim,
        samples=samples,
        digest=digest(
            (
                e.function, e.input_index, e.request_class, e.arrival_s,
                e.start_s, e.finish_s, e.phase.value, e.setup_time_s,
                e.exec_time_s, e.bill.tiered_cost, e.bill.dram_cost,
                e.shed, e.shed_reason, e.failed, e.degraded, e.aborted,
            )
            for e in log
        ),
        checks=checks,
        counts={
            "keepalive_hits": keepalive.hits,
            "keepalive_lookups": keepalive.hits + keepalive.misses,
            "prewarm_hits": prewarm.hits,
            "prewarm_lookups": prewarm.hits + prewarm.misses,
        },
    )


# -- burst / burst_lz4_observed ---------------------------------------------


def _burst_setup(seed: int, scale: float, *, lz4: bool):
    from repro.baselines import DramBaseline, ReapSystem, TossSystem
    from repro.experiments.common import ALL_INPUTS, CONVERGENCE_WINDOW
    from repro.functions import get_function
    from repro.memsim.compressed import LZ4_POINT, compressed_memory_system
    from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
    from repro.obs import Observation
    from repro.platform import Scheduler

    memory = (
        compressed_memory_system((LZ4_POINT,)) if lz4 else DEFAULT_MEMORY_SYSTEM
    )
    levels = tuple(scaled(c, scale) for c in BURST_LEVELS)
    # One seed base per run: every system and level replays the same
    # invocation seeds, which is what lets the trace cache and the cohort
    # memo hit.
    seed_base = int(
        np.random.default_rng([seed, STREAM_TAGS["burst"]]).integers(2**20, 2**30)
    )
    systems = []
    warm = {}
    uncontended: list[list[float]] = []
    for name in BURST_FUNCTIONS:
        function = get_function(name)
        dram = DramBaseline(function, memory=memory)
        warm[name] = float(
            np.mean(
                [dram.invoke(BURST_INPUT, 10_000 + i).exec_time_s
                 for i in range(WARM_SEEDS)]
            )
        )
        for label, system in (
            ("toss", TossSystem(function, profiling_inputs=ALL_INPUTS,
                                convergence_window=CONVERGENCE_WINDOW,
                                memory=memory)),
            ("reap-best", ReapSystem(function, snapshot_input=3, memory=memory)),
            ("reap-worst", ReapSystem(function, snapshot_input=0, memory=memory)),
            ("dram", dram),
        ):
            _record_uncontended(system, uncontended)
            systems.append((name, label, system))
    return {
        "memory": memory,
        "levels": levels,
        "seed_base": seed_base,
        "systems": systems,
        "warm": warm,
        "uncontended": uncontended,
        "scheduler": Scheduler(n_cores=max(levels), memory=memory),
        "observation": Observation() if lz4 else None,
    }


def _record_uncontended(system, sink: list[list[float]]) -> None:
    """Keep each cohort's uncontended execution times for the
    contended >= uncontended check.  The class method is looked up per
    call, so a traced run still goes through the layer wrapper."""

    def invoke_batch(input_index, seeds):
        outcomes = type(system).invoke_batch(system, input_index, seeds)
        sink.append([o.exec_time_s for o in outcomes])
        return outcomes

    system.invoke_batch = invoke_batch


def burst_body(state):
    from repro.obs import perfetto_json, prometheus_text
    from repro.obs.runtime import observing

    def sweep():
        return [
            ((name, label, c), state["scheduler"].run_concurrent(
                system, BURST_INPUT, c, seed_base=state["seed_base"]))
            for name, label, system in state["systems"]
            for c in state["levels"]
        ]

    obs = state["observation"]
    if obs is None:
        return sweep(), None
    with observing(obs):
        results = sweep()
    return results, (perfetto_json(obs.tracer), prometheus_text(obs.metrics))


def burst_summarize(state, output) -> Summary:
    from repro.pricing.billing import bill_invocation

    results, exports = output
    systems = {(name, label): s for name, label, s in state["systems"]}
    checks = []
    top = max(state["levels"])
    rows = []
    digest_rows = []
    for ((name, label, c), result), uncontended in zip(
        results, state["uncontended"]
    ):
        times = result.exec_times_s
        if len(times) != c or len(result.setup_times_s) != c:
            checks.append(f"{name}/{label} C={c}: {len(times)} times returned")
        if not all(math.isfinite(t) and t > 0 for t in times):
            checks.append(f"{name}/{label} C={c}: non-finite execution time")
        if any(t < u for t, u in zip(times, uncontended)):
            checks.append(f"{name}/{label} C={c}: contended < uncontended")
        digest_rows.append((name, label, c, list(times), list(result.setup_times_s)))
        if label == "toss" and c == top:
            system = systems[(name, label)]
            memory = state["memory"]
            placement = system.tiered_snapshot.placement()
            fractions = [float(np.mean(placement == tid)) for tid in memory.tier_ids]
            for setup_s, exec_s in zip(result.setup_times_s, times):
                slowdown = max(1.0, exec_s / state["warm"][name])
                bill = bill_invocation(
                    guest_mb=system.function.guest_mb,
                    duration_s=exec_s,
                    slow_fraction=1.0 - fractions[0],
                    slowdown=slowdown,
                    memory=memory,
                    tier_fractions=fractions,
                )
                rows.append((setup_s + exec_s, setup_s, exec_s,
                             state["warm"][name], bill))
    bad_bills = sum(1 for r in rows if not bill_ok(r[4]))
    if bad_bills:
        checks.append(f"{bad_bills} tiered bills outside [0, dram x slowdown]")
    sim, samples = served_metrics(rows, len(rows), 0)
    counts = {}
    if exports is not None:
        digest_rows += [text_digest(text) for text in exports]
        counts["spans_finished"] = spans_finished([state["observation"]])
    ops = sum(c for (_, _, c), _ in results)
    return Summary(
        ops=ops,
        failed_ops=0,
        sim=sim,
        samples=samples,
        digest=digest(digest_rows),
        checks=checks,
        counts=counts,
    )


def burst_ops(scale: float) -> int:
    per_system = sum(scaled(c, scale) for c in BURST_LEVELS)
    return per_system * 4 * len(BURST_FUNCTIONS)


# -- prepare_fleet ----------------------------------------------------------

# The smallest Table I functions: the 1 GB guests take 1-4 s each to
# profile to convergence.
FLEET_STUDY_FUNCTIONS = 5
TCO_FUNCTIONS = ("pyaes",)
TCO_THRESHOLDS = (0.05, 0.15, 0.30)


def prepare_setup(seed: int, scale: float):
    from repro.experiments import fleet_study, tco_frontier
    from repro.functions import SUITE

    names = [f.name for f in SUITE]
    return {
        "seed": seed,
        "fleet_study": fleet_study,
        "tco_frontier": tco_frontier,
        "fleet_names": names[: scaled(FLEET_STUDY_FUNCTIONS, scale)],
        "tco_names": list(TCO_FUNCTIONS[: scaled(len(TCO_FUNCTIONS), scale)]),
        "thresholds": TCO_THRESHOLDS[: scaled(len(TCO_THRESHOLDS), scale, 2)],
    }


def prepare_body(state):
    fleet = state["fleet_study"].run(
        seed=state["seed"], function_names=state["fleet_names"]
    )
    tco = state["tco_frontier"].run(
        function_names=state["tco_names"],
        slowdown_thresholds=state["thresholds"],
    )
    return fleet, tco


def prepare_summarize(state, output) -> Summary:
    fleet, tco = output
    checks = []
    if tco.dram_only_cost != 1.0:
        checks.append(f"all-DRAM anchor {tco.dram_only_cost} != 1.0")
    if not tco.best_compressed_cost < tco.best_two_tier_cost:
        checks.append(
            f"best compressed {tco.best_compressed_cost} is not below "
            f"best two-tier {tco.best_two_tier_cost}"
        )
    if not 0.0 <= fleet.savings_fraction < 1.0:
        checks.append(f"fleet savings {fleet.savings_fraction} outside [0, 1)")
    if len(fleet.density) != len(state["fleet_names"]):
        checks.append("fleet study skipped functions")
    sim = {
        "sim_slowdown": float(np.mean([p.slowdown for p in tco.points])),
        "sim_cost_vs_dram": 1.0 - fleet.savings_fraction,
    }
    rows = [
        ("density", sorted(fleet.density.items())),
        ("savings", fleet.savings_fraction),
        ("makespan", fleet.timeline_makespan_s),
        *(
            (p.config, p.threshold, p.cost, p.slowdown, sorted(p.costs.items()))
            for p in tco.points
        ),
    ]
    return Summary(
        ops=len(fleet.density) + len(tco.points),
        failed_ops=0,
        sim=sim,
        samples={},
        digest=digest(rows),
        checks=checks,
        counts={},
    )


def prepare_ops(scale: float) -> int:
    n_tco = scaled(len(TCO_THRESHOLDS), scale, 2) * 4
    return scaled(FLEET_STUDY_FUNCTIONS, scale) + n_tco


# -- fleet_chaos_observed ---------------------------------------------------


def fleet_setup(seed: int, scale: float):
    from repro.cluster import FLEET_SUITE, ClusterConfig, ClusterPlatform
    from repro.core.toss import TossConfig
    from repro.durability import ScrubConfig
    from repro.faults.plan import BitRotSpec, FaultPlan, HostFaultSpec
    from repro.obs import FleetAggregator, Observation, SloConfig, SloTracker
    from repro.obs.slo import BurnWindow

    n = scaled(FLEET_REQUESTS, scale, 40)
    names = [f.name for f in FLEET_SUITE]
    requests = request_stream(
        seed, "fleet_chaos_observed", n, FLEET_RATE_PER_S, names,
        [1.0] * len(names), input_mix=(1.0, 1.0, 1.0, 1.0),
    )
    horizon = requests[-1][0]
    crash = (CRASH_WINDOW[0] * horizon, CRASH_WINDOW[1] * horizon)
    cluster = ClusterPlatform(
        ClusterConfig(n_hosts=4, replication_factor=2),
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        plan=FaultPlan(
            hosts=tuple(
                HostFaultSpec(host=h, crash_windows=(crash,))
                for h in CRASHED_HOSTS
            ),
            bitrot=BitRotSpec(
                ssd_rate_per_page_s=2e-5,
                pmem_rate_per_page_s=1e-5,
                latent_sector_rate_per_s=0.2,
                torn_write_rate=0.2,
            ),
        ),
        scrub=ScrubConfig(interval_s=1.0, ops_per_page=0.25),
    )
    cluster.deploy_fleet(list(FLEET_SUITE))
    tracker = SloTracker(
        SloConfig(
            name="availability",
            objective=0.99,
            windows=(
                BurnWindow(long_s=4.0, short_s=1.0, threshold=2.0,
                           severity="page"),
                BurnWindow(long_s=8.0, short_s=2.0, threshold=1.0,
                           severity="ticket"),
            ),
            min_samples=8,
        )
    )
    aggregator = FleetAggregator(tracker)
    return {
        "cluster": cluster,
        "requests": requests,
        "tracker": tracker,
        "aggregator": aggregator,
        "observation": Observation(slo=tracker, fleet=aggregator),
    }


def fleet_body(state):
    from repro.obs import perfetto_json, prometheus_text
    from repro.obs.runtime import observing

    cluster, aggregator = state["cluster"], state["aggregator"]
    with observing(state["observation"]):
        outcomes = cluster.serve(state["requests"])
    registry = aggregator.fleet_registry(
        cluster=cluster, parent=state["observation"].metrics
    )
    exports = [prometheus_text(registry)] + [
        perfetto_json(child.tracer, process_name=f"repro-host{hid}")
        for hid, child in aggregator.host_tracer_items()
    ]
    return outcomes, exports


def fleet_summarize(state, output) -> Summary:
    outcomes, exports = output
    cluster = state["cluster"]
    durability = cluster.durability
    n = len(state["requests"])
    served = [o for o in outcomes if o.served]
    host_shed = sum(1 for o in outcomes if o.host_shed)
    failed = sum(1 for o in outcomes if o.failed)
    cluster_shed = sum(1 for o in outcomes if o.cluster_shed)
    checks = []
    if len(outcomes) != n or len(served) + host_shed + failed + cluster_shed != n:
        checks.append(
            f"attempted {n} != served {len(served)} + shed {host_shed} + "
            f"failed {failed} + cluster-shed {cluster_shed}"
        )
    if cluster.unaccounted() != 0:
        checks.append(f"cluster.unaccounted() == {cluster.unaccounted()}")
    if durability.unaccounted() != 0:
        checks.append(f"durability.unaccounted() == {durability.unaccounted()}")
    bad_bills = sum(1 for o in served if not bill_ok(o.entry.bill))
    if bad_bills:
        checks.append(f"{bad_bills} tiered bills outside [0, dram x slowdown]")
    rows = [
        (
            o.latency_s,
            o.entry.setup_time_s,
            o.entry.exec_time_s,
            cluster.functions[o.function].input_spec(o.input_index).t_dram_s,
            o.entry.bill,
        )
        for o in served
    ]
    sim, samples = served_metrics(rows, n, host_shed + failed + cluster_shed)
    summary = durability.summary()
    observations = [state["observation"]] + [
        child for _, child in state["aggregator"].host_tracer_items()
    ]
    return Summary(
        ops=n,
        failed_ops=failed,
        sim=sim,
        samples=samples,
        digest=digest(
            [
                (
                    o.function, o.input_index, o.request_class, o.arrival_s,
                    o.host, o.attempts, o.redispatches, o.kills, o.backoff_s,
                    o.shed_reason, o.finish_s,
                    None if o.entry is None else (
                        o.entry.setup_time_s, o.entry.exec_time_s,
                        o.entry.shed, o.entry.failed,
                    ),
                )
                for o in outcomes
            ]
            + [sorted(summary.items())]
            + [text_digest(text) for text in exports]
        ),
        checks=checks,
        counts={
            "kills": cluster.total_kills(),
            "redispatches": cluster.total_redispatches,
            "scrub_chunks": summary["scrub_chunks"],
            "repairs": (
                summary["repaired_replica"]
                + summary["re_snapshot"]
                + summary["rebuilt_cold"]
            ),
            "unrecoverable": summary["unrecoverable"],
            "spans_finished": spans_finished(observations),
        },
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_suite",
            setup=serve_setup,
            body=serve_body,
            summarize=serve_summarize,
            nominal_ops=lambda scale: scaled(SERVE_REQUESTS, scale, 20),
        ),
        Workload(
            name="burst",
            setup=lambda seed, scale: _burst_setup(seed, scale, lz4=False),
            body=burst_body,
            summarize=burst_summarize,
            nominal_ops=burst_ops,
        ),
        Workload(
            name="burst_lz4_observed",
            setup=lambda seed, scale: _burst_setup(seed, scale, lz4=True),
            body=burst_body,
            summarize=burst_summarize,
            nominal_ops=burst_ops,
        ),
        Workload(
            name="prepare_fleet",
            setup=prepare_setup,
            body=prepare_body,
            summarize=prepare_summarize,
            nominal_ops=prepare_ops,
        ),
        Workload(
            name="fleet_chaos_observed",
            setup=fleet_setup,
            body=fleet_body,
            summarize=fleet_summarize,
            nominal_ops=lambda scale: scaled(FLEET_REQUESTS, scale, 40),
        ),
    )
}
