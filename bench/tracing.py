"""Per-layer self time, measured from outside the program.

:func:`install` replaces each layer's public entry point (a module-level
function or a class method) with a timing wrapper.  All wrappers share one
stack: when a call returns, its duration is added to its caller's child
time, and its self time is its duration minus that child time.  The self
times of all layers therefore add up to the time spent inside wrapped
calls, and whatever the timed body spent outside them is unattributed.

A function is patched in every loaded ``repro`` module that binds it
(``tiered_restore`` is bound in ``repro.vm.restore``, ``repro.vm.vmm`` and
``repro.vm``), so calls through any import path are timed.  An entry point
that no longer exists is reported in ``missing`` and its metrics read 0;
it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS: tuple[tuple[str, str, str], ...] = (
    ("functions.trace", "repro.functions.base", "FunctionModel.trace"),
    ("vm.execute", "repro.vm.microvm", "MicroVM.execute"),
    ("vm.tiered_restore", "repro.vm.restore", "tiered_restore"),
    ("vm.lazy_restore", "repro.vm.restore", "lazy_restore"),
    ("vm.reap_restore", "repro.vm.restore", "reap_restore"),
    ("sim.execute_cohort", "repro.sim.batchexec", "execute_cohort"),
    ("sim.run_synchronized", "repro.sim.contention", "EventScheduler.run_synchronized"),
    ("sim.run_timeline", "repro.sim.contention", "EventScheduler.run_timeline"),
    ("baselines.invoke_batch", "repro.baselines.base", "ServerlessSystem.invoke_batch"),
    ("memsim.solve", "repro.memsim.bandwidth", "ContentionModel._solve"),
    ("profiling.damon", "repro.profiling.damon", "DamonProfiler.profile"),
    ("core.invoke", "repro.core.toss", "TossController.invoke"),
    ("core.analyze", "repro.core.analysis", "ProfilingAnalyzer.analyze"),
    ("core.spread_bins", "repro.core.tiering", "spread_bins_across_tiers"),
    ("multitier.analyze", "repro.multitier.analysis", "MultiTierAnalyzer.analyze"),
    ("platform.serve", "repro.platform.server", "ServerlessPlatform.serve"),
    ("cluster.serve", "repro.cluster.fleet", "ClusterPlatform.serve"),
    ("durability.scrub_pass", "repro.durability.scrub", "run_scrub_pass"),
    ("obs.perfetto_json", "repro.obs.export", "perfetto_json"),
    ("obs.prometheus_text", "repro.obs.export", "prometheus_text"),
)
"""``(layer, module, qualified name)`` of every timed entry point.
``ContentionModel._solve`` is the one door to the contention solver:
its public calls and the event scheduler both go through it."""


class Recorder:
    """Calls and self time per layer, plus the counters hooks add."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        """Open calls per layer, so a hook can ask what it is nested in."""
        self.wrapped_s = 0.0
        """Duration of outermost wrapped calls (the sum of all self times)."""
        self._stack: list[float] = []

    def wrap(self, layer: str, fn, hook=None):
        """``fn`` timed as ``layer``.  ``hook(recorder, args)`` runs before
        the call and may return a callable to run after it."""
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(self, args) if hook is not None else None
            stack.append(0.0)
            self.depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_s = stack.pop()
                self.depth[layer] -= 1
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - child_s
                if stack:
                    stack[-1] += elapsed
                else:
                    self.wrapped_s += elapsed
                if after is not None:
                    after()

        return wrapper


# -- hooks: counters measured where the work happens -------------------------


def _count_invoke_batch(rec: Recorder, args) -> None:
    rec.counts["batch_invocations"] += len(args[2])


def _count_cohort(rec: Recorder, args) -> None:
    rec.counts["cohort_invocations"] += len(args[1])
    if rec.depth["baselines.invoke_batch"]:
        rec.counts["batch_cohort_invocations"] += len(args[1])


def _count_scalar_execute(rec: Recorder, args) -> None:
    # invoke_batch that executes invocation by invocation has fallen back
    # to the scalar engine.
    if rec.depth["baselines.invoke_batch"]:
        rec.counts["batch_scalar_invocations"] += 1


def _count_solve_hits(rec: Recorder, args):
    model = args[0]
    before = model.solve_cache_hits

    def after() -> None:
        rec.counts["solve_cache_hits"] += model.solve_cache_hits - before

    return after


HOOKS = {
    "baselines.invoke_batch": _count_invoke_batch,
    "sim.execute_cohort": _count_cohort,
    "vm.execute": _count_scalar_execute,
    "memsim.solve": _count_solve_hits,
}


# -- installing --------------------------------------------------------------


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, original)`` or ``None`` when it is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if path else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Installation:
    """Wrappers in place; :meth:`remove` puts the originals back."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(
    recorder: Recorder, layers=LAYERS, package: str = "repro"
) -> Installation:
    """Wrap every layer entry point that exists."""
    installed = Installation()
    resolved = []
    for layer, module_name, qualname in layers:
        found = _resolve(module_name, qualname)
        if found is None:
            installed.missing.append(layer)
        else:
            resolved.append((layer, qualname, found))
    # Scan bindings only after every target module is imported, so names
    # re-exported by a package ``__init__`` are found too.
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for layer, qualname, (owner, attr, original) in resolved:
        wrapper = recorder.wrap(layer, original, HOOKS.get(layer))
        if "." in qualname:
            installed.patch(owner, attr, wrapper)
            continue
        for module in modules:
            if module.__dict__.get(attr) is original:
                installed.patch(module, attr, wrapper)
    return installed


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder, counts: dict[str, float], wall_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``counts`` holds the public counters the workload and the child read
    (trace cache, keep-alive, prewarm, cluster, durability, spans).
    """
    out: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        out[f"{layer}.calls"] = rec.calls[layer]
        out[f"{layer}.self_s"] = rec.self_s[layer]
    c = rec.counts
    batch = c["batch_invocations"]
    out["functions.trace_cache_hit_ratio"] = _ratio(
        counts.get("trace_cache_hits", 0), counts.get("trace_cache_lookups", 0)
    )
    out["sim.execute_cohort.invocations"] = c["cohort_invocations"]
    out["baselines.batch_fallback_frac"] = _ratio(
        c["batch_scalar_invocations"], batch
    )
    out["baselines.cohort_memo_hit_frac"] = _ratio(
        batch - c["batch_scalar_invocations"] - c["batch_cohort_invocations"],
        batch,
    )
    out["memsim.solve_cache_hit_ratio"] = _ratio(
        c["solve_cache_hits"], rec.calls["memsim.solve"]
    )
    out["platform.keepalive_hit_ratio"] = _ratio(
        counts.get("keepalive_hits", 0), counts.get("keepalive_lookups", 0)
    )
    out["platform.prewarm_hit_ratio"] = _ratio(
        counts.get("prewarm_hits", 0), counts.get("prewarm_lookups", 0)
    )
    for name in ("kills", "redispatches"):
        out[f"cluster.{name}"] = counts.get(name, 0)
    for name in ("scrub_chunks", "repairs", "unrecoverable"):
        out[f"durability.{name}"] = counts.get(name, 0)
    out["obs.spans_finished"] = counts.get("spans_finished", 0)
    out["process.unattributed_frac"] = 1.0 - _ratio(rec.wrapped_s, wall_s)
    return out
