"""One cold run of one workload, in its own process.

Started by ``run.py`` (one child at a time); prints a single JSON record
on stdout.  The parent measures set-up time, peak RSS and CPU time from
outside; this process reports the timed body's wall time, the simulated
metrics, the determinism digest and the checks.  ``--mode traced`` adds
the per-layer metrics of :mod:`tracing`; ``--mode setup`` builds the
workload and exits where the body would start, a sample of set-up time
only.

    PYTHONPATH=src python3 bench/child.py serve_suite --seed 1
"""

from __future__ import annotations

import argparse
import json
import time

import tracing
from workloads import WORKLOADS


def _trace_cache():
    """The program's shared trace cache, if it still has one."""
    try:
        from repro.trace.cache import shared_trace_cache
    except ImportError:
        return None
    return shared_trace_cache()


MODES = ("plain", "setup", "traced")


def run(name: str, seed: int, scale: float, mode: str) -> dict:
    workload = WORKLOADS[name]
    state = workload.setup(seed, scale)
    if mode == "setup":
        return {"workload": name, "seed": seed, "scale": scale, "mode": mode,
                "body_start_monotonic": time.monotonic(),
                "ops": 0, "failed_ops": 0, "checks": []}
    trace = mode == "traced"
    cache = _trace_cache()
    hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
    recorder = installed = None
    if trace:
        recorder = tracing.Recorder()
        installed = tracing.install(recorder)
    body_start = time.monotonic()
    start = time.perf_counter()
    output = workload.body(state)
    wall_s = time.perf_counter() - start
    if installed is not None:
        installed.remove()
    summary = workload.summarize(state, output)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "body_start_monotonic": body_start,
        "wall_s": wall_s,
        "ops": summary.ops,
        "failed_ops": summary.failed_ops,
        "sim": summary.sim,
        "samples": summary.samples,
        "digest": summary.digest,
        "checks": summary.checks,
    }
    if recorder is not None:
        counts = dict(summary.counts)
        if cache is not None:
            counts["trace_cache_hits"] = cache.hits - hits0
            counts["trace_cache_lookups"] = (
                cache.hits - hits0 + cache.misses - misses0
            )
        record["layers"] = tracing.layer_metrics(recorder, counts, wall_s)
        record["missing_layers"] = installed.missing
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.scale, args.mode)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
