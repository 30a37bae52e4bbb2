"""Every input config field declares its domain, and the check enforces it.

The input classes are found by name: the dataclasses under ``repro``
whose name ends in Config, Spec, Plan, Policy or Window and that have a
scalar numeric field, plus :class:`~repro.functions.base.FunctionModel`,
which the name rule does not reach.  Every such field must declare a domain
(:mod:`repro.domains`); hypothesis then draws values outside it, which
must raise the class's error naming ``Class.field``, and values inside
it, which must not.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import domains
from repro.cluster import ClusterConfig
from repro.core.toss import TossConfig
from repro.durability.scrub import ScrubConfig
from repro.errors import AnalysisError, ConfigError, ProfilingError, ReproError
from repro.faults import (
    BitRotSpec,
    FaultPlan,
    HostFaultSpec,
    ProfilerFaultSpec,
    SnapshotFaultSpec,
    StorageFaultSpec,
)
from repro.functions import get_function
from repro.functions.base import FunctionModel, InputSpec
from repro.memsim.compressed import LZ4_POINT, compressed_tier
from repro.memsim.storage import OPTANE_SSD_SPEC, StorageSpec
from repro.memsim.tiers import DRAM_SPEC, TierSpec
from repro.obs.slo import BurnWindow, SloConfig
from repro.platform.overload import OverloadConfig
from repro.platform.prewarm import PrewarmPolicy
from repro.pricing.vendors import AWS_LAMBDA, VendorPlan
from repro.profiling.damon import DamonConfig

NAN, INF = math.nan, math.inf
SUFFIXES = ("Config", "Spec", "Plan", "Policy", "Window")
NUMERIC = {"int", "float"}


def _is_numeric(annotation: object) -> bool:
    """A scalar ``int``/``float`` field, ``| None`` included (not bool)."""
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", repr(annotation)
    )
    parts = {part.strip() for part in str(text).split("|")}
    return bool(parts & NUMERIC) and parts <= NUMERIC | {"None"}


def _input_classes() -> dict[str, type]:
    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and name.endswith(SUFFIXES)
                and any(_is_numeric(f.type) for f in dataclasses.fields(obj))
            ):
                found[name] = obj
    return found


INPUT_CLASSES = {**_input_classes(), "FunctionModel": FunctionModel}

EXAMPLES = {
    "TierSpec": DRAM_SPEC,
    "CompressedTierSpec": compressed_tier(LZ4_POINT),
    "StorageSpec": OPTANE_SSD_SPEC,
    "HostFaultSpec": HostFaultSpec(host=0),
    "InputSpec": InputSpec("N=1", t_dram_s=0.5, stall_share=0.1, ws_fraction=0.2),
    "BurnWindow": BurnWindow(long_s=60.0, short_s=5.0, threshold=2.0),
    "VendorPlan": AWS_LAMBDA,
    "FunctionModel": get_function("pyaes"),
}
"""A valid instance of each class with no default constructor."""

ERRORS: dict[str, type[ReproError]] = {
    "TossConfig": AnalysisError,
    "DamonConfig": ProfilingError,
}
"""Each class's error type where it is not ConfigError."""


def _example(name: str):
    return EXAMPLES[name] if name in EXAMPLES else INPUT_CLASSES[name]()


FIELDS = [
    (name, f.name)
    for name, cls in sorted(INPUT_CLASSES.items())
    for f in dataclasses.fields(cls)
    if _is_numeric(f.type)
]


def _domain(name: str, field: str):
    fields = {f.name: f for f in dataclasses.fields(INPUT_CLASSES[name])}
    return fields[field].metadata.get("domain")


def test_discovery_finds_the_twenty_input_classes():
    assert sorted(INPUT_CLASSES) == sorted(
        [
            "TossConfig", "ClusterConfig", "ScrubConfig", "DamonConfig",
            "OverloadConfig", "SloConfig", "StorageFaultSpec",
            "SnapshotFaultSpec", "ProfilerFaultSpec", "BitRotSpec",
            "HostFaultSpec", "FaultPlan", "TierSpec", "CompressedTierSpec",
            "StorageSpec", "InputSpec", "BurnWindow", "PrewarmPolicy",
            "VendorPlan", "FunctionModel",
        ]
    )


@pytest.mark.parametrize("name, field", FIELDS)
def test_every_numeric_field_declares_a_domain(name, field):
    assert isinstance(
        _domain(name, field),
        (domains.RealDomain, domains.CountDomain, domains.OptionalDomain),
    ), f"{name}.{field} declares no domain"


def _outside(domain) -> st.SearchStrategy:
    """Values outside ``domain`` (``None`` excluded: optional fields take it)."""
    if isinstance(domain, domains.OptionalDomain):
        return _outside(domain.inner)
    common = st.sampled_from([NAN, -INF, True, False, "1", np.float64(NAN)])
    if isinstance(domain, domains.CountDomain):
        below = st.integers(min_value=-(2**63), max_value=domain.least - 1)
        return st.one_of(common, st.just(INF), st.floats(), below, below.map(np.int64))
    parts = [common]
    if domain.hi_open:
        parts.append(st.just(INF))
    if domain.lo > -INF:
        parts.append(st.floats(max_value=domain.lo, exclude_max=not domain.lo_open))
    if domain.hi < INF:
        parts.append(st.floats(min_value=domain.hi, exclude_min=not domain.hi_open))
    return st.one_of(parts)


def _inside(domain) -> st.SearchStrategy:
    if isinstance(domain, domains.OptionalDomain):
        return st.none() | _inside(domain.inner)
    if isinstance(domain, domains.CountDomain):
        ints = st.integers(min_value=domain.least, max_value=domain.least + 10**6)
        return ints | ints.map(np.int64)
    reals = st.floats(
        min_value=None if domain.lo == -INF else domain.lo,
        max_value=None if domain.hi == INF else domain.hi,
        exclude_min=domain.lo_open and domain.lo > -INF,
        exclude_max=domain.hi_open and domain.hi < INF,
        allow_nan=False,
        allow_infinity=domain.hi == INF and not domain.hi_open,
    )
    return reals | reals.map(np.float64)


def _names_field(name: str, field: str, message: str) -> bool:
    return message.startswith(f"{name}.{field} must be ")


@pytest.mark.parametrize("name, field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_out_of_domain_value_raises_the_class_error(name, field, data):
    value = data.draw(_outside(_domain(name, field)), label=f"{name}.{field}")
    with pytest.raises(ReproError) as info:
        dataclasses.replace(_example(name), **{field: value})
    assert info.type is ERRORS.get(name, ConfigError)
    assert _names_field(name, field, str(info.value)), str(info.value)


@pytest.mark.parametrize("name, field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_in_domain_value_passes_the_field_check(name, field, data):
    value = data.draw(_inside(_domain(name, field)), label=f"{name}.{field}")
    try:
        dataclasses.replace(_example(name), **{field: value})
    except ReproError as exc:
        # A rule relating two fields may still reject the combination.
        assert not _names_field(name, field, str(exc)), str(exc)


# Values each class accepted before its fields declared domains.
ACCEPTED_BEFORE = [
    *[(FaultPlan, "seed", v) for v in (NAN, INF, -INF, -1, 1.5, True)],
    (ClusterConfig, "seed", -1),
    *[(HostFaultSpec, "host", v) for v in (1.5, True)],
    *[(TossConfig, "slowdown_threshold", v) for v in (NAN, -1, True)],
    *[
        (cls, field, v)
        for cls, field in (
            (SnapshotFaultSpec, "corrupt_pages"),
            (StorageFaultSpec, "max_retries"),
        )
        for v in (NAN, INF, 1.5)
    ],
    (StorageFaultSpec, "backoff_base_s", NAN),
    *[
        (StorageFaultSpec, field, v)
        for field in ("backoff_cap_s", "latency_spike_s")
        for v in (NAN, INF)
    ],
    *[
        (OverloadConfig, field, v)
        for field in (
            "max_queue_delay_s", "pressured_delay_s", "degraded_delay_s",
            "shedding_delay_s", "breaker_cooldown_s", "slo_factor",
        )
        for v in (NAN, INF)
    ],
    *[
        (OverloadConfig, field, v)
        for field in (
            "max_queue_depth", "max_function_depth", "breaker_failures",
            "fault_window",
        )
        for v in (NAN, INF, 1.5)
    ],
    *[(SloConfig, "min_samples", v) for v in (NAN, INF, 1.5)],
    (BurnWindow, "long_s", NAN),
    (BurnWindow, "threshold", INF),
    *[
        (PrewarmPolicy, field, v)
        for field in ("margin_s", "horizon_s")
        for v in (NAN, INF, -INF, -1)
    ],
    (FunctionModel, "histogram_noise", NAN),
    (FunctionModel, "jitter_pages", 1.5),
    (FunctionModel, "random_fraction", -0.5),
    (FunctionModel, "n_epochs", 2.5),
    (FunctionModel, "base_page_frac", 2.0),
    *[(DamonConfig, "min_region_pages", v) for v in (NAN, INF, 1.5)],
    (DamonConfig, "min_nr_regions", 1.5),
    (DamonConfig, "max_nr_regions", INF),
    (DamonConfig, "merge_threshold", INF),
    *[
        (TierSpec, field, NAN)
        for field in (
            "load_latency_s", "store_latency_s", "bandwidth_bps",
            "cost_per_mb", "read_ops_cap", "write_ops_cap",
        )
    ],
    *[
        (StorageSpec, field, NAN)
        for field in (
            "seq_read_bps", "random_read_iops",
        )
    ],
    *[
        (cls, field, True)
        for cls, field in (
            (StorageFaultSpec, "read_error_rate"),
            (StorageFaultSpec, "latency_spike_rate"),
            (SnapshotFaultSpec, "corruption_rate"),
            (ProfilerFaultSpec, "sample_loss_rate"),
            (BitRotSpec, "dram_rate_per_page_s"),
            (BitRotSpec, "torn_write_rate"),
            (ScrubConfig, "interval_s"),
            (ScrubConfig, "ops_per_page"),
            (DamonConfig, "sampling_interval_s"),
            (OverloadConfig, "delay_alpha"),
            (OverloadConfig, "breaker_cooldown_s"),
            (PrewarmPolicy, "margin_s"),
            (InputSpec, "t_dram_s"),
            (TierSpec, "load_latency_s"),
            (VendorPlan, "rate_per_mb_ms"),
        )
    ],
]


@pytest.mark.parametrize(
    "cls, field, value",
    ACCEPTED_BEFORE,
    ids=[f"{c.__name__}.{f}={v!r}" for c, f, v in ACCEPTED_BEFORE],
)
def test_value_accepted_before_is_rejected(cls, field, value):
    with pytest.raises(ERRORS.get(cls.__name__, ConfigError)) as info:
        dataclasses.replace(_example(cls.__name__), **{field: value})
    expected = rf"{cls.__name__}\.{field} must be .*, got {re.escape(repr(value))}"
    assert re.fullmatch(expected, str(info.value)), str(info.value)


def test_ops_caps_keep_infinity_as_never_binds():
    spec = dataclasses.replace(DRAM_SPEC, read_ops_cap=INF, write_ops_cap=INF)
    assert spec.read_ops_cap == spec.write_ops_cap == INF


def test_slowdown_budget_has_one_definition():
    from repro.core.analysis import SLOWDOWN_THRESHOLD, check_slowdown_threshold

    assert _domain("TossConfig", "slowdown_threshold") is SLOWDOWN_THRESHOLD
    for fine in (None, 0.0, 0.3, INF):
        check_slowdown_threshold(fine)
        TossConfig(slowdown_threshold=fine)
    for bad in (NAN, -0.5, True):
        with pytest.raises(AnalysisError, match="slowdown threshold"):
            check_slowdown_threshold(bad)
