from types import SimpleNamespace

import pytest

import workloads
from repro.core.toss import Phase
from repro.functions import get_function
from repro.platform.server import RequestLogEntry
from repro.pricing.billing import TieredBill


def entry(arrival, *, shed=False, failed=False, tiered=1.0, dram=1.0):
    return RequestLogEntry(
        function="pyaes",
        input_index=1,
        arrival_s=arrival,
        start_s=arrival,
        finish_s=arrival + (0.0 if shed or failed else 0.02),
        phase=Phase.TIERED,
        setup_time_s=0.0 if shed or failed else 0.005,
        exec_time_s=0.0 if shed or failed else 0.015,
        bill=TieredBill(dram_cost=dram, tiered_cost=tiered,
                        slow_fraction=0.5, slowdown=1.25),
        shed=shed,
        failed=failed,
        deadline_s=arrival + 1.0,
    )


def serve_state(n_requests):
    counter = SimpleNamespace(hits=0, misses=0)
    platform = SimpleNamespace(
        deployments={"pyaes": SimpleNamespace(function=get_function("pyaes"))},
        keepalive=counter,
        prewarm=counter,
    )
    requests = [(0.1 * i, "pyaes", 1, "latency") for i in range(n_requests)]
    return {"platform": platform, "requests": requests}


def test_error_rate_counts_shed_and_failed_against_attempted():
    log = [entry(0.0), entry(0.1, shed=True), entry(0.2, failed=True),
           entry(0.3), entry(0.4, shed=True)]
    summary = workloads.serve_summarize(serve_state(5), log)
    assert summary.checks == []
    assert summary.ops == 5
    assert summary.failed_ops == 1
    assert summary.sim["error_rate"] == pytest.approx(3 / 5)
    # Shed and failed requests miss their deadline.
    assert summary.sim["sim_slo_attainment"] == pytest.approx(2 / 5)
    assert summary.samples["sim_latency_p99_s"] == 2


def test_a_lost_request_fails_the_conservation_check():
    log = [entry(0.0), entry(0.1, shed=True)]
    summary = workloads.serve_summarize(serve_state(3), log)
    assert any("attempted 3" in check for check in summary.checks)


def test_a_bill_above_dram_times_slowdown_fails_its_check():
    log = [entry(0.0), entry(0.1, tiered=2.0, dram=1.0)]
    summary = workloads.serve_summarize(serve_state(2), log)
    assert any("bills" in check for check in summary.checks)


def test_request_stream_is_seeded_and_has_exact_quotas():
    names = ["a", "b", "c"]
    weights = workloads.zipf_weights(3, 1.1)
    one = workloads.request_stream(1, "serve_suite", 100, 20.0, names, weights)
    assert one == workloads.request_stream(1, "serve_suite", 100, 20.0, names, weights)
    other = workloads.request_stream(2, "serve_suite", 100, 20.0, names, weights)
    assert one != other
    quota = workloads.quotas(100, weights)
    for stream in (one, other):
        assert [sum(1 for r in stream if r[1] == n) for n in names] == quota
        arrivals = [r[0] for r in stream]
        assert arrivals == sorted(arrivals) and arrivals[0] > 0
        assert sum(r[3] == "batch" for r in stream) == 25


def test_quotas_sum_and_follow_weights():
    assert workloads.quotas(10, (0.4, 0.3, 0.2, 0.1)) == [4, 3, 2, 1]
    assert workloads.quotas(3, (0.4, 0.3, 0.2, 0.1)) == [1, 1, 1, 0]
    assert sum(workloads.quotas(7, workloads.zipf_weights(10, 1.1))) == 7


def test_digest_is_exact_in_floats():
    assert workloads.digest([(1.0, "a")]) == workloads.digest([(1.0, "a")])
    assert workloads.digest([(1.0,)]) != workloads.digest([(1.0 + 2**-52,)])
