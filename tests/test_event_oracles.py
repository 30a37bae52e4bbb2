"""The direct-loop scrub pass and timeline equal their event-loop oracles.

Every :class:`~repro.durability.scrub.ScrubReport` and
:class:`~repro.sim.contention.TimelineResult` field is compared against
the callback-chain versions in :mod:`event_oracles`, floats by
``float.hex``: the loops keep every float operation and its order, so
nothing may move, not even in the last bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import ChunkIndex, ScrubConfig, run_scrub_pass
from repro.memsim.bandwidth import ContentionModel, TierDemand
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.sim import EventScheduler, TimelineJob
from repro.vm.snapshot import SingleTierSnapshot

from event_oracles import loop_run_timeline, loop_scrub_pass

# -- scrub pass ----------------------------------------------------------------

COPY = st.tuples(
    st.integers(min_value=1, max_value=700),  # pages
    st.sampled_from([1, 7, 64, 100, 128, 256]),  # chunk pages
    st.lists(st.integers(min_value=0, max_value=699), max_size=4),  # damage
)

# Both regimes: an SSD fast enough that its one-second burst absorbs the
# whole pass, and one slow enough that chunk reads queue.
SSD_IOPS = st.one_of(
    st.floats(min_value=1e5, max_value=1e9),
    st.floats(min_value=20.0, max_value=2000.0),
)


def _copies(spec):
    copies = []
    for copy_id, (n_pages, chunk_pages, damage) in enumerate(spec):
        s = SingleTierSnapshot(
            n_pages=n_pages,
            page_versions=np.arange(n_pages, dtype=np.uint64),
            label=f"copy{copy_id}",
        )
        index = ChunkIndex.for_snapshot(s, chunk_pages)
        for page in damage:
            if page < n_pages:
                s.write_pages([page], s.read_pages([page]) + np.uint64(1))
        copies.append((3 * copy_id + 1, s, index))
    return copies


def _report_fields(report):
    return (
        report.started_s,
        report.finished_s.hex(),
        report.duration_s.hex(),
        report.copies_scanned,
        report.chunks_scanned,
        report.ops_consumed.hex(),
        report.queued_s.hex(),
        report.bad,
    )


class TestScrubPassOracle:
    @given(
        st.lists(COPY, min_size=1, max_size=6),
        st.floats(min_value=0.05, max_value=4.0),
        SSD_IOPS,
        st.floats(min_value=0.0, max_value=1e7),
    )
    @settings(max_examples=80, deadline=None)
    def test_pass_equals_event_loop_pass(self, spec, ops_per_page, ssd_iops, start_s):
        copies = _copies(spec)
        cfg = ScrubConfig(interval_s=1.0, ops_per_page=ops_per_page)
        report = run_scrub_pass(copies, cfg, ssd_iops=ssd_iops, start_s=start_s)
        oracle = loop_scrub_pass(copies, cfg, ssd_iops=ssd_iops, start_s=start_s)
        assert _report_fields(report) == _report_fields(oracle)

    def test_empty_pass_equals_event_loop_pass(self):
        cfg = ScrubConfig()
        report = run_scrub_pass([], cfg, ssd_iops=100.0, start_s=4.0)
        oracle = loop_scrub_pass([], cfg, ssd_iops=100.0, start_s=4.0)
        assert _report_fields(report) == _report_fields(oracle)
        assert report.finished_s == 4.0


# -- contention timeline -------------------------------------------------------

DEMAND = st.builds(
    TierDemand,
    cpu_time_s=st.floats(min_value=1e-4, max_value=0.3),
    slow_read_stall_s=st.floats(min_value=0.0, max_value=0.2),
    slow_read_ops=st.floats(min_value=0.0, max_value=1e6),
    ssd_stall_s=st.floats(min_value=0.0, max_value=0.3),
    ssd_ops=st.floats(min_value=0.0, max_value=3e5),
    uffd_stall_s=st.floats(min_value=0.0, max_value=0.1),
    uffd_ops=st.floats(min_value=0.0, max_value=1e5),
)

# Arrivals from a few values and labels from a few names, so tied
# arrivals (ordered by label, then input order) are common.
JOB = st.tuples(
    st.one_of(
        st.sampled_from([0.0, 0.05, 0.1]),
        st.floats(min_value=0.0, max_value=0.5),
    ),
    st.sampled_from(["", "a", "b"]),
    DEMAND,
)


def _model():
    return ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)


def _jobs(spec):
    return [TimelineJob(arrival, demand, label) for arrival, label, demand in spec]


def _result_fields(result):
    return (
        result.makespan_s.hex(),
        [
            (j.arrival_s, j.label, j.start_s.hex(), j.finish_s.hex())
            for j in result.jobs
        ],
        {
            r: {k: v.hex() for k, v in summary.items()}
            for r, summary in result.utilization.items()
        },
    )


def _assert_timeline_matches(spec):
    engine = EventScheduler(_model())
    result = engine.run_timeline(_jobs(spec))
    oracle = loop_run_timeline(_model(), _jobs(spec))
    assert _result_fields(result) == _result_fields(oracle)
    assert engine.utilization_summary() == oracle.utilization
    return result


class TestTimelineOracle:
    @given(st.lists(JOB, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_timeline_equals_event_loop_timeline(self, spec):
        _assert_timeline_matches(spec)

    @given(st.lists(JOB, min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_arrival_at_a_completion_instant(self, spec, data):
        """A job arriving exactly when another finishes runs first, as
        its lower sequence number made it on the event loop."""
        first = EventScheduler(_model()).run_timeline(_jobs(spec))
        done = data.draw(st.sampled_from([j.finish_s for j in first.jobs]))
        label = data.draw(st.sampled_from(["", "a", "z"]))
        demand = data.draw(DEMAND)
        result = _assert_timeline_matches(spec + [(done, label, demand)])
        assert any(j.start_s == done for j in result.jobs)
