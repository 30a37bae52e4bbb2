"""Controller and platform milestones, read back from a tracer.

A milestone is a tracer event named ``telemetry/<kind>``; a cluster
host's platform milestones carry the host's span prefix in front
(``host3/telemetry/<kind>``).  A controller milestone lands on the span
open when it happens, or as an orphan instant when none is.  A platform
milestone fires between requests, so it lands as an orphan instant whose
attrs add ``function``, ``invocation`` and, for the kinds the serve
timeline stamps, ``at_s``.
"""

from __future__ import annotations

from repro.core.telemetry import EventKind
from repro.obs import Observation
from repro.obs.runtime import observing
from repro.obs.spans import SpanEvent, Tracer


def kind_of(name: str) -> EventKind | None:
    """The milestone an event name records, or ``None`` for any other."""
    prefix, sep, value = name.rpartition("telemetry/")
    if not sep or (prefix and not prefix.endswith("/")):
        return None
    return EventKind(value)


def milestones(*tracers: Tracer, kind: EventKind | None = None) -> list[SpanEvent]:
    """The milestones of ``kind`` (of every kind by default) in ``tracers``.

    Per tracer, span events come in span close order, then the orphan
    instants in emission order.
    """
    out = []
    for tracer in tracers:
        events = [e for span in tracer.spans for e in span.events]
        for event in events + tracer.orphan_events:
            found = kind_of(event.name)
            if found is not None and (kind is None or found is kind):
                out.append(event)
    return out


def observe_calls(obj: object, method: str) -> Tracer:
    """Run every later ``obj.<method>(...)`` call under one observation of
    its own and return its tracer, so objects driven side by side keep
    separate milestones."""
    obs = Observation()
    call = getattr(obj, method)

    def observed(*args, **kwargs):
        with observing(obs):
            return call(*args, **kwargs)

    setattr(obj, method, observed)
    return obs.tracer
