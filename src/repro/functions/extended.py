"""Extended workload suite (beyond Table I).

Table I covers FunctionBench/SeBS; these additional models cover workload
classes the paper's introduction motivates but does not evaluate —
useful for the fleet-level studies and as templates for users modelling
their own functions.  Parameters follow the same conventions as
:mod:`repro.functions.suite`.
"""

from __future__ import annotations

from .base import FunctionModel, InputSpec
from ..trace.synth import Band

__all__ = ["EXTENDED_SUITE", "get_extended_function"]


def _inputs(labels, times, stalls, ws, var=None) -> tuple[InputSpec, ...]:
    var = var or (0.05, 0.04, 0.03, 0.03)
    return tuple(
        InputSpec(label=l, t_dram_s=t, stall_share=s, ws_fraction=w, variability=v)
        for l, t, s, w, v in zip(labels, times, stalls, ws, var, strict=True)
    )


VIDEO_TRANSCODE = FunctionModel(
    name="video_transcode",
    description="Transcode a short video clip",
    guest_mb=512,
    input_type="Clip",
    inputs=_inputs(
        ("5s/480p", "15s/480p", "15s/720p", "30s/1080p"),
        (0.6, 1.5, 3.2, 7.0),
        (0.020, 0.028, 0.035, 0.042),
        (0.20, 0.32, 0.45, 0.62),
    ),
    # Codec state is hot; frame buffers stream through once.
    bands=(Band(0.06, 0.60), Band(0.94, 0.40)),
    store_fraction=0.35,
)

THUMBNAIL = FunctionModel(
    name="thumbnail",
    description="Image thumbnail generation",
    guest_mb=128,
    input_type="Image",
    inputs=_inputs(
        ("100kB", "500kB", "2MB", "8MB"),
        (0.012, 0.03, 0.08, 0.22),
        (0.010, 0.015, 0.020, 0.026),
        (0.06, 0.12, 0.20, 0.32),
        (0.10, 0.08, 0.06, 0.05),
    ),
    bands=(Band(0.15, 0.55), Band(0.85, 0.45)),
    store_fraction=0.40,
)

DNA_ALIGNMENT = FunctionModel(
    name="dna_alignment",
    description="Sequence alignment against a reference",
    guest_mb=1024,
    input_type="Reads",
    inputs=_inputs(
        ("10k reads", "50k reads", "200k reads", "1M reads"),
        (0.5, 1.4, 3.5, 8.0),
        (0.10, 0.16, 0.24, 0.32),
        (0.35, 0.50, 0.65, 0.80),
    ),
    # Index lookups are random and intense over most of the reference.
    bands=(Band(0.45, 0.80), Band(0.55, 0.20)),
    random_fraction=0.5,
    store_fraction=0.05,
)

WEB_RENDER = FunctionModel(
    name="web_render",
    description="Server-side HTML rendering",
    guest_mb=256,
    input_type="Page",
    inputs=_inputs(
        ("landing", "listing", "dashboard", "report"),
        (0.008, 0.02, 0.05, 0.12),
        (0.006, 0.008, 0.011, 0.014),
        (0.05, 0.09, 0.14, 0.20),
        (0.10, 0.08, 0.06, 0.05),
    ),
    # Template/runtime head dominates; state tail barely touched.
    bands=(Band(0.20, 0.75), Band(0.80, 0.25)),
    store_fraction=0.25,
)

EXTENDED_SUITE: tuple[FunctionModel, ...] = (
    VIDEO_TRANSCODE,
    THUMBNAIL,
    DNA_ALIGNMENT,
    WEB_RENDER,
)
"""Additional workload models for fleet-level studies."""
