"""Vectorized batch primitives for the event kernel's hot paths.

The kernel's hot paths process *cohorts*: many telemetry samples per
completion (:class:`repro.sim.contention.EventScheduler`) and many
per-epoch reductions (the batch executor in :mod:`repro.sim.batchexec`).
This module holds the NumPy machinery those paths share.

Every helper here is **bit-identical** to the scalar code it replaces,
because ``np.add.accumulate`` is a sequential left fold (unlike
``np.add.reduce``/``reduceat``, which use pairwise summation and are
*not* reused here for floats): :func:`segment_fold_left` reproduces
``acc += x`` loops exactly, element by element, in segment order, and
:meth:`SampleBuffer.summarize` folds its time-weighted areas the same
way.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ConfigError
from ..memsim.bandwidth import RESOURCES

__all__ = ["segment_fold_left", "SampleBuffer"]


def segment_fold_left(
    values: npt.NDArray[np.float64], ptr: npt.NDArray[np.int64]
) -> npt.NDArray[np.float64]:
    """Per-segment left folds ``((0.0 + x0) + x1) + ...`` of float64.

    Bit-identical to running ``acc = 0.0; for x in segment: acc += x``
    per segment: iteration ``k`` adds every segment's ``k``-th element
    to that segment's accumulator with one vectorized ``+=`` — the same
    IEEE-754 additions the scalar loops perform, in the same order.
    Pairwise-summing reductions (``np.add.reduce``/``reduceat``) would
    *not* reproduce the scalar totals; this fold does.

    ``values`` may also be 2-D, ``(n, k)``: ``ptr`` then segments its
    rows, and every column is folded in the same pass (result
    ``(n_segments, k)``), each with exactly the additions a 1-D fold of
    that column performs.
    """
    n = ptr.size - 1
    acc = np.zeros((n, *values.shape[1:]), dtype=np.float64)
    if not values.size:
        return acc
    if n == 1:
        # ``np.add.accumulate`` is itself a sequential left fold; seeded
        # with the 0.0 row it performs the loop's additions exactly.
        seq = np.concatenate((acc, values[ptr[0] : ptr[1]]))
        out: npt.NDArray[np.float64] = np.add.accumulate(seq, axis=0)[-1:]
        return out
    lengths = ptr[1:] - ptr[:-1]
    alive = np.flatnonzero(lengths > 0)
    k = 0
    while alive.size:
        acc[alive] += values[ptr[alive] + k]
        k += 1
        alive = alive[lengths[alive] > k]
    return acc


class SampleBuffer:
    """Pre-sized structured-array buffer of utilization telemetry.

    Replaces per-sample dataclass churn on the replay path: one row per
    ``(event, resource)`` observation, materialized into the public
    :class:`~repro.sim.contention.UtilizationSample` tuple only when a
    caller actually reads it.  Rows are stored in emission order
    (event-major, resources in declaration order), matching the order
    the scalar loop appended samples.
    """

    _DTYPE = np.dtype(
        [("time_s", np.float64), ("rho", np.float64), ("inflation", np.float64)]
    )

    def __init__(self, n_events: int) -> None:
        if n_events < 0:
            raise ConfigError("cannot pre-size a negative event count")
        self._rows = np.zeros((n_events, len(RESOURCES)), dtype=self._DTYPE)
        self._n = 0

    def __len__(self) -> int:
        return self._n * len(RESOURCES)

    @property
    def n_events(self) -> int:
        """Events recorded so far (each carries one row per resource)."""
        return self._n

    def fill_events(
        self,
        times: npt.NDArray[np.float64],
        rhos: npt.NDArray[np.float64],
        inflations: npt.NDArray[np.float64],
    ) -> None:
        """Bulk-record ``len(times)`` events (rows ``(n_events, 5)``)."""
        n = times.size
        block = self._rows[self._n : self._n + n]
        block["time_s"] = times[:, None]
        block["rho"] = rhos
        block["inflation"] = inflations
        self._n += n

    def to_samples(self) -> tuple:
        """Materialize the public ``UtilizationSample`` tuple (lazily)."""
        from .contention import UtilizationSample

        rows = self._rows[: self._n]
        times = rows["time_s"]
        return tuple(
            UtilizationSample(
                time_s=float(times[i, j]),
                resource=RESOURCES[j],
                offered_rho=float(rows["rho"][i, j]),
                inflation=float(rows["inflation"][i, j]),
            )
            for i in range(self._n)
            for j in range(len(RESOURCES))
        )

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per-resource mean/peak summary, bit-identical to the scalar
        ``_summarize`` over :meth:`to_samples`.

        The time-weighted area is a left fold over consecutive samples of
        one resource; the products are computed elementwise (identical
        IEEE ops) and folded with the sequential ``np.add.accumulate``.
        """
        summary: dict[str, dict[str, float]] = {}
        rows = self._rows[: self._n]
        for j, name in enumerate(RESOURCES):
            if not self._n:
                summary[name] = {
                    "mean_rho": 0.0,
                    "peak_rho": 0.0,
                    "peak_inflation": 1.0,
                }
                continue
            t = rows["time_s"][:, j]
            rho = rows["rho"][:, j]
            infl = rows["inflation"][:, j]
            if self._n >= 2:
                terms = rho[:-1] * (t[1:] - t[:-1])
                area = float(np.add.accumulate(terms)[-1])
                span = float(t[-1] - t[0])
                mean = area / span if span > 0 else float(rho[-1])
            else:
                mean = float(rho[0])
            summary[name] = {
                "mean_rho": mean,
                "peak_rho": float(np.max(rho)),
                "peak_inflation": float(np.max(infl)),
            }
        return summary
