"""Vectorized segment folds for the batch executor's per-epoch reductions.

The batch executor (:mod:`repro.sim.batchexec`) reduces many epochs of
many traces at once.  :func:`segment_fold_left` is **bit-identical** to
the scalar ``acc += x`` loops it replaces, because it adds element by
element in segment order; ``np.add.accumulate`` is a sequential left
fold too, unlike ``np.add.reduce``/``reduceat``, which use pairwise
summation and are *not* used here for floats.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = ["segment_fold_left"]


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
