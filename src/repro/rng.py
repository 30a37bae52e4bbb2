"""Deterministic random-stream derivation.

Every stochastic component in the simulator derives its generator from a
root seed plus a string key, so that (a) results are reproducible bit-for-bit
and (b) independent components draw from independent streams regardless of
call order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .config import DEFAULT_SEED

__all__ = ["derive_seed", "stream", "spawn", "binomial"]


def derive_seed(root: int, *keys: object) -> int:
    """Derive a 64-bit child seed from ``root`` and a tuple of keys.

    Uses BLAKE2b over the textual representation, which keeps derivation
    stable across processes and Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for key in keys:
        h.update(b"\x1f")
        h.update(repr(key).encode())
    return int.from_bytes(h.digest(), "little")


def stream(root: int = DEFAULT_SEED, *keys: object) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for a key path."""
    return np.random.default_rng(derive_seed(root, *keys))


def spawn(rng: np.random.Generator, *keys: object) -> np.random.Generator:
    """Derive a child generator from an existing one plus extra keys."""
    root = int(rng.integers(0, 2**63 - 1))
    return stream(root, *keys)


# -- exact binomial thinning -------------------------------------------------
#
# NumPy's ``Generator.binomial`` draws by CDF inversion whenever
# ``min(p, 1-p) * n <= 30``: one ``next_double`` per nonzero count, read
# against ``exp(n * log1p(-p))`` and its recurrence, which its C loop
# recomputes every time the count changes from one element to the next.
# (NumPy 2 takes ``log1p(-p)``; ``exp(n * log(1 - p))`` differs from it by
# up to tens of ulps when p is small.)
# ``binomial`` below builds those CDF thresholds once per count and reads
# every draw from a (count, U-cell) table instead.

_BTPE_MEAN = 30.0
"""NumPy inverts while ``min(p, 1-p) * n`` is at most this; above it, BTPE
rejection draws a variable number of doubles."""

_CELLS = 4096
"""U cells per count row; a power of two, so scaling by it is exact."""

_MARGIN = 1e-12
"""A draw this close to a CDF threshold runs NumPy's literal loop: the
thresholds are float prefix sums, within ~1e-14 of the loop's running
differences."""

_AMBIGUOUS = 255
"""Table entry for a cell the table cannot decide alone: a threshold lies
in it (give or take ``_MARGIN``), or a draw there restarts NumPy's loop."""

_LOOP_DRAWS = 32
"""Ambiguous draws up to this many run NumPy's loop one by one; more are
first read off the prefix sums in one vector pass."""

_MIN_SIZE = 2048
"""Inputs with fewer counts always take ``rng.binomial``: what the table
could save on them is within timing noise."""

# When the table pays, in ns on a 2-vCPU x86-64 host (fitted to every Table
# I, extended and fleet function's thinning draws): NumPy's loop costs
# ~33 per nonzero count plus ~40 per change of count (its exp/log/sqrt
# setup); the table costs ~17 per count, ~450 per CDF threshold built and
# ~48,000 per call.
_NUMPY_NS_PER_DRAW = 33
_NUMPY_NS_PER_CHANGE = 40
_TABLE_NS_PER_COUNT = 17
_TABLE_NS_PER_THRESHOLD = 450
_TABLE_NS = 48_000

_MAX_ROWS = 512
"""Largest count the table is built for (2 MB of cells)."""

_CHUNK = 1 << 14
"""Counts per drawn block: bounds the temporaries and confines a fallback
to the block that needed it."""


class _InversionTable:
    """NumPy's inversion-sampler CDF for every count below ``size``.

    Row ``n`` of ``cells`` maps each of ``_CELLS`` equal U cells to the
    draw NumPy returns for count ``n`` there, or to ``_AMBIGUOUS``.
    """

    def __init__(self, size: int, p: float, q: float) -> None:
        self.p = p
        self.q = q
        self.qn: list[float] = [1.0]
        self.bound: list[int] = [0]
        self.sums: list[list[float]] = [[]]
        self._grid: tuple[np.ndarray, np.ndarray] | None = None
        logq = math.log1p(-p)
        last = _CELLS - 1
        # Row n holds x over the cells wholly between its widened prefix
        # sums x-1 and x (X > x iff U exceeds the x-th sum), then a
        # restart marker; the cells a widened sum touches are ambiguous.
        # Count 0 never draws, so its row is one marker run.
        values = [_AMBIGUOUS]
        runs = [_CELLS]
        marks: list[int] = []
        for n in range(1, size):
            # C's operation order, with libm's exp, log1p and sqrt (np.exp's
            # SIMD path may differ in the last ulp).
            mean = n * p
            bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
            px = math.exp(n * logq)
            self.qn.append(px)
            self.bound.append(bound)
            values.extend(range(bound + 1))
            values.append(_AMBIGUOUS)
            base = n * _CELLS
            t = px
            sums = [t]
            self.sums.append(sums)
            x = 0
            end = -1
            while True:
                hi = int((t + _MARGIN) * _CELLS)
                lo = int((t - _MARGIN) * _CELLS)
                if hi >= last:
                    # Every later sum, and the restart, is in the last cell.
                    runs.append(last - end)
                    runs.extend([0] * (bound + 1 - x))
                    marks.append(base + min(lo, last))
                    marks.append(base + last)
                    break
                runs.append(hi - end)
                end = hi
                marks.append(base + lo)
                marks.append(base + hi)
                x += 1
                if x > bound:
                    runs.append(last - end)
                    break
                px = ((n - x + 1) * p * px) / (x * q)
                t += px
                sums.append(t)
        self.cells = np.repeat(np.array(values, dtype=np.uint8), runs)
        self.cells[marks] = _AMBIGUOUS

    def draw(self, counts: np.ndarray, u: np.ndarray) -> np.ndarray | None:
        """X for each nonzero count and its uniform, or None on a restart."""
        at = (u * _CELLS).astype(np.intp)
        at += counts * _CELLS
        x = self.cells[at]
        amb = np.flatnonzero(x == _AMBIGUOUS)
        if amb.size > _LOOP_DRAWS:
            # Read X off the row's prefix sums; only draws near a sum, or
            # past the sums the row keeps, still need the loop.
            sums, kept = self.grid()
            n = counts[amb]
            ua = u[amb, None]
            t = sums[n]
            xa = (t < ua).sum(axis=1)
            x[amb] = xa
            amb = amb[(xa >= kept[n]) | (np.abs(t - ua) <= _MARGIN).any(axis=1)]
        for j, n, uj in zip(amb.tolist(), counts[amb].tolist(), u[amb].tolist()):
            exact = self._loop(n, uj)
            if exact is None:
                return None
            x[j] = exact
        return x

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's prefix sums padded with inf, and how many it keeps."""
        if self._grid is None:
            depth = max(map(len, self.sums))
            self._grid = (
                np.array([s + [math.inf] * (depth - len(s)) for s in self.sums]),
                np.array([len(s) for s in self.sums]),
            )
        return self._grid

    def _loop(self, n: int, u: float) -> int | None:
        """NumPy's inversion loop for one draw; None where it restarts."""
        p, q = self.p, self.q
        bound = self.bound[n]
        x = 0
        px = self.qn[n]
        while u > px:
            x += 1
            if x > bound:
                return None
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
        return x


def binomial(rng: np.random.Generator, counts: np.ndarray, p: float) -> np.ndarray:
    """Exactly ``rng.binomial(counts, p)``, leaving ``rng`` in the same state.

    Reproduces NumPy's inversion sampler for a 1-D integer ``counts`` and a
    scalar ``p``: one uniform per nonzero count, drawn as one
    ``rng.random`` block per chunk and read from a per-count CDF table
    built once per call (for ``p > 0.5`` on ``1 - p``, returning
    ``n - X``).  A chunk holding a count NumPy draws by BTPE
    (``min(p, 1-p) * n > 30``), or a draw NumPy's loop would restart, is
    handed to ``rng.binomial`` from the state it started in.  So is a
    chunk the table would not pay for (see the cost model above), and the
    whole input when it has fewer than ``_MIN_SIZE`` counts, none above
    one, or counts past ``_MAX_ROWS`` NumPy inverts; and anything
    ``rng.binomial`` would reject.
    """
    counts = np.asarray(counts)
    if (
        counts.ndim != 1
        or counts.dtype.kind != "i"
        or counts.size < _MIN_SIZE
        or np.ndim(p) != 0
        or not 0.0 < p <= 1.0
    ):
        return rng.binomial(counts, p)
    high = int(counts.max())
    if high <= 1 or counts.min() < 0:
        return rng.binomial(counts, p)
    p = float(p)
    flip = p > 0.5
    pp = 1.0 - p if flip else p
    inverted = high
    if pp * high > _BTPE_MEAN:
        inverted = int(_BTPE_MEAN / pp) + 1
        while pp * inverted > _BTPE_MEAN:
            inverted -= 1
    if inverted >= _MAX_ROWS:
        return rng.binomial(counts, p)
    mean = inverted * pp
    depth = min(inverted, mean + 10.0 * math.sqrt(mean * (1.0 - pp) + 1)) + 1
    table_ns = int(_TABLE_NS + _TABLE_NS_PER_THRESHOLD * (inverted + 1) * depth)
    out = np.empty(counts.size, dtype=np.int64)
    table: _InversionTable | None = None
    bitgen = rng.bit_generator
    for lo in range(0, counts.size, _CHUNK):
        chunk = counts[lo : lo + _CHUNK]
        dest = out[lo : lo + _CHUNK]
        if high > inverted and chunk.max() > inverted:
            dest[:] = rng.binomial(chunk, p)
            continue
        nonzero = chunk != 0
        n = chunk[nonzero]
        numpy_ns = (
            _NUMPY_NS_PER_DRAW * n.size
            + _NUMPY_NS_PER_CHANGE * np.count_nonzero(n[1:] != n[:-1])
        )
        # The chunk carries its share of a table not built yet.
        share = 0 if table is not None else table_ns * chunk.size // counts.size
        if numpy_ns < share + _TABLE_NS_PER_COUNT * chunk.size:
            dest[:] = rng.binomial(chunk, p)
            continue
        if table is None:
            table = _InversionTable(inverted + 1, pp, 1.0 - pp)
        saved = bitgen.state
        x = table.draw(n, rng.random(n.size))
        if x is None:
            bitgen.state = saved
            dest[:] = rng.binomial(chunk, p)
            continue
        dest[:] = 0
        dest[nonzero] = n - x if flip else x
    return out
