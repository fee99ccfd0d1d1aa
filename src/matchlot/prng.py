"""Deterministic pseudo-randomness for sampling and data generation.

Everything stochastic in this package flows through SplitMix64 so that
results are reproducible across platforms and Python versions: the stream
is pure 64-bit integer arithmetic (no dependence on the stdlib Mersenne
Twister or on NumPy's bit generators).  Output ``k`` of a seed is the mix of
the state ``seed + k * GAMMA`` alone, so a block of outputs can be mixed at
once.  One NumPy ``uint64`` mix, :func:`_mix`, does that for both users:
:class:`SplitMix64` mixes ``_DRAW_BLOCK`` outputs at a time and serves them
one by one, and :func:`batch_permutations` mixes a block of shuffles'
draws.  The stream is the one a scalar mix of one output at a time gives,
so the orderings a sampler draws do not depend on which of the two drew
them.  :func:`batch_permutations` stores them position-major: the
transpose of its result is C-contiguous, one row per order position, which
is the layout the serial-dictatorship kernel reads.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK_ROWS = 1024  # permutations computed per block; bounds the uint64 draw buffers
_DRAW_BLOCK = 128  # outputs SplitMix64 mixes at a time


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's output mix of each state in ``z``, in place.

    ``scratch`` is a ``uint64`` array of the same shape.  Every operand is
    ``np.uint64`` and every product is array arithmetic, which wraps mod
    ``2**64`` without a warning; under NumPy 1.x promotion a ``uint64``
    array mixed with a signed integer would become ``float64``.
    """
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


# Output k of a block is the mix of the state before the block plus these.
_BLOCK_STEPS = np.arange(1, _DRAW_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_BLOCK_STRIDE = (_DRAW_BLOCK * _GAMMA) & _MASK64


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood's mixing constants).

    State advances by a fixed odd increment; each output is a finalised mix
    of the state.  Output ``k`` depends on ``seed + k * GAMMA`` alone, so the
    generator mixes ``_DRAW_BLOCK`` outputs at a time in NumPy and serves
    them in order; the stream is the same as one mixed a draw at a time.
    Integer draws use rejection sampling, so `randbelow` is exactly uniform,
    and `shuffle` is a backward Fisher-Yates walk.  The same seed therefore
    yields the same permutation stream everywhere.
    """

    __slots__ = ("_state", "_draws", "_spare_gauss")

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the state of the last output mixed
        self._draws = iter(())
        self._spare_gauss: float | None = None

    def _refill(self) -> None:
        z = _BLOCK_STEPS + np.uint64(self._state)
        _mix(z, np.empty_like(z))
        self._state = (self._state + _BLOCK_STRIDE) & _MASK64
        self._draws = iter(z.tolist())

    def next_u64(self) -> int:
        try:
            return next(self._draws)
        except StopIteration:
            self._refill()
            return next(self._draws)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection.

        ``n`` must lie in ``[1, 2**64]``: a larger bound has no acceptance
        region among 64-bit draws, so it raises ``ValueError``.
        """
        if not 1 <= n <= 1 << 64:
            raise ValueError("randbelow requires 1 <= n <= 2**64")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm

    def gauss(self) -> float:
        """Standard normal draw (Box-Muller, cached second variate)."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return z
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gauss = radius * math.sin(theta)
        return radius * math.cos(theta)


def batch_permutations(seed: int, samples: int, n: int) -> np.ndarray:
    """``samples`` successive ``SplitMix64(seed).permutation(n)`` results, one per row.

    The result has shape ``(samples, n)`` and is the transpose of a
    C-contiguous ``(n, samples)`` array, so each order position is one
    contiguous row of its ``.T``, which is how the SD kernel walks it.

    Output ``k`` of the generator is a mix of the state ``seed + k * GAMMA``
    alone, and a shuffle of ``n`` items takes ``n - 1`` draws unless one is
    rejected, so row ``r`` reads outputs ``r (n - 1) + 1 ... (r + 1)(n - 1)``.
    Those are computed a block of rows at a time, laid out ``(n - 1, rows)``
    and mixed in place.  Each Fisher-Yates step then swaps one contiguous
    position row of the block with one flat gather and scatter.  If any draw
    would have been rejected, which happens with probability below
    ``n**2 * 2**-64`` per row, the call falls back to the scalar generator,
    so the result is the scalar stream in every case.

    Every operand of the mix is ``np.uint64``: under NumPy 1.x promotion a
    ``uint64`` array mixed with a signed integer becomes ``float64``.
    """
    by_position = np.empty((n, samples), dtype=np.int32)
    by_position[:] = np.arange(n, dtype=np.int32)[:, None]
    draws_per_row = n - 1
    if draws_per_row < 1:
        return by_position.T
    # Draw t of a row is randbelow(n - t), which rejects any draw above its
    # limit, and swaps position n - 1 - t.
    bounds = np.arange(n, 1, -1, dtype=np.uint64)[:, None]
    limits = np.array(
        [((1 << 64) // b) * b - 1 for b in range(n, 1, -1)], dtype=np.uint64
    )[:, None]
    # The state of output r (n - 1) + t + 1 is the draw's own part
    # seed + (t + 1) * GAMMA plus the row's part r (n - 1) * GAMMA, mod 2**64.
    draw_states = np.arange(1, n, dtype=np.uint64)[:, None]
    draw_states *= np.uint64(_GAMMA)
    draw_states += np.uint64(seed & _MASK64)
    row_stride = np.uint64((draws_per_row * _GAMMA) & _MASK64)
    block_rows = min(_BLOCK_ROWS, samples)
    z_buffer = np.empty(draws_per_row * block_rows, dtype=np.uint64)
    scratch_buffer = np.empty_like(z_buffer)
    flat = by_position.reshape(-1)
    for start in range(0, samples, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, samples)
        rows = stop - start
        z = z_buffer[: draws_per_row * rows].reshape(draws_per_row, rows)
        scratch = scratch_buffer[: draws_per_row * rows].reshape(draws_per_row, rows)
        row_states = np.arange(start, stop, dtype=np.uint64)
        row_states *= row_stride
        np.add(draw_states, row_states, out=z)
        _mix(z, scratch)
        if (z > limits).any():
            rng = SplitMix64(seed)
            for r in range(samples):
                by_position[:, r] = rng.permutation(n)
            return by_position.T
        # Each pick j < n becomes the flat index of cell (j, column) of
        # by_position.
        picks = np.remainder(z, bounds, out=scratch).view(np.int64)
        picks *= samples
        picks += np.arange(start, stop, dtype=np.int64)
        for t, cells in enumerate(picks):
            row = by_position[n - 1 - t, start:stop]
            held = flat.take(cells)
            flat[cells] = row
            row[:] = held
    return by_position.T
