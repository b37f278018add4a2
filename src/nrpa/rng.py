"""Deterministic 64-bit PRNG (splitmix64) used for every random choice in the pipeline.

The generator is fully specified here so that shuffles, splits and parameter
draws can be reproduced bit-for-bit by any implementation:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Uniform doubles take the top 53 bits of one output word, giving values in
[0, 1). Bounded integers use modulo reduction (the bias is < 2^-40 for any
bound below 2^24 and reproducibility, not uniformity, is what matters here).
"""

import math

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

# uniform() and shuffle() mix this many words at a time, so their uint64
# temporaries stay small whatever the number of words they draw
_UNIFORM_BLOCK = 1 << 16


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream seeded by one integer."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def next_float(self) -> float:
        # top 53 bits -> [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        return self.next_u64() % n

    def _words(self, n: int):
        """(offset, words) for the next n next_u64() outputs, _UNIFORM_BLOCK at
        a time, mixed in place in vectorized uint64 arithmetic.

        Every block is the same reused uint64 buffer, so a yielded block is
        only valid until the next one is drawn; the caller may overwrite it.
        """
        m = min(n, _UNIFORM_BLOCK)
        steps = np.uint64(_GAMMA) * np.arange(1, m + 1, dtype=np.uint64)  # wraps mod 2^64
        z, t = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64)
        for start in range(0, n, _UNIFORM_BLOCK):
            k = min(_UNIFORM_BLOCK, n - start)
            w, s = z[:k], t[:k]
            np.add(steps[:k], np.uint64(self.state), out=w)
            w ^= np.right_shift(w, np.uint64(30), out=s)
            w *= np.uint64(_MIX1)
            w ^= np.right_shift(w, np.uint64(27), out=s)
            w *= np.uint64(_MIX2)
            w ^= np.right_shift(w, np.uint64(31), out=s)
            self.state = (self.state + _GAMMA * k) & _MASK
            yield start, w

    def uniform(self, lo: float, hi: float, shape, out=None) -> np.ndarray:
        """Array of uniforms in [lo, hi) of `shape` (an int or a tuple),
        consuming one word per element: 0 and (0,) draw none, () draws one.

        Produces exactly the same stream as repeated next_float() calls, the
        words drawn in blocks by _words. With `out`, a writeable C-contiguous
        float64 array of `shape`, the values are written into it and it is
        returned; any other `out` raises ValueError before a word is drawn.
        """
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        if out is None:
            out = np.empty(shape)
        elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
                  and out.shape == shape and out.flags.c_contiguous
                  and out.flags.writeable):
            raise ValueError(f"out must be a writeable C-contiguous float64 array of "
                             f"shape {shape}")
        flat = out.reshape(-1)  # a view, as out is C-contiguous
        scale = hi - lo
        for start, z in self._words(math.prod(shape)):
            dst = flat[start:start + len(z)]
            np.multiply(np.right_shift(z, np.uint64(11), out=z), 1.0 / (1 << 53), out=dst)
            dst *= scale
            dst += lo
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, back to front: item i swaps with
        next_below(i + 1), the words drawn and reduced a block at a time."""
        i = len(items) - 1
        for _, z in self._words(max(i, 0)):
            for j in (z % np.arange(i + 1, i + 1 - len(z), -1, dtype=np.uint64)).tolist():
                items[i], items[j] = items[j], items[i]
                i -= 1

    def derive(self, tag: int) -> "SplitMix64":
        """Independent child stream; used to decouple init from shuffling."""
        return SplitMix64(_mix((self.state + _GAMMA * (tag + 1)) & _MASK))
