"""Seeded random draws, stream-compatible with NumPy's default generator.

`Generator(seed)` draws what NumPy's `default_rng(seed)` draws, bit for
bit, for the calls scene synthesis makes: `random()`, `uniform(low,
high)`, `choice` of `range(n)` with or without replacement, and `choice`
of a sequence.

The bit generator is PCG64, XSL-RR output on a 128-bit LCG (M. O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms", 2014), seeded through NumPy's SeedSequence hash with a pool
of four 32-bit words. A double is the top 53 bits of one 64-bit draw.
Bounded integers use Lemire's multiply-and-reject method (D. Lemire,
"Fast Random Integer Generation in an Interval", 2019) on 32-bit
half-words; the spare upper half of a 64-bit draw is kept for the next
32-bit request, as NumPy keeps it, so the buffer persists across calls.
Populations hold at most 2**32 items.
"""

from __future__ import annotations

import math
from typing import Sequence, TypeVar

_T = TypeVar("_T")

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) for an int seed."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))

    words = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    # Little-endian pairs of 32-bit words make the 64-bit words.
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class Generator:
    """PCG64 with NumPy's `random`, `uniform` and `choice` draw sequences."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # One LCG step from state 0 gives `inc`; add the seed, step again.
        state = self._inc + (s_hi << 64 | s_lo)
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._spare: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        word = self._next64()
        self._spare = word >> 32
        return word & _M32

    def _bounded(self, top: int) -> int:
        """Uniform integer in [0, top] by Lemire's method."""
        if top == 0:
            return 0
        span = top + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - top) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return m >> 32

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self.random()

    def _shuffle(self, items: list[int], first: int) -> None:
        """Fisher-Yates over positions len-1 down to `first`."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def _sample(self, n: int, size: int) -> list[int]:
        """`size` distinct draws from range(n), 0 <= size <= n, in NumPy's order."""
        if n > 10000 and size > n // 50:  # NumPy shuffles the tail instead
            items = list(range(n))
            self._shuffle(items, max(n - size, 1))
            return items[n - size :]
        chosen: set[int] = set()
        items = []
        for j in range(n - size, n):  # Floyd's algorithm
            value = self._bounded(j)
            if value in chosen:
                value = j
            chosen.add(value)
            items.append(value)
        self._shuffle(items, 1)
        return items

    def choice(self, a: int | Sequence[_T], size: int | None = None, replace: bool = True):
        """Draws from range(a) for an int `a`, else from the sequence `a`.

        Returns one draw when size is None, else a list of `size` draws.
        """
        n = a if isinstance(a, int) else len(a)
        if n <= 0 and size != 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        if size is None:
            index = self._bounded(n - 1)
            return index if isinstance(a, int) else a[index]
        if replace:
            indices = [self._bounded(n - 1) for _ in range(size)]
        else:
            indices = self._sample(n, size)
        return indices if isinstance(a, int) else [a[i] for i in indices]
