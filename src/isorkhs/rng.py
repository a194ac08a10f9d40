"""Deterministic random streams with a portable, fully specified generator.

Everything in the package that needs randomness (the ``verify`` suites and
the acceptance battery) draws from SplitMix64 so that the exact sample
sequence can be reproduced from the seed alone, in any language:

* state update: ``s = (s + 0x9E3779B97F4A7C15) mod 2**64``
* output mix:   ``z = s; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9 (mod 2**64);
  z ^= z >> 27; z *= 0x94D049BB133111EB (mod 2**64); z ^= z >> 31``
* doubles take the top 53 bits: ``u = (z >> 11) * 2.0**-53`` in ``[0, 1)``
* bounded integers are ``z mod n`` (the modulo bias is irrelevant here and
  keeping the rule trivial makes it portable).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_DOUBLE = 2.0 ** -53


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """A double uniform in ``[lo, hi)``."""
        u = (self.next_u64() >> 11) * _TO_DOUBLE
        return lo + u * (hi - lo)

    def below(self, n: int) -> int:
        """An integer uniform in ``{0, ..., n-1}``."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n
