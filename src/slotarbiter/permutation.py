"""Invertible per-round shard permutation for the distributor.

Round ``i`` routes the bin from backlog shard ``x`` to alloc set
``y = (A*x + B) mod K``, with A and B derived from the round index and two
fixed large multiplier constants.  A is forced coprime to K so the map is a
bijection with a cheap modular inverse; the inverse distributor uses it to
return every bin to its origin shard.  For the usual power-of-two K the
derivation draws A uniformly from the odd residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Tuple

P1_DEFAULT = 2654435761
P2_DEFAULT = 40503


@dataclass(frozen=True)
class PermutationSpec:
    """Shard count plus the constants that seed each round's (A, B) pair."""

    size: int
    p1: int = P1_DEFAULT
    p2: int = P2_DEFAULT

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"permutation size must be >= 1, got {self.size}")
        if self.p1 < 1 or self.p2 < 1:
            raise ValueError("multiplier constants must be >= 1")

    def params(self, round_index: int) -> Tuple[int, int]:
        """The (A, B) pair for one round; gcd(A, size) == 1 always."""
        k = self.size
        if k == 1:
            return 1, 0
        b = (round_index * self.p2) % k
        if k & (k - 1) == 0:
            # power of two: any odd multiplier is coprime
            a = 2 * ((round_index * self.p1) % (k // 2)) + 1
            return a, b
        a = 1 + (round_index * self.p1) % (k - 1)
        while gcd(a, k) != 1:
            a = a % k + 1
        return a, b

    def permute(self, x: int, round_index: int) -> int:
        if not 0 <= x < self.size:
            raise ValueError(f"shard index {x} out of range [0, {self.size})")
        a, b = self.params(round_index)
        return (a * x + b) % self.size

    def invert(self, y: int, round_index: int) -> int:
        if not 0 <= y < self.size:
            raise ValueError(f"set index {y} out of range [0, {self.size})")
        if self.size == 1:
            return 0
        a, b = self.params(round_index)
        return (pow(a, -1, self.size) * (y - b)) % self.size
