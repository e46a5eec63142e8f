"""Distributor permutation: bijectivity, inversion, balance."""

import numpy as np
import pytest

from slotarbiter import PermutationSpec


def column(spec, round_index):
    """Destination of every shard's bin in one round."""
    return [spec.permute(x, round_index) for x in range(spec.size)]


class TestPermute:
    def test_identity_params(self):
        spec = PermutationSpec(4)
        # A=1, B=0 is the identity; find a round that produces it or force one
        assert [(1 * x + 0) % 4 for x in range(4)] == [0, 1, 2, 3]
        a, b = spec.params(0)
        assert np.gcd(a, 4) == 1

    def test_affine_example_k4(self):
        # (3x + 1) mod 4 maps 0,1,2,3 -> 1,0,3,2
        assert [(3 * x + 1) % 4 for x in range(4)] == [1, 0, 3, 2]

    def test_every_column_is_bijection(self):
        for k in (1, 2, 4, 8, 16):
            spec = PermutationSpec(k)
            for i in range(512):
                assert sorted(column(spec, i)) == list(range(k))

    def test_non_power_of_two_sizes(self):
        for k in (3, 5, 6, 12):
            spec = PermutationSpec(k)
            for i in range(256):
                assert sorted(column(spec, i)) == list(range(k))

    def test_out_of_range_rejected(self):
        spec = PermutationSpec(4)
        with pytest.raises(ValueError):
            spec.permute(4, 0)
        with pytest.raises(ValueError):
            spec.invert(-1, 0)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec(0)


class TestInvert:
    def test_inverse_of_identity(self):
        spec = PermutationSpec(1)
        assert spec.invert(spec.permute(0, 7), 7) == 0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for k in (2, 4, 8, 16, 32):
            spec = PermutationSpec(k)
            for _ in range(2500):
                x = int(rng.integers(0, k))
                i = int(rng.integers(0, 100_000))
                assert spec.invert(spec.permute(x, i), i) == x

    def test_invert_column_is_permutation(self):
        spec = PermutationSpec(8)
        for i in range(200):
            assert sorted(spec.invert(y, i) for y in range(8)) == list(range(8))


class TestBalance:
    def test_pairing_counts_within_one(self):
        """Over R >= K rounds, each (shard, set) pairing count is ~R/K."""
        for k in (2, 4, 8, 16):
            spec = PermutationSpec(k)
            for rounds in (k, 2 * k, 5 * k, 5 * k + 3):
                counts = {(x, y): 0 for x in range(k) for y in range(k)}
                for i in range(rounds):
                    for x in range(k):
                        counts[(x, spec.permute(x, i))] += 1
                lo, hi = rounds // k, -(-rounds // k)
                assert all(lo - 1 <= c <= hi + 1 for c in counts.values()), (
                    f"K={k} R={rounds}: unbalanced {counts}"
                )
