import pytest

from matchlot import prng
from matchlot.prng import SplitMix64, batch_permutations

from oracles import SplitMix64Oracle

_MASK64 = (1 << 64) - 1


def _oracle_stream(seed: int, samples: int, n: int) -> list[list[int]]:
    rng = SplitMix64Oracle(seed)
    return [rng.permutation(n) for _ in range(samples)]


def _unshift(y: int, shift: int) -> int:
    """Invert ``x ^ (x >> shift)`` on 64-bit words."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _seed_whose_first_draw_is(u: int) -> int:
    """The seed whose first ``next_u64`` returns ``u`` (the mix is a bijection)."""
    z = _unshift(u, 31)
    z = (z * pow(prng._MIX2, -1, 1 << 64)) & _MASK64
    z = _unshift(z, 27)
    z = (z * pow(prng._MIX1, -1, 1 << 64)) & _MASK64
    z = _unshift(z, 30)
    return (z - prng._GAMMA) & _MASK64


class TestBatchPermutations:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 30, 50])
    @pytest.mark.parametrize("seed", [0, 1, 70000, 2**64 - 1])
    def test_rows_are_successive_scalar_permutations(self, monkeypatch, seed, n):
        # Blocks of 7 rows: 23 samples cross three block boundaries.
        monkeypatch.setattr(prng, "_BLOCK_ROWS", 7)
        for samples in (0, 1, 7, 23):
            perms = batch_permutations(seed, samples, n)
            assert perms.shape == (samples, n)
            assert perms.tolist() == _oracle_stream(seed, samples, n)

    def test_crosses_the_default_block_boundary(self):
        samples = prng._BLOCK_ROWS + 5
        perms = batch_permutations(70000, samples, 30)
        assert perms.tolist() == _oracle_stream(70000, samples, 30)

    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_transpose_is_c_contiguous(self, n):
        perms = batch_permutations(3, 40, n)
        assert perms.shape == (40, n)
        assert perms.T.flags.c_contiguous

    def test_rejected_draw_falls_back_to_the_scalar_stream(self):
        # 2**64 - 1 is the one draw randbelow(3) rejects, and a 3-shuffle
        # draws randbelow(3) first, so the scalar stream skips this draw.
        seed = _seed_whose_first_draw_is(_MASK64)
        assert SplitMix64(seed).next_u64() == _MASK64
        perms = batch_permutations(seed, 5, 3)
        assert perms.tolist() == _oracle_stream(seed, 5, 3)

    @pytest.mark.parametrize("block_rows, rejected_row", [(None, 0), (4, 5)])
    def test_fallback_fills_every_block(self, monkeypatch, block_rows, rejected_row):
        # Row r of a 3-shuffle reads output 2r + 1 with randbelow(3); shift
        # the seed so that this output is the rejected 2**64 - 1.  With 4-row
        # blocks, row 5 lies in the second block, after the first block's
        # swaps have already run.
        if block_rows is not None:
            monkeypatch.setattr(prng, "_BLOCK_ROWS", block_rows)
        samples = prng._BLOCK_ROWS + 5
        shift = 2 * rejected_row * prng._GAMMA
        seed = (_seed_whose_first_draw_is(_MASK64) - shift) & _MASK64
        rng = SplitMix64(seed)
        for _ in range(2 * rejected_row):
            rng.next_u64()
        assert rng.next_u64() == _MASK64
        perms = batch_permutations(seed, samples, 3)
        assert perms.T.flags.c_contiguous
        assert perms.tolist() == _oracle_stream(seed, samples, 3)


_REJECTED_SEED = _seed_whose_first_draw_is(_MASK64)


def _outputs_taken(oracle: SplitMix64Oracle, seed: int) -> int:
    return ((oracle.state - seed) * pow(prng._GAMMA, -1, 1 << 64)) & _MASK64


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 70000, 2**64 - 1, _REJECTED_SEED])
    def test_every_method_matches_the_oracle(self, seed):
        # Interleave the methods over more than three blocks of outputs, so
        # that draws straddle block boundaries mid-shuffle and mid-gauss.
        rng, oracle = SplitMix64(seed), SplitMix64Oracle(seed)
        step = 0
        while _outputs_taken(oracle, seed) < 3 * prng._DRAW_BLOCK:
            kind = step % 6
            if kind == 0:
                assert rng.next_u64() == oracle.next_u64()
            elif kind == 1:
                assert rng.random() == oracle.random()
            elif kind == 2:
                # Two calls: the second returns the cached sine variate.
                assert [rng.gauss(), rng.gauss()] == [oracle.gauss(), oracle.gauss()]
            elif kind == 3:
                for n in (3, 7, 2**63 + 1, 2**64):
                    assert rng.randbelow(n) == oracle.randbelow(n)
            elif kind == 4:
                items = list("abcdefghij")
                rng.shuffle(items)
                assert items == ["abcdefghij"[k] for k in oracle.permutation(10)]
            else:
                assert rng.permutation(step % 13) == oracle.permutation(step % 13)
            step += 1
        assert rng.next_u64() == oracle.next_u64()

    def test_rejected_draw_is_skipped(self):
        assert SplitMix64Oracle(_REJECTED_SEED).next_u64() == _MASK64
        rng, oracle = SplitMix64(_REJECTED_SEED), SplitMix64Oracle(_REJECTED_SEED)
        assert rng.randbelow(3) == oracle.randbelow(3)
        # randbelow(3) rejected the first draw, 2**64 - 1, and kept the second.
        assert _outputs_taken(oracle, _REJECTED_SEED) == 2
        assert rng.next_u64() == oracle.next_u64()

    def test_randbelow_two_to_the_64_returns_the_raw_draw(self):
        assert SplitMix64(5).randbelow(2**64) == SplitMix64Oracle(5).next_u64()
        assert SplitMix64(_REJECTED_SEED).randbelow(2**64) == _MASK64

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2**65])
    def test_randbelow_rejects_bounds_outside_one_to_two_to_the_64(self, n):
        with pytest.raises(ValueError, match="randbelow"):
            SplitMix64(5).randbelow(n)
