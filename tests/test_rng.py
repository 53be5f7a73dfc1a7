"""Both Philox4x64-10 loops (vectorized and compiled) against numpy's own Philox streams."""

import numpy as np
import pytest

from sparseloc import _rng
from sparseloc._rng import _WIDE_BLOCKS, site_uniform_batches, site_uniforms

SEEDS = [0, 1, 12345, 2**32 + 5, 2**63 - 1, 2**63, 2**63 + 11, 2**64 - 1]


def oracle(seed, indices, trials):
    """First `trials` values of each stream, one numpy Philox generator per site.

    The key is built as uint64 explicitly: a plain list holding a value of
    2^63 or more next to a smaller one converts through float64.
    """
    rows = [
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).random(trials)
        for i in indices
    ]
    return np.array(rows).reshape(len(indices), trials)


def random_indices(rng, n):
    return np.concatenate([[0, 1, 2**40 + 7, 2**63 - 1], rng.integers(0, 2**62, n)])


@pytest.fixture
def compiled_calls(monkeypatch):
    """Record the column range of every request the compiled loop draws."""
    calls = []
    draw = _rng._compiled_rows

    def spy(seed, indices, start, stop):
        calls.append((start, stop))
        return draw(seed, indices, start, stop)

    monkeypatch.setattr(_rng, "_compiled_rows", spy)
    return calls


class TestSiteUniforms:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy_philox(self, seed):
        rng = np.random.default_rng(seed % 1000)
        indices = random_indices(rng, 40)
        for trials in (1, 4, 11):
            assert np.array_equal(site_uniforms(seed, indices, trials), oracle(seed, indices, trials))

    def test_random_seeds_and_indices(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            seed = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
            indices = rng.integers(0, 2**62, int(rng.integers(1, 30)))
            trials = int(rng.integers(1, 13))
            assert np.array_equal(site_uniforms(seed, indices, trials), oracle(seed, indices, trials))

    @pytest.mark.parametrize("start", [1, 2, 3, 5, 6, 7, 9, 13])
    def test_column_windows_off_block_boundaries(self, start):
        seed, indices = 2**63 + 11, np.array([2**40 + 7, 3, 17])
        full = oracle(seed, indices, 20)
        for trials in (1, 2, 3, 4, 5, 7):
            window = site_uniforms(seed, indices, trials, start=start)
            assert np.array_equal(window, full[:, start : start + trials])
            single = site_uniforms(seed, indices[:1], trials, start=start)
            assert np.array_equal(single, full[:1, start : start + trials])

    def test_empty_indices_and_zero_trials(self):
        assert site_uniforms(3, np.array([], dtype=np.int64), 5).shape == (0, 5)
        assert site_uniforms(3, np.array([1, 2, 3]), 0).shape == (3, 0)
        assert site_uniforms(3, np.array([1, 2, 3]), 0, start=6).shape == (3, 0)

    def test_values_in_unit_interval(self):
        u = site_uniforms(99, np.arange(500), 8)
        assert u.dtype == np.float64
        assert np.all((u >= 0.0) & (u < 1.0))


class TestSiteUniformBatches:
    @pytest.mark.parametrize("batch", [1, 3, 256])
    def test_blocks_concatenate_to_full_matrix(self, batch):
        seed, indices, trials = 2**63 + 11, np.array([5, 2**40 + 7, 0, 9]), 601
        pairs = list(site_uniform_batches(seed, indices, trials, batch))
        assert [off for off, _ in pairs] == list(range(0, trials, batch))
        assert all(block.shape == (indices.size, min(batch, trials - off)) for off, block in pairs)
        full = np.concatenate([block for _, block in pairs], axis=1)
        assert np.array_equal(full, site_uniforms(seed, indices, trials))
        assert np.array_equal(full[:, :9], oracle(seed, indices, 9))

    def test_zero_trials_yields_nothing(self):
        assert list(site_uniform_batches(1, np.array([1, 2]), 0, 4)) == []

    def test_empty_indices(self):
        blocks = list(site_uniform_batches(1, np.array([], dtype=np.int64), 5, 2))
        assert [block.shape for _, block in blocks] == [(0, 2), (0, 2), (0, 1)]


class TestBothLoops:
    """Rows of at least _WIDE_BLOCKS counter blocks take the compiled loop."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("blocks", [_WIDE_BLOCKS - 1, _WIDE_BLOCKS, _WIDE_BLOCKS + 1])
    def test_widths_around_the_threshold(self, seed, blocks, compiled_calls):
        indices = random_indices(np.random.default_rng(seed % 1000), 6)
        trials = 4 * blocks
        assert np.array_equal(site_uniforms(seed, indices, trials), oracle(seed, indices, trials))
        assert len(compiled_calls) == (blocks >= _WIDE_BLOCKS)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [1, 2, 3, 5, 6, 7, 9, 13])
    def test_wide_rows_off_block_boundaries(self, seed, start, compiled_calls):
        indices = np.array([2**40 + 7, 3, 17, 2**63 - 1])
        full = oracle(seed, indices, 4 * _WIDE_BLOCKS + 20)
        # blocks spanned: exactly _WIDE_BLOCKS, then one more
        for trials in (4 * _WIDE_BLOCKS - 3, 4 * _WIDE_BLOCKS + 1):
            window = site_uniforms(seed, indices, trials, start=start)
            assert np.array_equal(window, full[:, start : start + trials])
        assert len(compiled_calls) == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batches_wide_then_narrow(self, seed, compiled_calls):
        # blocks of 270 columns start off block boundaries; the last has 30 columns
        indices, trials, batch = np.array([5, 2**40 + 7, 0, 9]), 3000, 270
        pairs = list(site_uniform_batches(seed, indices, trials, batch))
        full = np.concatenate([block for _, block in pairs], axis=1)
        assert np.array_equal(full, oracle(seed, indices, trials))
        assert compiled_calls == [(off, off + batch) for off, _ in pairs[:-1]]
