import numpy as np
import pytest

from sfde_tem import brownian
from sfde_tem.brownian import (
    IncrementStream,
    _block_sums,
    coarsen,
    generate,
    ratio_as_int,
    sample_increments,
    total_increment,
)
from sfde_tem.errors import ConfigurationError


class TestGenerate:
    def test_bit_exact_regeneration(self):
        a = generate(1234, 7, 2, 2.0**-8, 2.0)
        b = generate(1234, 7, 2, 2.0**-8, 2.0)
        assert np.array_equal(a.increments, b.increments)

    def test_shape_and_metadata(self):
        g = generate(0, 0, 2, 0.25, 3.0)
        assert g.increments.shape == (12, 2)
        assert g.dim_noise == 2

    def test_distinct_replicas_differ(self):
        a = generate(5, 0, 1, 0.5, 4.0)
        b = generate(5, 1, 1, 0.5, 4.0)
        assert not np.array_equal(a.increments, b.increments)

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            generate(0, 0, 1, 0.3, 1.0)

    def test_sample_moments(self):
        step = 2.0**-4
        draws = sample_increments(99, 3, 1, step, 10**6)[:, 0]
        assert abs(draws.mean()) < 4.0 * np.sqrt(step / 10**6)
        assert draws.var() == pytest.approx(step, rel=0.02)

    def test_replica_streams_uncorrelated(self):
        n = 10**5
        a = sample_increments(7, 0, 1, 1.0, n)[:, 0]
        b = sample_increments(7, 1, 1, 1.0, n)[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02


class TestCoarsen:
    def test_factor_one_identity(self):
        g = generate(2, 0, 1, 0.25, 2.0)
        assert np.array_equal(coarsen(g, 1), g.increments)

    def test_block_sums(self):
        inc = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = coarsen(inc, 2)
        assert np.array_equal(out, [[3.0], [7.0]])

    def test_non_divisible_rejected(self):
        inc = np.zeros((5, 1))
        with pytest.raises(ValueError):
            coarsen(inc, 2)

    def test_dyadic_telescoping_exact(self):
        g = generate(11, 4, 2, 2.0**-6, 1.0)
        direct = coarsen(g, 8)
        staged = coarsen(coarsen(coarsen(g, 2), 2), 2)
        assert np.array_equal(direct, staged)
        mixed = coarsen(coarsen(g, 4), 2)
        assert np.array_equal(direct, mixed)

    def test_total_matches_every_level(self):
        g = generate(21, 9, 1, 2.0**-6, 10.0)  # 640 = 2^7 * 5 increments
        base = total_increment(g.increments)
        for factor in (2, 4, 8, 16):
            assert np.array_equal(total_increment(coarsen(g, factor)), base)

    def test_non_power_factor_values(self):
        inc = np.arange(12.0).reshape(12, 1)
        out = coarsen(inc, 3)
        assert out[:, 0] == pytest.approx([3.0, 12.0, 21.0, 30.0])

    def test_batched_matches_single(self):
        a = sample_increments(3, 0, 2, 0.5, 16)
        b = sample_increments(3, 1, 2, 0.5, 16)
        stacked = _block_sums(np.stack([a, b]), 4, axis=1)
        assert np.array_equal(stacked[0], coarsen(a, 4))
        assert np.array_equal(stacked[1], coarsen(b, 4))


class TestIncrementStream:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_rows_match_sample_increments(self, monkeypatch, dim, block):
        step, n_steps = 2.0**-6, 100  # 100 is not a multiple of 7 or 64: a short last block
        monkeypatch.setattr(brownian, "STREAM_BLOCK", block)
        stream = IncrementStream(17, 5, 3, dim, step, n_steps)
        rows = np.stack([row.copy() for row in stream])
        assert rows.shape == (n_steps, 3, dim)
        for i in range(3):
            assert np.array_equal(rows[:, i], sample_increments(17, 5 + i, dim, step, n_steps))

    def test_shape_nbytes_and_restart(self, monkeypatch):
        monkeypatch.setattr(brownian, "STREAM_BLOCK", 3)
        stream = IncrementStream(2, 0, 4, 2, 0.25, 10)
        assert stream.shape == (4, 10, 2)
        assert stream.nbytes == 3 * 4 * 2 * 8
        first = np.stack([row.copy() for row in stream])
        again = np.stack([row.copy() for row in stream])
        assert np.array_equal(first, again)


class TestRatioAsInt:
    def test_exact(self):
        assert ratio_as_int(0.5, 2.0**-6) == 32

    def test_tolerant(self):
        assert ratio_as_int(1.0 + 1e-13, 0.25) == 4

    def test_rejects_fractional(self):
        with pytest.raises(ConfigurationError):
            ratio_as_int(1.0, 0.3)
