import numpy as np
import pytest

from sfde_tem import brownian
from sfde_tem.brownian import (
    IncrementStream,
    _block_sums,
    _CoarseningStream,
    _coarsen_in_place,
    _tree_total,
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
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * block * 3 * dim)
        stream = IncrementStream(17, 5, 3, dim, step, n_steps)
        assert stream.block == block
        rows = np.concatenate([rows.copy() for rows in stream.blocks()])
        assert rows.shape == (n_steps, 3, dim)
        for i in range(3):
            assert np.array_equal(rows[:, i], sample_increments(17, 5 + i, dim, step, n_steps))

    def test_shape_nbytes_and_restart(self, monkeypatch):
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * 3 * 4 * 2)
        stream = IncrementStream(2, 0, 4, 2, 0.25, 10)
        assert stream.shape == (4, 10, 2)
        assert stream.nbytes == 3 * 4 * 2 * 8
        first = np.concatenate([rows.copy() for rows in stream.blocks()])
        again = np.concatenate([rows.copy() for rows in stream.blocks()])
        assert np.array_equal(first, again)


class TestCoarseningStream:
    @pytest.mark.parametrize("sweep_bytes, block", [(0, 8), (8 * 2 * 32 * 3 * 2 - 1, 32), (brownian.SWEEP_BYTES, 128)])
    def test_levels_and_totals_match_whole_paths(self, monkeypatch, sweep_bytes, block):
        # K = 128 fine steps, factors 2, 4 and 8: blocks of 8, 32 or all 128 steps
        seed, first, count, dim, step, n_steps = 5, 2, 3, 2, 2.0**-7, 128
        got = {f: [] for f in (2, 4, 8)}
        levels = [(f, lambda rows, f=f: got[f].append(rows.copy())) for f in (2, 4, 8)]
        monkeypatch.setattr(brownian, "SWEEP_BYTES", sweep_bytes)
        stream = _CoarseningStream(seed, first, count, dim, step, n_steps, levels)
        assert stream.block == block
        fine = np.stack([row.copy() for rows in stream.blocks() for row in rows])
        assert stream.totals.shape == (n_steps // block, count, dim)
        for i in range(count):
            path = sample_increments(seed, first + i, dim, step, n_steps)
            assert np.array_equal(fine[:, i], path)
            for f, rows in got.items():
                assert np.array_equal(np.concatenate(rows)[:, i], coarsen(path, f))
            assert np.array_equal(_tree_total(stream.totals[:, i], axis=0), total_increment(path))

    @pytest.mark.parametrize("factor", [2, 4, 16])
    def test_in_place_sums_across_slabs(self, factor):
        # 2048 replicas: slabs of 2^16 floats hold 8 coarse rows at factor 4,
        # so 80 fine rows take several slabs, the last one short
        rows = np.random.default_rng(3).normal(size=(80, 2048, 1))
        expected = _block_sums(rows, factor, axis=0)
        out = _coarsen_in_place(rows, factor)
        assert out.shape == expected.shape
        assert np.shares_memory(out, rows)
        assert np.array_equal(out, expected)


class TestRatioAsInt:
    def test_exact(self):
        assert ratio_as_int(0.5, 2.0**-6) == 32

    def test_tolerant(self):
        assert ratio_as_int(1.0 + 1e-13, 0.25) == 4

    def test_rejects_fractional(self):
        with pytest.raises(ConfigurationError):
            ratio_as_int(1.0, 0.3)
