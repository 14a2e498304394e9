import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _reference import reference_increments
from hypothesis import given, strategies as st

from sfde_tem import _native, brownian
from sfde_tem.brownian import (
    IncrementStream,
    _block_sums,
    _CoarseningStream,
    _coarsen_in_place,
    coarsen,
    generate,
    ratio_as_int,
    sample_increments,
    total_increment,
)
from sfde_tem.errors import ConfigurationError
from sfde_tem.experiments import moment_estimate
from sfde_tem.model import builtin_example1
from sfde_tem.scheme import SchemeConfig


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=f"seed .* got {seed}"):
            generate(seed, 0, 1, 2.0**-5, 1.0)

    @pytest.mark.parametrize("seed, replica", [(1.5, 0), (1.0, 0), (1, 0.0), (np.float64(3.0), 2)])
    def test_key_that_is_not_an_integer_rejected(self, seed, replica):
        # a float key was truncated without a word: seed 1.5 gave seed 1's path
        with pytest.raises(ConfigurationError, match="seed and replica must be integers"):
            generate(seed, replica, 1, 0.25, 1.0)

    def test_numpy_integer_key_accepted(self):
        got = generate(np.uint64(2**64 - 1), np.int64(3), 1, 0.25, 1.0).increments
        assert got.tobytes() == generate(2**64 - 1, 3, 1, 0.25, 1.0).increments.tobytes()

    def test_float_seed_of_a_run_rejected(self):
        config = SchemeConfig(step=2.0**-4, horizon=0.25)
        with pytest.raises(ConfigurationError, match="seed and replica must be integers"):
            moment_estimate(builtin_example1(), config, 2.0, 100, seed=1.5)

    @pytest.mark.parametrize("dim_noise", [0, -1, 1.5, 2.0, True])
    def test_no_noise_dimension_rejected(self, dim_noise):
        expected = "at least 1" if type(dim_noise) is int else "an integer"
        with pytest.raises(ConfigurationError, match=f"dim_noise must be {expected}, got {dim_noise}"):
            generate(0, 0, dim_noise, 0.25, 1.0)

    def test_largest_seed_runs(self):
        assert generate(2**64 - 1, 0, 1, 2.0**-5, 1.0).increments.shape == (32, 1)

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

    @pytest.mark.parametrize("factor", [0, -2, 2.0, np.float64(1.0)])
    def test_factor_not_a_positive_integer_rejected(self, factor):
        with pytest.raises(ValueError, match=f"factor must be a positive integer, got {factor}"):
            coarsen(np.zeros((4, 1)), factor)

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

    @given(
        a=st.integers(0, 4),
        b=st.sampled_from([1, 3, 5, 7]),
        k=st.integers(1, 3),
        trailing=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_is_pairs_then_in_order(self, a, b, k, trailing, seed):
        x = np.random.default_rng(seed).normal(size=(k * 2**a * b, *trailing))
        out = coarsen(x, 2**a * b)
        assert np.array_equal(out, coarsen(coarsen(x, 2**a), b))
        if b == 1:
            pairs = x
            for _ in range(a):
                pairs = pairs[0::2] + pairs[1::2]
            assert np.array_equal(out, pairs)
        if a == 0:
            in_order = x[0::b]
            for i in range(1, b):
                in_order = in_order + x[i::b]
            assert np.array_equal(out, in_order)

    def test_total_is_whole_path_coarsening(self):
        rng = np.random.default_rng(8)
        for n in range(1, 65):
            x = rng.normal(size=(n, 2))
            assert np.array_equal(total_increment(x), coarsen(x, n)[0])


@pytest.fixture(params=["compiled", "numpy"])
def draws(request, monkeypatch):
    """Which draws fill a stream's blocks: the compiled library's, or numpy's, as after a failed build."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "kernels", lambda: None)
    elif _native.kernels() is None:
        pytest.fail("the compiled library did not build; see the RuntimeWarning")
    return request.param


class TestIncrementStream:
    @pytest.mark.usefixtures("draws")
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_rows_match_numpy(self, monkeypatch, dim, block):
        step, n_steps = 2.0**-6, 100  # 100 is not a multiple of 7 or 64: a short last block
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * block * 3 * dim)
        stream = IncrementStream(17, 5, 3, dim, step, n_steps)
        assert stream.block == block
        rows = np.concatenate([rows.copy() for rows in stream.blocks()])
        assert rows.shape == (n_steps, 3, dim)
        for i in range(3):
            assert rows[:, i].tobytes() == reference_increments(17, 5 + i, dim, step, n_steps).tobytes()

    def test_shape_nbytes_and_restart(self, monkeypatch):
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * 3 * 4 * 2)
        stream = IncrementStream(2, 0, 4, 2, 0.25, 10)
        assert stream.shape == (4, 10, 2)
        assert stream.nbytes == 3 * 4 * 2 * 8
        first = np.concatenate([rows.copy() for rows in stream.blocks()])
        again = np.concatenate([rows.copy() for rows in stream.blocks()])
        assert np.array_equal(first, again)

    @pytest.mark.parametrize("dim, block, stride", [(1, 512, 520), (2, 256, 520), (1, 511, 511), (2, 128, 256)])
    def test_stride_padded_by_a_cache_line_at_whole_pages(self, monkeypatch, dim, block, stride):
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * block * 5 * dim)
        stream = IncrementStream(0, 0, 5, dim, 0.25, 2 * block)
        assert (stream.block, stream.stride, stream.nbytes) == (block, stride, 8 * 5 * stride)

    @pytest.mark.parametrize("seed, first", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64 - 1)])
    def test_key_outside_64_bits_rejected(self, draws, seed, first):
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 2\^64\)"):
            next(IncrementStream(seed, first, 2, 1, 0.25, 8).blocks())


class TestSampleIncrements:
    # sample_increments, and so generate, draw through the stream's fill:
    # numpy's bits on both paths, at any length; sqrt(0.1) and sqrt(2^-7)
    # are inexact, so the scaling's rounding is compared too
    @pytest.mark.usefixtures("draws")
    @pytest.mark.parametrize("dim, count", [(1, 0), (2, 0), (1, 37), (2, 2**16 + 5)])
    def test_sample_increments_match_numpy(self, dim, count):
        seed, replica, step = 2**64 - 1, 2**32 + 3, 0.1
        got = sample_increments(seed, replica, dim, step, count)
        assert got.shape == (count, dim)
        assert got.tobytes() == reference_increments(seed, replica, dim, step, count).tobytes()

    @pytest.mark.usefixtures("draws")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_generate_matches_numpy(self, dim):
        step, n_steps = 2.0**-7, 163840
        grid = generate(21, 9, dim, step, n_steps * step)
        assert grid.increments.nbytes > brownian.STREAM_BYTES  # more than one stream block
        assert grid.increments.tobytes() == reference_increments(21, 9, dim, step, n_steps).tobytes()
        assert not grid.increments.flags.writeable


ZIGGURAT_R = 3.6541528853610088  # numpy's ziggurat draws a normal past this from its tail


class TestCompiledDraws:
    # the stream's draws against numpy's Generator, bit for bit; step 2^-6
    # scales by 2^-3 exactly, so the unscaled draws show
    @pytest.mark.parametrize(
        "seed, first, count, dim, n_steps, block, padded",
        [
            (2**64 - 1, 2**32 + 5, 16, 1, 2**17, 512, True),  # 4 KiB of draws per replica and block: padded
            (12345, 2**64 - 16, 16, 2, 2**16 + 37, 100, False),  # a short last block
        ],
        ids=["largest_seed_padded", "two_coordinates_short_block"],
    )
    @pytest.mark.usefixtures("draws")
    def test_blocks_match_numpy(self, monkeypatch, seed, first, count, dim, n_steps, block, padded):
        step, scale = 2.0**-6, 2.0**-3
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * block * count * dim)
        stream = IncrementStream(seed, first, count, dim, step, n_steps)
        assert stream.block == block
        assert (stream.stride == block * dim + 8) == padded
        expected = np.stack([reference_increments(seed, first + i, dim, step, n_steps) for i in range(count)], axis=1)
        assert expected.size >= 2**21
        assert np.count_nonzero(np.abs(expected / scale) > ZIGGURAT_R) > 0  # tail draws are compared too
        for _ in range(2):  # blocks() restarts every replica's stream
            rows = np.concatenate([rows.copy() for rows in stream.blocks()])
            assert rows.tobytes() == expected.tobytes()

    def test_state_written_back_across_a_counter_carry(self):
        # numpy's Philox at counter 2^192 - 3: the carry crosses three words
        # within the first blocks; calls of 1, 6 and 41 draws each leave a
        # partly used buffer that the next call reads
        kernels = _native.kernels()
        assert kernels is not None, "the compiled library did not build"
        counter = [2**64 - 3, 2**64 - 1, 2**64 - 1, 0]
        state = brownian._philox_states(7, 9, 1)
        state[0, :4] = counter
        reference = np.random.Philox(key=np.array([7, 9], dtype=np.uint64), counter=np.array(counter, np.uint64))
        generator = np.random.Generator(reference)
        for n in (1, 6, 41):
            out = np.empty(n)
            kernels["draw_normals"](1, state.ctypes.data, out.ctypes.data, n, n, 1.0)
            assert out.tobytes() == generator.standard_normal(n).tobytes()
            numpy_state = reference.state
            assert state[0, :4].tolist() == numpy_state["state"]["counter"].tolist()
            assert state[0, 6:10].tolist() == numpy_state["buffer"].tolist()
            assert state[0, 10] == numpy_state["buffer_pos"]


def _fresh(seed, replica):
    return np.random.Philox(key=np.array([seed, replica], dtype=np.uint64))


def _same_state(a, b):
    return (
        a["state"]["counter"].tolist() == b["state"]["counter"].tolist()
        and a["state"]["key"].tolist() == b["state"]["key"].tolist()
        and a["buffer"].tolist() == b["buffer"].tolist()
        and (a["buffer_pos"], a["has_uint32"], a["uinteger"]) == (b["buffer_pos"], b["has_uint32"], b["uinteger"])
    )


class TestGeneratorKeys:
    # generators are built from a seed sequence that hands Philox its key
    # words; each case checks them against new Philox(key=[seed, r]) objects
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * 5 * 4 * 2)  # blocks of 5 steps

    @staticmethod
    def _check_rows(stream, rows):
        count, n_steps, dim = stream.shape
        for i in range(count):
            expected = reference_increments(stream.seed, stream.first + i, dim, stream.step, n_steps)
            assert np.array_equal(rows[:, i], expected)

    @pytest.mark.parametrize("seed, first", [(0, 0), (9, 100), (2**63, 1), (2**64 - 1, 2**64 - 3)])
    def test_state_and_draws_of_new_bit_generators(self, seed, first):
        for i, bit in enumerate(brownian._bit_generators(seed, first, 3)):
            built, fresh = np.random.Generator(bit), np.random.Generator(_fresh(seed, first + i))
            assert _same_state(built.bit_generator.state, fresh.bit_generator.state)
            assert np.array_equal(built.standard_normal(103), fresh.standard_normal(103))
            assert _same_state(built.bit_generator.state, fresh.bit_generator.state)

    def test_after_a_finished_stream(self):
        first = IncrementStream(1, 0, 4, 2, 0.25, 12)
        for _ in first.blocks():
            pass
        second = IncrementStream(9, 100, 4, 2, 0.25, 12)
        self._check_rows(second, np.concatenate([rows.copy() for rows in second.blocks()]))

    def test_after_a_stream_closed_halfway(self):
        blocks = IncrementStream(3, 7, 4, 2, 0.25, 12).blocks()
        next(blocks)
        blocks.close()
        again = IncrementStream(3, 7, 4, 2, 0.25, 12)
        self._check_rows(again, np.concatenate([rows.copy() for rows in again.blocks()]))

    def test_two_streams_live_at_once(self):
        a, b = IncrementStream(5, 0, 4, 2, 0.25, 12), IncrementStream(6, 3, 4, 2, 0.25, 12)
        blocks_a, blocks_b = a.blocks(), b.blocks()
        got_a, got_b = [], []
        for rows_a in blocks_a:
            got_a.append(rows_a.copy())
            got_b.append(next(blocks_b).copy())
        assert next(blocks_b, None) is None
        self._check_rows(a, np.concatenate(got_a))
        self._check_rows(b, np.concatenate(got_b))

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        # the seed-sequence class is made on first use; loading numpy.random
        # with the package would cost every process about 6 MB
        src = str(Path(brownian.__file__).resolve().parents[1])
        code = "import sys, sfde_tem; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "args",
        [
            ["-c", "import sfde_tem; sfde_tem.generate(1, 0, 2, 2.0**-6, 2.0)"],
            ["-m", "sfde_tem", "simulate", "--model", "example2", "--steps", "6", "--horizon", "2"],
        ],
        ids=["generate", "simulate"],
    )
    def test_compiled_draws_leave_numpy_random_unloaded(self, tmp_path, args):
        # generate and the simulate command draw in C; -X importtime lists on
        # stderr every module the process imports
        assert _native.kernels() is not None, "the compiled library did not build"
        env = dict(os.environ, PYTHONPATH=str(Path(brownian.__file__).resolve().parents[1]))
        command = [sys.executable, "-X", "importtime", *args]
        out = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
        assert "the compiled steps are unavailable" not in out.stderr
        timed = [line for line in out.stderr.splitlines() if line.startswith("import time:")]
        imported = {line.rsplit("|", 1)[-1].strip() for line in timed}
        assert "sfde_tem.brownian" in imported
        assert "numpy.random" not in imported


@pytest.fixture(params=["compiled", "gcc_fails"])
def library(request, monkeypatch, tmp_path):
    """The compiled library, or none: a compiler that exits 1 and an empty cache, so numpy draws and sums."""
    _native.kernels.cache_clear()
    if request.param == "gcc_fails":
        monkeypatch.setattr(_native, "_COMPILER", "false")
        monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
        with pytest.warns(RuntimeWarning, match="the compiled steps are unavailable"):
            assert _native.kernels() is None
    elif _native.kernels() is None:
        pytest.fail("the compiled library did not build; see the RuntimeWarning")
    yield request.param
    _native.kernels.cache_clear()


def _check_levels_and_totals(monkeypatch, dim, n_steps, factors, sweep_bytes):
    """Run a coarsening stream of 3 replicas and check its fine rows, levels and totals against
    each whole path, byte for byte; return the stream."""
    seed, first, count, step = 5, 2, 3, 2.0**-7
    got = {f: [] for f in factors}
    levels = [(f, lambda rows, f=f: got[f].append(rows.copy())) for f in factors]
    monkeypatch.setattr(brownian, "SWEEP_BYTES", sweep_bytes)
    stream = _CoarseningStream(seed, first, count, dim, step, n_steps, levels)
    fine = np.stack([row.copy() for rows in stream.blocks() for row in rows])
    assert stream.totals.shape == (n_steps // stream.block, count, dim)
    for i in range(count):
        path = reference_increments(seed, first + i, dim, step, n_steps)
        assert fine[:, i].tobytes() == path.tobytes()
        for f, rows in got.items():
            assert np.concatenate(rows)[:, i].tobytes() == coarsen(path, f).tobytes()
        total = _block_sums(stream.totals[:, i], len(stream.totals), axis=0)[0]
        assert total.tobytes() == total_increment(path).tobytes()
    return stream


class TestCoarseningStream:
    @pytest.mark.parametrize("sweep_bytes, block", [(0, 8), (8 * 2 * 32 * 3 * 2 - 1, 32), (brownian.SWEEP_BYTES, 128)])
    def test_levels_and_totals_match_whole_paths(self, monkeypatch, sweep_bytes, block):
        # K = 128 fine steps, factors 2, 4 and 8: blocks of 8, 32 or all 128 steps
        assert _check_levels_and_totals(monkeypatch, 2, 128, (2, 4, 8), sweep_bytes).block == block

    @pytest.mark.usefixtures("library")
    @pytest.mark.parametrize(
        "dim, n_steps, factors, sweep_bytes, block, stride",
        [
            (2, 128, (2, 4, 8), 0, 8, 16),
            (2, 768, (4, 8, 256), brownian.SWEEP_BYTES, 256, 520),  # 4 KiB of rows per replica: padded
            (1, 1536, (16, 64, 128, 256, 512), brownian.SWEEP_BYTES, 512, 520),  # converge-ex1's factors
        ],
        ids=["blocks_of_8", "two_coordinates_padded", "one_coordinate_padded"],
    )
    def test_levels_and_totals_bit_for_bit_on_both_paths(
        self, monkeypatch, dim, n_steps, factors, sweep_bytes, block, stride
    ):
        # the compiled halving, or numpy's slabs when gcc fails; three or
        # more blocks each, so levels and totals cross blocks
        stream = _check_levels_and_totals(monkeypatch, dim, n_steps, factors, sweep_bytes)
        assert (stream.block, stream.stride) == (block, stride)

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


def _same_bits_but_nan_payloads(a, b):
    """Equal NaN positions, and every other float bit for bit.

    Which NaN a sum of two NaNs keeps is not fixed even in numpy:
    ``np.nan + -np.nan`` over a (3, 3, 2) block gives NaNs of both signs in
    one call.  Brownian increments are finite; the other bits are kept.
    """
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestHalveRows:
    # the compiled halving of a stream buffer against _block_sums; replica 0
    # holds inf and -inf in one pair of rows and NaN in its last row, replica
    # 1 only -0.0, replica 2 -0.0 and 0.0 in turn, replicas 3 and 4 one inf
    # and one -inf, so every level sums them and keeps NaN, infinities and -0.0
    @pytest.mark.parametrize("halvings", range(1, 10))
    @pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("dim", [1, 2, 3])  # 3: the loop for any other dim
    def test_matches_block_sums(self, dim, padded, halvings):
        kernels = _native.kernels()
        assert kernels is not None, "the compiled library did not build"
        count, rows = 6, 512
        stride = rows * dim + 8 * padded
        buf = np.random.default_rng(halvings).normal(size=(count, stride))
        view = buf[:, : rows * dim].reshape(count, rows, dim).transpose(1, 0, 2)
        view[:2, 0], view[-1, 0] = [[np.inf], [-np.inf]], np.nan
        view[:, 1] = -0.0
        view[1::2, 2] = 0.0
        view[0::2, 2] = -0.0
        view[5, 3], view[-1, 4] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):  # inf + -inf
            expected = _block_sums(view, 2**halvings, axis=0)
        assert np.isnan(expected).any() and np.isinf(expected).any() and np.signbit(expected[:, 1]).all()
        pad = buf[:, rows * dim :].copy()
        kernels["halve_rows"](count, buf.ctypes.data, stride, rows, dim, halvings)
        assert _same_bits_but_nan_payloads(view[: rows >> halvings], expected)
        assert buf[:, rows * dim :].tobytes() == pad.tobytes()  # the pad is not touched


class TestRatioAsInt:
    def test_exact(self):
        assert ratio_as_int(0.5, 2.0**-6) == 32

    def test_tolerant(self):
        assert ratio_as_int(1.0 + 1e-13, 0.25) == 4

    def test_rejects_fractional(self):
        with pytest.raises(ConfigurationError):
            ratio_as_int(1.0, 0.3)

    @pytest.mark.parametrize("numerator", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, numerator):
        with pytest.raises(ConfigurationError, match="horizon/step"):
            ratio_as_int(numerator, 0.25, "horizon/step")

    @pytest.mark.parametrize("denominator", [0.0, -0.0, 2.0**-1100])
    def test_rejects_zero_denominator(self, denominator):
        with pytest.raises(ConfigurationError, match="step/step_ref .* = inf is not a positive integer"):
            ratio_as_int(2.0**-5, denominator, "step/step_ref")
