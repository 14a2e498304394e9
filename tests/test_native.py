"""The compiled steps (``_native``) against the numpy driver, bit for bit, and their build."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfde_tem import _native, scheme
from sfde_tem import model as model_module
from sfde_tem.brownian import sample_increments
from sfde_tem.errors import ConfigurationError, NumericalError
from sfde_tem.model import _ex1_drift, builtin_example1, builtin_example2, builtin_gbm_oracle
from sfde_tem.scheme import CLASSIC_EM, SchemeConfig, _Driver

SRC = Path(scheme.__file__).resolve().parents[1]


def _far_start(theta):
    return np.array([9.0])  # far outside the ball at every step tried here: the first steps clip


def _example2(far=False):
    """example2, or example2 started far outside its ball (radius about 1), with the builtin coefficients."""
    model = builtin_example2()
    if far:
        model = dataclasses.replace(model, initial_data=lambda theta: np.array([6.0, -6.0]))
    return model


def _increments(seed, batch, step, n_steps, layout, dim=1):
    """(K, B, d) rows: a transposed view of replica-major storage, as the stream hands them, or time-major rows,
    of which "coordinate_strided" keeps every other of 2d coordinates (C reads them through its coordinate
    stride) and "float32" casts to float32 (C steps a float64 copy)."""
    wide = 2 if layout == "coordinate_strided" else 1
    paths = np.stack([sample_increments(seed, r, wide * dim, step, n_steps) for r in range(batch)])
    if layout == "replica_major":
        return paths.transpose(1, 0, 2)
    rows = np.ascontiguousarray(paths.transpose(1, 0, 2))
    if layout == "coordinate_strided":
        return rows[..., ::2]
    return rows.astype(np.float32) if layout == "float32" else rows


@dataclasses.dataclass
class _Run:
    result: scheme.BatchResult
    blocks: list  # (k0, states, alive) of every observer call
    numpy_rows: int  # rows the numpy step took


def _drive(model, config, rows, block, compiled, observed=False):
    """Run a driver over ``rows`` in blocks; ``compiled=False`` hides the compiled steps, as a failed build does."""
    blocks, numpy_rows = [], []
    observe = (lambda k0, states, alive: blocks.append((k0, states.copy(), alive.copy()))) if observed else None
    advance_numpy = _Driver._advance_numpy

    def counted(driver, rows):
        numpy_rows.append(len(rows))
        return advance_numpy(driver, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Driver, "_advance_numpy", counted)
        if not compiled:
            mp.setattr(_native, "kernels", lambda: None)
        driver = _Driver(model, config, rows.shape[1], per_block=observe, replica_offset=5)
        assert (driver.compiled is not None) == compiled
        try:
            for start in range(0, len(rows), block):
                driver.advance(rows[start : start + block])
        finally:
            # a compiled driver steps every row in C, up to an error included
            assert not (compiled and numpy_rows), f"the numpy step took {sum(numpy_rows)} rows"
        return _Run(driver.result(), blocks, sum(numpy_rows))


def _same_bytes(a, b):
    ra, rb = a.result, b.result
    return (
        ra.terminal.tobytes() == rb.terminal.tobytes()
        and ra.truncation_hits.tobytes() == rb.truncation_hits.tobytes()
        and ra.diverged.tobytes() == rb.diverged.tobytes()
        and ra.initial_nodes.tobytes() == rb.initial_nodes.tobytes()
        and len(a.blocks) == len(b.blocks)
        and all(
            ka == kb and sa.tobytes() == sb.tobytes() and aa.tobytes() == ab.tobytes()
            for (ka, sa, aa), (kb, sb, ab) in zip(a.blocks, b.blocks)
        )
    )


@pytest.fixture
def kernels():
    found = _native.kernels()
    if found is None:
        pytest.fail("the compiled steps did not build; see the RuntimeWarning")
    return found


@pytest.mark.usefixtures("kernels")
class TestBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hist=st.integers(3, 64),
        horizon=st.sampled_from(["within", "one_past", "ends_on_resync", "two_resyncs"]),
        data=st.data(),
        batch=st.sampled_from([1, 2, 3, 7, 16, 33]),
        layout=st.sampled_from(["replica_major", "time_major", "coordinate_strided", "float32"]),
        far=st.booleans(),
        observed=st.booleans(),
    )
    def test_example1_matches_numpy_driver(self, seed, n_hist, horizon, data, batch, layout, far, observed):
        # steps 1/2N, dyadic (2^-3..2^-7) or not, where a fused multiply-add
        # would round differently; K <= N runs without a ring, K = N + 1 wraps
        # it once and resyncs once, K in {N, 2N, 3N} ends on a resync step,
        # which nothing reads, and K > 2N resyncs at least twice
        step = 0.5 / n_hist
        n_steps = {
            "within": data.draw(st.integers(1, n_hist)),
            "one_past": n_hist + 1,
            "ends_on_resync": data.draw(st.sampled_from([1, 2, 3])) * n_hist,
            "two_resyncs": data.draw(st.integers(2 * n_hist + 1, 4 * n_hist)),
        }[horizon]
        block = data.draw(st.integers(1, n_steps))
        model = builtin_example1(initial_data=_far_start if far else None)
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(seed, batch, step, n_steps, layout)
        c = _drive(model, config, rows, block, compiled=True, observed=observed)
        py = _drive(model, config, rows, block, compiled=False, observed=observed)
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        half=st.integers(2, 32),
        horizon=st.sampled_from(["no_ring", "box_ring", "one_past", "ends_on_resync", "two_resyncs"]),
        data=st.data(),
        batch=st.sampled_from([1, 3, 33]),
        layout=st.sampled_from(["replica_major", "time_major", "coordinate_strided", "float32"]),
        far=st.booleans(),
        observed=st.booleans(),
    )
    def test_example2_matches_numpy_driver(self, seed, half, horizon, data, batch, layout, far, observed):
        # N even in 4..64, the boxcar's support starting at node N/2: K <= N/2
        # keeps no ring, N/2 < K <= N a boxcar ring of K rows and no resync,
        # K = N + 1 wraps both rings, K in {N, 2N, 3N} ends on a resync step
        # and K > 2N resyncs at least twice; a far start clips in C
        n_hist = 2 * half
        step = 0.5 / n_hist
        n_steps = {
            "no_ring": data.draw(st.integers(1, half)),
            "box_ring": data.draw(st.integers(half + 1, n_hist)),
            "one_past": n_hist + 1,
            "ends_on_resync": data.draw(st.sampled_from([1, 2, 3])) * n_hist,
            "two_resyncs": data.draw(st.integers(2 * n_hist + 1, 4 * n_hist)),
        }[horizon]
        block = data.draw(st.integers(1, n_steps))
        model = _example2(far)
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(seed, batch, step, n_steps, layout, dim=2)
        c = _drive(model, config, rows, block, compiled=True, observed=observed)
        py = _drive(model, config, rows, block, compiled=False, observed=observed)
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0

    @pytest.mark.parametrize("exponent,n_steps", [(4, 8), (4, 40), (10, 700)])
    def test_clipped_rows_taken_by_c(self, exponent, n_steps):
        step = 2.0**-exponent
        model = builtin_example1(initial_data=_far_start)
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(11, 9, step, n_steps, "replica_major")
        c = _drive(model, config, rows, 64, compiled=True)
        py = _drive(model, config, rows, 64, compiled=False)
        assert py.result.truncation_hits.sum() > 0
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0

    def test_example2_clips_in_c(self):
        # stability-ex2's shape, cut to 200 steps of 40 replicas: many rows clip
        step, n_steps = 2.0**-6, 200
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(0, 40, step, n_steps, "replica_major", dim=2)
        c = _drive(_example2(), config, rows, 65, compiled=True, observed=True)
        py = _drive(_example2(), config, rows, 65, compiled=False, observed=True)
        assert py.result.truncation_hits.sum() > 0
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0

    @pytest.mark.parametrize("where", ["late", "first_row", "block_start", "after_clip"])
    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("example", [1, 2])
    @pytest.mark.parametrize("n_steps", [12, 40])
    def test_nan_increment_raises_the_same_error(self, example, n_steps, observed, where):
        # blocks of 5 rows: row 0 starts the run, row 10 the third block; a
        # row of 1e200 clips replica 4 just before its NaN
        step = 2.0**-4
        model = builtin_example1() if example == 1 else _example2()
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(4, 6, step, n_steps, "time_major", dim=example)
        nan_row = {"late": n_steps - 3, "first_row": 0, "block_start": 10, "after_clip": n_steps - 3}[where]
        if where == "after_clip":
            rows[nan_row - 1, 4, example - 1] = 1e200
        rows[nan_row, 4, example - 1] = np.nan
        contexts = []
        for compiled in (True, False):
            with pytest.raises(NumericalError) as info:
                _drive(model, config, rows, 5, compiled, observed=observed)
            contexts.append(info.value.context)
        assert contexts[0] == contexts[1]
        assert (contexts[0]["replica"], contexts[0]["step"]) == (5 + 4, nan_row + 1)
        if where == "after_clip":
            assert contexts[0]["head_norm"] == pytest.approx(contexts[0]["radius"])

    @pytest.mark.parametrize(
        "example,cells",
        [
            (1, [(11, 2, 0)]),
            (1, [(11, 2, 0), (11, 4, 0)]),
            (1, [(15, 2, 0), (16, 2, 0), (17, 1, 0)]),
            (2, [(11, 2, 0)]),
            (2, [(11, 2, 1)]),
            (2, [(11, 2, 0), (11, 2, 1)]),
            (2, [(11, 2, 0), (11, 3, 1)]),
            (2, [(15, 2, 1), (16, 2, 1)]),
        ],
        ids=[
            "ex1", "ex1_two_replicas", "ex1_consecutive_rows", "ex2_first", "ex2_second",
            "ex2_both_coordinates", "ex2_two_replicas", "ex2_consecutive_rows",
        ],
    )
    def test_overflowing_square_norm_clipped_in_c(self, example, cells):
        # an increment of 1e200 at (row, replica, coordinate) makes a finite
        # state whose squared norm overflows: C measures it on the scale of
        # its max|x| and puts it on the sphere, as clip_to_ball does; rows 15
        # and 16 straddle two blocks of 8
        step, n_steps = 2.0**-4, 30
        model = builtin_example1() if example == 1 else _example2()
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(7, 5, step, n_steps, "time_major", dim=example)
        for cell in cells:
            rows[cell] = 1e200
        c = _drive(model, config, rows, 8, compiled=True, observed=True)
        py = _drive(model, config, rows, 8, compiled=False, observed=True)
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0
        assert all(c.result.truncation_hits[replica] > 0 for _, replica, _ in cells)

    def test_huge_start_matches_numpy(self):
        # a start of 1e200, whose squared norm overflows, is put on the
        # sphere with the initial data; the steps from there keep their bits
        step, n_steps = 2.0**-4, 30
        model = builtin_example1(initial_data=lambda theta: np.array([1e200]))
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(3, 4, step, n_steps, "replica_major")
        c = _drive(model, config, rows, 7, compiled=True, observed=True)
        py = _drive(model, config, rows, 7, compiled=False, observed=True)
        assert _same_bytes(c, py)
        assert c.numpy_rows == 0


class TestRunLength:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("n_steps", [16, 21], ids=["K=N", "K>N"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_over"])
    def test_result_rejects_a_wrong_row_count(self, request, compiled, n_steps, extra):
        # N = 16: one row short of K or one row past it, on both paths, and
        # the count taken in the error
        if compiled:
            request.getfixturevalue("kernels")
        step = 2.0**-5
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(6, 4, step, n_steps + extra, "time_major")
        with pytest.raises(ConfigurationError, match=rf"took {n_steps + extra} of {n_steps} steps"):
            _drive(builtin_example1(), config, rows, 5, compiled)


@pytest.mark.usefixtures("kernels")
class TestOnlyQualifyingDrivers:
    @pytest.mark.parametrize(
        "model,variant,observed,compiled",
        [
            (builtin_example1(), CLASSIC_EM, False, False),
            (builtin_example1(), scheme.TRUNCATED_EM, True, True),
            (builtin_example2(), scheme.TRUNCATED_EM, False, True),
            (builtin_gbm_oracle(1.0, 0.5, 1.0), scheme.TRUNCATED_EM, False, False),
            (
                dataclasses.replace(builtin_example1(), drift=lambda seg: _ex1_drift(seg)),
                scheme.TRUNCATED_EM, False, False,
            ),
        ],
        ids=["classic", "observer", "example2", "gbm", "wrapped_drift"],
    )
    def test_builtin_truncated_drivers_compile(self, model, variant, observed, compiled):
        per_block = (lambda k0, states, alive: None) if observed else None
        config = SchemeConfig(step=2.0**-5, horizon=1.0, variant=variant)
        assert (_Driver(model, config, 3, per_block=per_block).compiled is not None) == compiled

    @pytest.mark.parametrize(
        "make,name",
        [(builtin_example1, "_EX1_LEBESGUE"), (builtin_example2, "_EX2_BOX"), (builtin_example2, "_EX2_LEBESGUE")],
        ids=["example1", "example2_box", "example2_lebesgue"],
    )
    def test_weights_without_structure_keep_numpy(self, monkeypatch, make, name):
        # a weight the window integrates by full quadrature has no C path
        monkeypatch.setattr(model_module, name, dataclasses.replace(getattr(model_module, name), kind=None))
        config = SchemeConfig(step=2.0**-5, horizon=1.0)
        assert _Driver(make(), config, 3).compiled is None


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """A loader that has not run in this process, with its cache in ``tmp_path``."""
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    _native.kernels.cache_clear()
    yield tmp_path
    _native.kernels.cache_clear()


class TestBuild:
    @pytest.mark.parametrize("compiler", ["sfde-tem-no-such-compiler", "false"], ids=["missing", "fails"])
    def test_failed_build_warns_once_and_keeps_the_bits(self, fresh_build, monkeypatch, compiler):
        monkeypatch.setattr(_native, "_COMPILER", compiler)
        step, n_steps = 2.0**-4, 40
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(2, 5, step, n_steps, "replica_major")
        model = builtin_example1(initial_data=_far_start)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [_Driver(model, config, 5) for _ in range(2)]
            results.append(_Driver(_example2(), config, 5))
            for driver in results:
                assert driver.compiled is None
            for driver in results[:2]:
                driver.advance(rows)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert compiler in str(caught[0].message) and "numpy" in str(caught[0].message)
        assert list(fresh_build.iterdir()) == []  # no partial library left behind
        expected = _drive(model, config, rows, n_steps, compiled=False)
        assert all(_same_bytes(_Run(driver.result(), [], 0), expected) for driver in results[:2])

    def test_library_from_other_source_never_loaded(self, kernels, fresh_build, monkeypatch, tmp_path_factory):
        def rows_taken(found):  # no rows: C reads no pointer
            return [found[name](0, 1, None, 1, 1, 1, 0, 1, 1, 0.1, 1.0, 1.0, None, *[None] * 4) for name in sorted(found)]

        source = _native._SOURCE
        assert rows_taken(_native.kernels()) == [0, 0]
        other = tmp_path_factory.mktemp("other") / "other.c"
        other.write_text(
            "#include <stdint.h>\nint64_t ex1_steps(void) { return -7; }\nint64_t ex2_steps(void) { return -8; }\n"
        )
        monkeypatch.setattr(_native, "_SOURCE", other)
        _native.kernels.cache_clear()
        assert rows_taken(_native.kernels()) == [-7, -8]
        monkeypatch.setattr(_native, "_SOURCE", source)
        _native.kernels.cache_clear()
        assert rows_taken(_native.kernels()) == [0, 0]
        assert len([p for p in fresh_build.iterdir() if p.suffix == ".so"]) == 2

    def test_import_and_model_construction_build_nothing(self, tmp_path):
        # numpy itself imports ctypes, so what is checked is that the loader
        # was never imported: it alone would load the library, writing the cache
        probe = (
            "import sys, sfde_tem\n"
            "sfde_tem.builtin_example1(); sfde_tem.builtin_example2(); sfde_tem.get_model('gbm')\n"
            "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
            "print('sfde_tem._native' in sys.modules, 'steps-' in maps)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]
        assert list(tmp_path.iterdir()) == []
