"""The compiled example1 step (``_native``) against the numpy driver, bit for bit, and its build."""

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
from sfde_tem.brownian import sample_increments
from sfde_tem.errors import ConfigurationError, NumericalError
from sfde_tem.model import _ex1_drift, builtin_example1, builtin_example2, builtin_gbm_oracle
from sfde_tem.scheme import CLASSIC_EM, SchemeConfig, _Driver

SRC = Path(scheme.__file__).resolve().parents[1]


def _far_start(theta):
    return np.array([9.0])  # far outside the ball at every step tried here: the first steps clip


def _increments(seed, batch, step, n_steps, layout):
    """(K, B, 1) rows: a transposed view of replica-major storage, as the stream hands them, or time-major."""
    paths = np.stack([sample_increments(seed, r, 1, step, n_steps) for r in range(batch)])
    return paths.transpose(1, 0, 2) if layout == "replica_major" else np.ascontiguousarray(paths.transpose(1, 0, 2))


def _drive(model, config, rows, block, compiled):
    """Run a driver over ``rows`` in blocks; ``compiled=False`` hides the compiled step, as a failed build does."""
    with pytest.MonkeyPatch.context() as mp:
        if not compiled:
            mp.setattr(_native, "ex1_step", lambda: None)
        driver = _Driver(model, config, rows.shape[1], replica_offset=5)
        assert (driver.compiled is not None) == compiled
        for start in range(0, len(rows), block):
            driver.advance(rows[start : start + block])
        return driver.result()


def _same_bytes(a, b):
    return (
        a.terminal.tobytes() == b.terminal.tobytes()
        and a.truncation_hits.tobytes() == b.truncation_hits.tobytes()
        and a.diverged.tobytes() == b.diverged.tobytes()
    )


@pytest.fixture
def compiled_step():
    step_c = _native.ex1_step()
    if step_c is None:
        pytest.fail("the compiled example1 step did not build; see the RuntimeWarning")
    return step_c


@pytest.mark.usefixtures("compiled_step")
class TestBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hist=st.integers(3, 64),
        horizon=st.sampled_from(["within", "one_past", "ends_on_resync", "two_resyncs"]),
        data=st.data(),
        batch=st.sampled_from([1, 2, 3, 7, 16, 33]),
        layout=st.sampled_from(["replica_major", "time_major"]),
        far=st.booleans(),
    )
    def test_matches_numpy_driver(self, seed, n_hist, horizon, data, batch, layout, far):
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
        c = _drive(model, config, rows, block, compiled=True)
        py = _drive(model, config, rows, block, compiled=False)
        assert _same_bytes(c, py)

    @pytest.mark.parametrize("exponent,n_steps", [(4, 8), (4, 40), (10, 700)])
    def test_clip_rows_taken_by_numpy(self, exponent, n_steps):
        step = 2.0**-exponent
        model = builtin_example1(initial_data=_far_start)
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(11, 9, step, n_steps, "replica_major")
        c = _drive(model, config, rows, 64, compiled=True)
        py = _drive(model, config, rows, 64, compiled=False)
        assert py.truncation_hits.sum() > 0
        assert _same_bytes(c, py)

    @pytest.mark.parametrize("n_steps", [12, 40])
    def test_nan_increment_raises_the_same_error(self, n_steps):
        step = 2.0**-4
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(4, 6, step, n_steps, "time_major")
        rows[n_steps - 3, 4, 0] = np.nan
        contexts = []
        for compiled in (True, False):
            with pytest.raises(NumericalError) as info:
                _drive(builtin_example1(), config, rows, 5, compiled)
            contexts.append(info.value.context)
        assert contexts[0] == contexts[1]
        assert (contexts[0]["replica"], contexts[0]["step"]) == (5 + 4, n_steps - 2)


class TestRunLength:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("n_steps", [16, 21], ids=["K=N", "K>N"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_over"])
    def test_result_rejects_a_wrong_row_count(self, request, compiled, n_steps, extra):
        # N = 16: one row short of K or one row past it, on both paths, and
        # the count taken in the error
        if compiled:
            request.getfixturevalue("compiled_step")
        step = 2.0**-5
        config = SchemeConfig(step=step, horizon=n_steps * step)
        rows = _increments(6, 4, step, n_steps + extra, "time_major")
        with pytest.raises(ConfigurationError, match=rf"took {n_steps + extra} of {n_steps} steps"):
            _drive(builtin_example1(), config, rows, 5, compiled)


class TestOnlyQualifyingDrivers:
    @pytest.mark.parametrize(
        "model,variant,observed",
        [
            (builtin_example1(), CLASSIC_EM, False),
            (builtin_example1(), scheme.TRUNCATED_EM, True),
            (builtin_example2(), scheme.TRUNCATED_EM, False),
            (builtin_gbm_oracle(1.0, 0.5, 1.0), scheme.TRUNCATED_EM, False),
            (dataclasses.replace(builtin_example1(), drift=lambda seg: _ex1_drift(seg)), scheme.TRUNCATED_EM, False),
        ],
        ids=["classic", "observer", "example2", "gbm", "wrapped_drift"],
    )
    def test_numpy_runs_everything_else(self, model, variant, observed):
        per_step = (lambda k, states, pre, alive: None) if observed else None
        config = SchemeConfig(step=2.0**-5, horizon=1.0, variant=variant)
        assert _Driver(model, config, 3, per_step=per_step).compiled is None


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """A loader that has not run in this process, with its cache in ``tmp_path``."""
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    _native.ex1_step.cache_clear()
    yield tmp_path
    _native.ex1_step.cache_clear()


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
            for driver in results:
                assert driver.compiled is None
                driver.advance(rows)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert compiler in str(caught[0].message) and "numpy" in str(caught[0].message)
        assert list(fresh_build.iterdir()) == []  # no partial library left behind
        expected = _drive(model, config, rows, n_steps, compiled=False)
        assert all(_same_bytes(driver.result(), expected) for driver in results)

    def test_library_from_other_source_never_loaded(self, compiled_step, fresh_build, monkeypatch, tmp_path_factory):
        def rows_taken(fn):  # no rows: C reads no pointer
            return fn(0, 1, None, 1, 1, 0, 1, 1, 0.1, 1.0, 0.1, 0.1, *[None] * 7)

        source = _native._SOURCE
        assert rows_taken(_native.ex1_step()) == 0
        other = tmp_path_factory.mktemp("other") / "other.c"
        other.write_text("#include <stdint.h>\nint64_t ex1_steps(void) { return -7; }\n")
        monkeypatch.setattr(_native, "_SOURCE", other)
        _native.ex1_step.cache_clear()
        assert rows_taken(_native.ex1_step()) == -7
        monkeypatch.setattr(_native, "_SOURCE", source)
        _native.ex1_step.cache_clear()
        assert rows_taken(_native.ex1_step()) == 0
        assert len([p for p in fresh_build.iterdir() if p.suffix == ".so"]) == 2

    def test_import_and_model_construction_build_nothing(self, tmp_path):
        # numpy itself imports ctypes, so what is checked is that the loader
        # was never imported: it alone would load the library, writing the cache
        probe = (
            "import sys, sfde_tem\n"
            "sfde_tem.builtin_example1(); sfde_tem.builtin_example2(); sfde_tem.get_model('gbm')\n"
            "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
            "print('sfde_tem._native' in sys.modules, 'ex1_step-' in maps)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]
        assert list(tmp_path.iterdir()) == []
