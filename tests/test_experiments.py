import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sfde_tem
from sfde_tem import _native, brownian, experiments
from sfde_tem.brownian import _CoarseningStream, coarsen, sample_increments, total_increment
from sfde_tem.errors import ConfigurationError, DegenerateFitError, NumericalError
from sfde_tem.experiments import (
    ErrorTable,
    admissible_nu,
    fit_rate,
    moment_estimate,
    phi_diagnostic,
    stability_decay,
    strong_error,
)
from sfde_tem.model import builtin_example1, builtin_example2, builtin_gbm_oracle, gbm_closed_form
from sfde_tem.scheme import CLASSIC_EM, TRUNCATED_EM, SchemeConfig, _run_batch
from sfde_tem.segment import Segment, _sum_last_axis, constant_segment
from test_segment import _SPECIAL


def synthetic_table(steps, errors):
    return ErrorTable(
        steps=np.asarray(steps),
        rms_errors=np.asarray(errors),
        std_errors=np.zeros(len(steps)),
        fitted_slope=None,
        samples=100,
    )


class TestFitRate:
    def test_exact_half_order(self):
        steps = np.array([2.0**-j for j in range(3, 9)])
        table = synthetic_table(steps, 3.7 * np.sqrt(steps))
        assert fit_rate(table) == pytest.approx(0.5, abs=1e-10)

    def test_exact_first_order(self):
        steps = np.array([2.0**-j for j in range(3, 9)])
        table = synthetic_table(steps, 0.2 * steps)
        assert fit_rate(table) == pytest.approx(1.0, abs=1e-10)

    def test_two_point_hand_value(self):
        table = synthetic_table([0.1, 0.01], [0.1, 0.0316227766])
        assert fit_rate(table) == pytest.approx(0.5, abs=1e-6)

    def test_zero_error_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_rate(synthetic_table([0.1, 0.01], [0.1, 0.0]))

    def test_single_level_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_rate(synthetic_table([0.1], [0.1]))


class TestStrongError:
    def test_frozen_dynamics_degenerate(self):
        m = builtin_gbm_oracle(0.0, 0.0, 1.0)
        table = strong_error(m, [2.0**-5, 2.0**-6], 2.0**-8, 1.0, 100, 0)
        assert np.all(table.rms_errors == 0.0)
        assert table.degenerate
        assert table.fitted_slope is None

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match=f"seed .* got {seed}"):
            strong_error(m, [2.0**-5], 2.0**-7, 1.0, 100, seed)

    def test_zero_reference_step_rejected(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match=r"step/step_ref 0.03125/0.0 = inf is not a positive integer"):
            strong_error(m, [2.0**-5], 0.0, 1.0, 100, 0)

    def test_single_step_returns_table_without_slope(self):
        a, b, x0 = 1.0, 0.5, 1.0
        m = builtin_gbm_oracle(a, b, x0)
        table = strong_error(m, [2.0**-5], 2.0**-7, 1.0, 100, 2, exact_terminal=gbm_closed_form(a, b, x0))
        assert table.steps.tolist() == [2.0**-5]
        assert table.rms_errors.shape == (1,) and table.rms_errors[0] > 0.0
        assert table.degenerate
        assert table.fitted_slope is None

    def test_oracle_slope_and_reference_agreement(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        steps = [2.0**-j for j in (5, 6, 7, 8)]
        fine = strong_error(m, steps, 2.0**-12, 1.0, 200, 42)
        closed = strong_error(
            m, steps, 2.0**-12, 1.0, 200, 42, exact_terminal=gbm_closed_form(1.0, 0.5, 1.0)
        )
        assert 0.3 < fine.fitted_slope < 0.7
        assert 0.3 < closed.fitted_slope < 0.7
        gap = np.abs(fine.rms_errors - closed.rms_errors)
        assert np.all(gap <= 3.0 * np.sqrt(fine.std_errors**2 + closed.std_errors**2))

    def test_coupled_errors_decrease(self):
        # allow one inversion between adjacent levels at the noise level
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        steps = [2.0**-j for j in (5, 6, 7, 8, 9, 10)]
        table = strong_error(
            m, steps, 2.0**-12, 1.0, 1000, 7, exact_terminal=gbm_closed_form(1.0, 0.5, 1.0)
        )
        rms, se = table.rms_errors, table.std_errors
        inversions = sum(
            1
            for i in range(len(rms) - 1)
            if rms[i + 1] > rms[i] + 2.0 * math.hypot(se[i], se[i + 1])
        )
        assert inversions <= 1

    def test_non_dyadic_step_rejected(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            strong_error(m, [3.0 * 2.0**-8], 2.0**-8, 1.0, 100, 0)

    def test_too_few_samples_rejected(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            strong_error(m, [2.0**-5], 2.0**-8, 1.0, 10, 0)

    @pytest.mark.parametrize(
        "harness",
        [
            lambda m, samples: strong_error(m, [2.0**-5], 2.0**-8, 1.0, samples, 0),
            lambda m, samples: moment_estimate(m, SchemeConfig(2.0**-5, 1.0), 2.0, samples, 0),
            lambda m, samples: stability_decay(m, SchemeConfig(2.0**-5, 1.0), 2.0, samples, 0),
        ],
        ids=["strong_error", "moment_estimate", "stability_decay"],
    )
    def test_sample_count_that_is_not_an_integer_rejected(self, harness):
        with pytest.raises(ConfigurationError, match="samples must be an integer, got 150.0"):
            harness(builtin_gbm_oracle(-1.0, 0.5, 1.0), 150.0)

    def test_chunking_does_not_change_estimates(self, monkeypatch):
        # the reference level has N = 8 history steps and K = 256: 9 ring entries per replica
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        steps = [2.0**-5, 2.0**-6]
        monkeypatch.setattr(experiments, "RING_ENTRIES", 9 * 120)
        t_one = strong_error(m, steps, 2.0**-8, 1.0, 120, 3)
        monkeypatch.setattr(experiments, "RING_ENTRIES", 9 * 32)
        assert len(list(experiments._batches(120, 8, 1, 256))) == 4
        t_many = strong_error(m, steps, 2.0**-8, 1.0, 120, 3)
        assert t_one.rms_errors == pytest.approx(t_many.rms_errors, rel=1e-12)

    def test_repeat_call_bit_stable(self, monkeypatch):
        # no state (e.g. the integral-term cache) leaks from one call into the next
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        steps = [2.0**-5, 2.0**-6]
        monkeypatch.setattr(experiments, "RING_ENTRIES", 9 * 50)
        assert len(list(experiments._batches(150, 8, 1, 256))) == 3
        t1 = strong_error(m, steps, 2.0**-8, 1.0, 150, 3)
        t2 = strong_error(m, steps, 2.0**-8, 1.0, 150, 3)
        assert np.array_equal(t1.rms_errors, t2.rms_errors)
        assert np.array_equal(t1.std_errors, t2.std_errors)

    def test_truncation_hits_per_level(self):
        m = builtin_example1()
        steps, step_ref, horizon, samples, seed = [2.0**-3, 2.0**-4], 2.0**-6, 2.0, 100, 4
        table = strong_error(m, steps, step_ref, horizon, samples, seed)
        fine = np.stack([sample_increments(seed, r, 1, step_ref, 128) for r in range(samples)])
        for step, hits in zip(steps, table.truncation_hits):
            level = np.stack([coarsen(inc, round(step / step_ref)) for inc in fine])
            expected = _run_batch(m, SchemeConfig(step=step, horizon=horizon), level).truncation_hits.sum()
            assert hits == expected
        assert table.truncation_hits[0] > 0  # example1 clips at the coarsest step
        ref = _run_batch(m, SchemeConfig(step=step_ref, horizon=horizon), fine).truncation_hits.sum()
        assert table.reference_hits == ref

    def test_oracle_reference_has_no_hits(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        oracle = gbm_closed_form(1.0, 0.5, 1.0)
        table = strong_error(m, [2.0**-5, 2.0**-6], 2.0**-8, 1.0, 100, 2, exact_terminal=oracle)
        assert table.reference_hits is None
        assert table.truncation_hits.tolist() == [0, 0]

    def test_exact_terminal_receives_total_increment(self, monkeypatch):
        # blocks of 128 of the K = 512 fine steps: B(T) is still one (B, 1, d) path
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        monkeypatch.setattr(brownian, "SWEEP_BYTES", 2**17)
        seen = []

        def closed_form(increments, horizon):
            seen.append(increments.copy())
            return np.zeros((increments.shape[0], 1))

        strong_error(m, [2.0**-5, 2.0**-6], 2.0**-9, 1.0, 120, 4, exact_terminal=closed_form)
        (got,) = seen
        assert got.shape == (120, 1, 1)
        for r in range(120):
            assert np.array_equal(got[r, 0], total_increment(sample_increments(4, r, 1, 2.0**-9, 512)))

    @pytest.mark.parametrize(
        "ref_exponent, horizon",
        [(14, 0.25), (10, 2.0)],
        ids=["criterion1_shape", "long_horizon"],
    )
    def test_memory_bounded_by_integral_ring_and_sweep_block(self, ref_exponent, horizon):
        # criterion 1's shape at T = 1/4 (history N = 8192 > K = 4096 steps) and a
        # run with K = 2048 > N = 512.  example1 reads its history only through
        # one running integral, which keeps an (N+1, B) ring only when K > N, and
        # the sweep holds one block of at most SWEEP_BYTES; 2 MB for the coarse
        # levels and the interpreter.  A warm-up call first, so that the measured
        # call pays for no first-use allocations
        m = builtin_example1()
        step_ref = 2.0**-ref_exponent
        steps = [2.0**-j for j in (5, 6, 7, 8, 10) if j < ref_exponent]
        n_hist, n_ref, samples = round(m.tau / step_ref), round(horizon / step_ref), 256
        batch = max(count for _, count in experiments._batches(samples, n_hist, 1, n_ref))
        ring = 8 * batch * (n_hist + 1) if n_ref > n_hist else 0
        expected = ring + brownian.SWEEP_BYTES + 2e6
        strong_error(m, steps, step_ref, horizon, samples, 1)
        tracemalloc.start()
        try:
            strong_error(m, steps, step_ref, horizon, samples, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < expected

    def test_memory_does_not_grow_with_samples_at_short_history(self):
        # the oracle's history is N = 128 steps against K = 4096 fine steps, so
        # the rings would allow every replica in one batch; the fine increments
        # bound the batch instead.  A warm-up call first, so that neither
        # measured call pays for first-use allocations; the per-replica growth
        # bound is tighter than the ratio, which the fixed stream block dominates
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        oracle = gbm_closed_form(1.0, 0.5, 1.0)
        strong_error(m, [2.0**-5, 2.0**-6], 2.0**-12, 1.0, 256, 1, exact_terminal=oracle)
        peaks = []
        for samples in (256, 1000):
            tracemalloc.start()
            try:
                strong_error(m, [2.0**-5, 2.0**-6], 2.0**-12, 1.0, samples, 1, exact_terminal=oracle)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        assert (peaks[1] - peaks[0]) / (1000 - 256) < 600

    def test_no_state_ring_when_coefficients_read_only_integrals(self):
        # criterion 1's shape at T = 1/4: example1 reads its history only
        # through a running integral, so the window stores no simulated state
        # and the peak stays below one (K, B) state ring of the reference
        m = builtin_example1()
        step_ref, horizon, samples = 2.0**-14, 0.25, 256
        steps = [2.0**-j for j in (5, 6, 7, 8, 10)]
        state_ring = 8 * samples * round(horizon / step_ref)
        strong_error(m, steps, step_ref, horizon, samples, 1)
        tracemalloc.start()
        try:
            strong_error(m, steps, step_ref, horizon, samples, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state_ring


def _two_phase_table(m, steps, step_ref, horizon, samples, seed, exact_terminal=None):
    """The strong-error table the old way: whole fine paths, the reference, then each level."""
    n_ref = round(horizon / step_ref)
    fine = np.stack([sample_increments(seed, r, m.dim_noise, step_ref, n_ref) for r in range(samples)])
    if exact_terminal is not None:
        ref_term, ref_hits = exact_terminal(fine, horizon), None
    else:
        ref = _run_batch(m, SchemeConfig(step=step_ref, horizon=horizon), fine)
        ref_term, ref_hits = ref.terminal, int(ref.truncation_hits.sum())
    err_sq, hits = [], []
    for step in steps:
        level = np.stack([coarsen(inc, round(step / step_ref)) for inc in fine])
        res = _run_batch(m, SchemeConfig(step=step, horizon=horizon), level)
        err_sq.append(np.sum((res.terminal - ref_term) ** 2, axis=-1))
        hits.append(int(res.truncation_hits.sum()))
    err_sq = np.array(err_sq)
    rms = np.sqrt(err_sq.mean(axis=1))
    std = err_sq.std(axis=1, ddof=1) / math.sqrt(samples) / (2.0 * rms)
    return rms, std, hits, ref_hits


class TestCoupledSweep:
    # example1 (tau = 1/2) at K = 80 = 5 * 2^4 reference steps, so blocks
    # cannot be a power of two times the whole run; gbm (tau = 1/32) with its
    # closed form at K = 512.  "three_batches" patches RING_ENTRIES to the
    # reference ring of 40 replicas; "small_block" keeps one batch but caps
    # the sweep's blocks (SWEEP_BYTES) below the run.
    CASES = {
        "example1": (builtin_example1, [2.0**-3, 2.0**-4, 2.0**-5], 2.0**-7, 0.625, 120, None),
        "gbm_exact": (
            lambda: builtin_gbm_oracle(1.0, 0.5, 1.0),
            [2.0**-5, 2.0**-6, 2.0**-7], 2.0**-10, 0.5, 120, gbm_closed_form(1.0, 0.5, 1.0),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("layout", ["three_batches", "small_block"])
    def test_table_equals_two_phase_oracle(self, monkeypatch, case, layout):
        factory, steps, step_ref, horizon, samples, exact = self.CASES[case]
        m = factory()
        n_hist, n_ref = round(m.tau / step_ref), round(horizon / step_ref)
        rows = min(n_hist + 1, n_ref)
        if layout == "three_batches":
            monkeypatch.setattr(experiments, "RING_ENTRIES", rows * 40)
            assert len(list(experiments._batches(samples, n_hist, 1, n_ref))) == 3
        else:
            monkeypatch.setattr(brownian, "SWEEP_BYTES", 2**17)
            assert len(list(experiments._batches(samples, n_hist, 1, n_ref))) == 1
            levels = [(f, None) for f in sorted(round(s / step_ref) for s in steps)]
            block = _CoarseningStream(0, 0, samples, 1, step_ref, n_ref, levels).block
            assert block < n_ref and n_ref % block == 0

        table = strong_error(m, steps, step_ref, horizon, samples, 9, exact_terminal=exact)
        rms, std, hits, ref_hits = _two_phase_table(m, steps, step_ref, horizon, samples, 9, exact)
        assert np.array_equal(table.rms_errors, rms)
        assert np.array_equal(table.std_errors, std)
        assert table.truncation_hits.tolist() == hits
        assert table.reference_hits == ref_hits
        assert table.fitted_slope == fit_rate(table)


class TestMomentEstimate:
    def test_frozen_dynamics_unit_moment(self):
        m = builtin_gbm_oracle(0.0, 0.0, 1.0)
        curve = moment_estimate(m, SchemeConfig(2.0**-5, 1.0), 4.0, 100, 0)
        assert np.allclose(curve.moments, 1.0)
        assert curve.running_max == pytest.approx(1.0)
        assert curve.diverged == 0

    def test_classic_em_divergence_reported(self):
        from sfde_tem.model import builtin_example1

        m = builtin_example1(initial_data=lambda theta: np.array([8.0]))
        cfg = SchemeConfig(2.0**-4, 2.0, CLASSIC_EM)
        curve = moment_estimate(m, cfg, 2.0, 100, 1)
        assert curve.diverged > 0
        assert np.all(np.isfinite(curve.moments[np.isfinite(curve.moments)]))

    def test_running_max_keeps_an_overflowed_moment(self):
        # |Y|^p overflows for p = 1e308 once a replica leaves |Y| = 1: the
        # maximum is that inf, not the 1 of t = 0, the only finite estimate
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        curve = moment_estimate(m, SchemeConfig(2.0**-6, 1.0), 1e308, 100, 0)
        assert curve.moments[0] == 1.0 and np.isinf(curve.moments).any()
        assert curve.running_max == math.inf

    def test_invalid_exponent(self):
        m = builtin_gbm_oracle(0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            moment_estimate(m, SchemeConfig(2.0**-5, 1.0), 1.0, 100, 0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent(self, p):
        m = builtin_gbm_oracle(0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="moment exponent"):
            moment_estimate(m, SchemeConfig(2.0**-5, 1.0), p, 100, 0)

    def test_replica_grouping_invariance(self, monkeypatch):
        # the estimator is a mean over replicas: regrouping only reassociates sums;
        # N = 1 history step and K = 32, so 2 ring entries per replica
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        cfg = SchemeConfig(2.0**-5, 1.0)
        monkeypatch.setattr(experiments, "RING_ENTRIES", 2 * 120)
        a = moment_estimate(m, cfg, 2.0, 120, 5)
        monkeypatch.setattr(experiments, "RING_ENTRIES", 2 * 40)
        assert len(list(experiments._batches(120, 1, 1, 32))) == 3
        b = moment_estimate(m, cfg, 2.0, 120, 5)
        assert a.moments == pytest.approx(b.moments, rel=1e-12)
        assert a.running_max == pytest.approx(b.running_max, rel=1e-12)


class TestStabilityDecay:
    def test_deterministic_decay_rate(self):
        # a = -1, b = 0: E|Y(t)|^p = x0^p (1 - Delta)^{p k}, rate = p ln(1-Delta)/Delta
        p = 2.0
        step = 2.0**-6
        m = builtin_gbm_oracle(-1.0, 0.0, 1.0)
        rep = stability_decay(m, SchemeConfig(step, 4.0), p, 100, 0)
        expect = p * math.log(1.0 - step) / step
        assert rep.moment_rate == pytest.approx(expect, rel=1e-6)
        assert abs(rep.moment_rate + p) / p < 0.05
        assert np.all(rep.pathwise_rates < 0)

    def test_example2_small_run(self):
        m = builtin_example2()
        rep = stability_decay(m, SchemeConfig(2.0**-5, 6.0), 2.0, 120, 11)
        assert rep.moment_rate < -1.0
        assert np.all(np.abs(rep.sample_mean[-1]) < 0.1)
        assert (rep.pathwise_rates < 0).mean() >= 0.95
        assert not rep.clamped

    def test_classic_divergence_raises(self):
        # example1 from x = 8 diverges on the classic scheme, where the moments
        # and pathwise rates would be NaN and inf
        m = builtin_example1(initial_data=lambda theta: np.array([8.0]))
        with pytest.raises(NumericalError, match="100 of 100 replicas diverged"):
            stability_decay(m, SchemeConfig(2.0**-4, 2.0, CLASSIC_EM), 2.0, 100, 1)

    def test_tail_fraction_validation(self):
        m = builtin_gbm_oracle(-1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            stability_decay(m, SchemeConfig(2.0**-5, 1.0), 2.0, 100, 0, tail_fraction=0.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent(self, p):
        m = builtin_gbm_oracle(-1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="moment exponent"):
            stability_decay(m, SchemeConfig(2.0**-5, 1.0), p, 100, 0)


def _same_bits_but_nan_payloads(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.fixture(params=["compiled", "failed_build"])
def observed_sums_calls(request, monkeypatch, tmp_path):
    """The library the observers reduce their blocks with, as built or after a failed build.

    As built, the compiled ``observed_sums`` is wrapped to record its calls,
    and their list is yielded; after a failed build (a compiler that exits 1
    and an empty cache) numpy reduces every block, and None is yielded.
    """
    if request.param == "compiled":
        kernels = _native.kernels()
        assert kernels is not None, "the compiled library did not build"
        calls, kernel = [], kernels[_native._SUMS]
        monkeypatch.setitem(kernels, _native._SUMS, lambda *args: calls.append(args) or kernel(*args))
        yield calls
        return
    monkeypatch.setattr(_native, "_COMPILER", "false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _native.kernels.cache_clear()
    with pytest.warns(RuntimeWarning, match="compiled steps are unavailable"):
        assert _native.kernels() is None
    yield None
    _native.kernels.cache_clear()  # the next call loads the library as built


class TestColumnSums:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 9), st.sampled_from("CF"), st.data())
    def test_byte_identical_to_numpy_sum_down_replicas(self, observed_sums_calls, steps, batch, n, order, data):
        # the observers' squared norms and per-coordinate state sums of a
        # (L, B, n) block against the _sum_last_axis(states * states) and the
        # states.sum(axis=0) of each step they replace, in either memory
        # layout; C takes a C-ordered block of n < 8 coordinates
        entries = st.one_of(_SPECIAL, st.floats(-1e300, 1e300))
        size = steps * batch * n
        values = data.draw(st.lists(entries, min_size=size, max_size=size))
        states = np.asarray(np.array(values).reshape(steps, batch, n), order=order)
        before = None if observed_sums_calls is None else len(observed_sums_calls)
        with np.errstate(over="ignore", invalid="ignore"):
            expect_sq = _sum_last_axis(states * states)
            expect = np.array([step.sum(axis=0) for step in states])
            sq, sums = experiments._observed_sums(states, columns=True)
            sq_alone, none = experiments._observed_sums(states, columns=False)
        assert none is None and sums.shape == (steps, n) and sq.shape == (steps, batch)
        assert _same_bits_but_nan_payloads(sq, expect_sq)
        assert _same_bits_but_nan_payloads(sq_alone, expect_sq)
        assert _same_bits_but_nan_payloads(sums, expect)
        if observed_sums_calls is not None:
            compiled = states.flags.c_contiguous and n < 8
            assert len(observed_sums_calls) - before == 2 * compiled
            if compiled:  # the column sums of a single column are numpy's
                assert [args[-1] is None for args in observed_sums_calls[-2:]] == [n == 1, True]

    def test_byte_identical_on_driver_states(self, observed_sums_calls):
        # 1000 replicas of example2 after 40 steps, a row of a C-order block
        # of the sizes criterion 5 sums, and the initial head at k = 0, which
        # the numpy driver broadcasts
        m = builtin_example2()
        seen = []

        def observe(k0, states, alive):
            sq, sums = experiments._observed_sums(states, columns=True)
            for i in range(len(states)):
                if k0 + i in (0, 40):
                    seen.append((_sum_last_axis(states[i] * states[i]), states[i].sum(axis=0), sq[i], sums[i]))

        cfg = SchemeConfig(2.0**-6, 40 * 2.0**-6)
        _run_batch(m, cfg, brownian.IncrementStream(3, 0, 1000, 2, 2.0**-6, 40), per_block=observe)
        assert len(seen) == 2
        for expect_sq, expect, sq, sums in seen:
            assert sq.tobytes() == expect_sq.tobytes()
            assert sums.tobytes() == expect.tobytes()
        if observed_sums_calls is not None:
            assert len(observed_sums_calls) == 6  # the head and five blocks of 8 steps

    def test_harnesses_identical_on_both_paths(self, monkeypatch, tmp_path):
        # the observers' results with every block reduced in C, and again
        # after a failed build, with numpy's reductions, the numpy driver and
        # numpy's draws; the classic run's diverging replicas meet the
        # reductions as overflows
        runs = {
            "stability": lambda: stability_decay(builtin_example2(), SchemeConfig(2.0**-5, 3.0), 2.0, 150, 8),
            "moments": lambda: moment_estimate(builtin_example1(), SchemeConfig(2.0**-4, 3.0), 3.0, 150, 8),
            "classic": lambda: moment_estimate(
                builtin_example1(initial_data=lambda theta: np.array([8.0])),
                SchemeConfig(2.0**-4, 2.0, CLASSIC_EM), 2.0, 100, 1,
            ),
        }
        assert _native.kernels() is not None, "the compiled library did not build"
        compiled = {name: run() for name, run in runs.items()}
        monkeypatch.setattr(_native, "_COMPILER", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _native.kernels.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="compiled steps are unavailable"):
                numpy = {name: run() for name, run in runs.items()}
        finally:
            _native.kernels.cache_clear()
        assert compiled["classic"].diverged > 0 and np.isnan(compiled["classic"].moments).any()
        for name, result in compiled.items():
            for field, value in vars(result).items():
                expect = np.asarray(vars(numpy[name])[field])
                assert _same_bits_but_nan_payloads(np.asarray(value), expect), (name, field)


class TestObserverBlocks:
    # one step per stream block hands the observers one step at a time, as
    # the per-step hook did; the results must keep every bit
    @staticmethod
    def _one_step_blocks(monkeypatch):
        monkeypatch.setattr(brownian, "STREAM_BYTES", 1)

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("variant", [TRUNCATED_EM, CLASSIC_EM])
    def test_moments_independent_of_block_size(self, monkeypatch, p, variant):
        m = builtin_example1()
        cfg = SchemeConfig(2.0**-4, 3.0, variant=variant)
        run = lambda: moment_estimate(m, cfg, p, 150, 8)
        blocked = run()
        self._one_step_blocks(monkeypatch)
        single = run()
        assert blocked.moments.tobytes() == single.moments.tobytes()
        assert (blocked.running_max, blocked.diverged) == (single.running_max, single.diverged)

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_stability_independent_of_block_size(self, monkeypatch, p):
        m = builtin_example2()
        cfg = SchemeConfig(2.0**-5, 3.0)
        run = lambda: stability_decay(m, cfg, p, 150, 8)
        blocked = run()
        self._one_step_blocks(monkeypatch)
        single = run()
        for name in ("log_moment", "sample_mean", "pathwise_rates"):
            assert getattr(blocked, name).tobytes() == getattr(single, name).tobytes()


class TestAdmissibleNu:
    def test_no_delay_closed_form(self):
        p, b1 = 2.0, 3.0
        nu = admissible_nu(b1, 0.0, 1.0, 0.0, p, 0.5)
        assert nu == pytest.approx(p * b1 / 2.0, abs=1e-9)

    def test_example2_constants(self):
        nu = admissible_nu(11.0 / 4.0, 1.0 / 4.0, 15.0 / 4.0, 3.0 / 4.0, 2.0, 0.5)
        assert nu >= 2.0
        # direct substitution of both inequalities at the returned point
        assert 0.5 * 2.0 * (11.0 / 4.0 - math.exp(nu * 0.5) / 4.0) - nu >= -1e-9
        assert 15.0 / 4.0 - 3.0 * math.exp(nu * 0.5) / 4.0 >= -1e-9

    def test_returned_point_is_maximal(self):
        nu = admissible_nu(11.0 / 4.0, 1.0 / 4.0, 15.0 / 4.0, 3.0 / 4.0, 2.0, 0.5)
        bumped = nu + 1e-6
        c1 = 0.5 * 2.0 * (11.0 / 4.0 - math.exp(bumped * 0.5) / 4.0) - bumped
        c2 = 15.0 / 4.0 - 3.0 * math.exp(bumped * 0.5) / 4.0
        assert min(c1, c2) < 0.0

    def test_binding_second_constraint(self):
        nu = admissible_nu(10.0, 0.0, 1.0, 1.0 - 1e-9, 2.0, 1.0)
        assert 0.0 < nu < 1e-3

    def test_violated_constraints(self):
        with pytest.raises(ValueError):
            admissible_nu(1.0, 1.0, 2.0, 0.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            admissible_nu(2.0, 0.0, 1.0, 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent(self, p):
        with pytest.raises(ValueError, match="moment exponent"):
            admissible_nu(11.0 / 4.0, 1.0 / 4.0, 15.0 / 4.0, 3.0 / 4.0, p, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["b1", "b2", "b3", "b4", "tau"])
    def test_non_finite_constant(self, name, value):
        # an infinite margin once kept the bracket doubling from stopping, and a NaN tau gave nu = 0
        args = dict(b1=11.0 / 4.0, b2=1.0 / 4.0, b3=15.0 / 4.0, b4=3.0 / 4.0, p_exponent=2.0, tau=0.5)
        args[name] = value
        with pytest.raises(ValueError, match=f"finite.*{name}=|{name} must be positive and finite"):
            admissible_nu(**args)


class TestPhiDiagnostic:
    def test_zero_segment(self):
        seg = constant_segment([0.0, 0.0], 0.5, 4)
        assert phi_diagnostic(seg, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_constant_segment(self):
        c = np.array([1.5, -0.5])
        seg = constant_segment(c, 0.5, 8)
        for eps in (0.1, 0.5, 0.9):
            assert phi_diagnostic(seg, eps) == pytest.approx(1.0 + float(np.sum(c * c)), abs=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            seg = Segment(rng.normal(size=(6, 2)), 1.0)
            eps = rng.uniform(0.05, 0.95)
            head_sq = float(np.sum(seg.head**2))
            assert phi_diagnostic(seg, eps) >= 1.0 + (1.0 - eps) * head_sq - 1e-12

    def test_epsilon_domain(self):
        seg = constant_segment([1.0], 0.5, 4)
        with pytest.raises(ValueError):
            phi_diagnostic(seg, 1.0)


class TestBenchmarkContract:
    def test_tracer_patch_points_resolve(self):
        # perfbench/tracing.py skips a patch point it cannot find and reports
        # its metrics as absent, so a rename here would drop them silently
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module_name, attr in tracing._PATCHES:
            assert callable(getattr(getattr(sfde_tem, module_name), attr, None)), (module_name, attr)
