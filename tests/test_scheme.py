import dataclasses
import math

import numpy as np
import pytest

from sfde_tem import brownian
from sfde_tem.brownian import BrownianGrid, IncrementStream, coarsen, generate, sample_increments
from sfde_tem.errors import ConfigurationError, UnsupportedPointError
from sfde_tem.model import (
    builtin_example1,
    builtin_example2,
    builtin_gbm_oracle,
    truncation_radius,
)
from sfde_tem.scheme import (
    CLASSIC_EM,
    TRUNCATED_EM,
    SchemeConfig,
    _run_batch,
    continuous_extension,
    init_segment,
    resolve_grid,
    segment_at,
    simulate,
    tem_step,
)
from sfde_tem.segment import Segment, WeightFunction, constant_segment, lerp_eval

# 1 + theta on [-1/2, 0]: a weight with no recognised structure, so the
# engine recomputes its integral by full quadrature after every shift
_RAMP = WeightFunction(eval=lambda theta: 1.0 + theta)


def _square(v):
    return v[..., 0] ** 2


def _ramp_diffusion(seg):
    return 2.0 * np.asarray(seg.weighted_integral(_RAMP, _square))[..., None, None]


def ramp_example1():
    """example1 with diffusion 2 int (1 + theta) x^2(t + theta) dtheta."""
    return dataclasses.replace(builtin_example1(), diffusion=_ramp_diffusion)


def _batch_states(m, cfg, inc):
    """(B, K+1, n) states of a batch run, collected through the per_step hook."""
    states = []
    _run_batch(m, cfg, inc, per_step=lambda k, s, pre, alive: states.append(s.copy()))
    return np.stack(states, axis=1)


class TestConfigValidation:
    def test_tau_divisibility(self):
        m = builtin_example1()  # tau = 1/2
        with pytest.raises(ConfigurationError):
            resolve_grid(m, SchemeConfig(step=0.3, horizon=1.0))

    def test_even_grid_required_for_example2(self):
        m = builtin_example2()
        with pytest.raises(ConfigurationError):
            resolve_grid(m, SchemeConfig(step=0.5, horizon=1.0))  # N = 1 is odd

    def test_horizon_divisibility(self):
        m = builtin_example1()
        with pytest.raises(ConfigurationError):
            resolve_grid(m, SchemeConfig(step=0.25, horizon=1.1))

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(step=0.25, horizon=1.0, variant="milstein")

    def test_step_bounds(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(step=0.0, horizon=1.0)
        with pytest.raises(ConfigurationError):
            SchemeConfig(step=2.0, horizon=1.0)

    def test_snapped_delta_is_exact(self):
        m = builtin_example1()
        delta, n_hist, n_steps = resolve_grid(m, SchemeConfig(step=2.0**-6, horizon=10.0))
        assert delta == 2.0**-6
        assert n_hist == 32
        assert n_steps == 640


class TestInitSegment:
    def test_zero_initial_data(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        m_zero = builtin_gbm_oracle(0.0, 0.0, 1e-12)
        seg = init_segment(m_zero, SchemeConfig(step=2.0**-6, horizon=1.0))
        assert np.allclose(seg.values, 1e-12)

    def test_example1_nodes_match_raw_samples(self):
        m = builtin_example1()
        config = SchemeConfig(step=2.0**-6, horizon=1.0)
        seg = init_segment(m, config)
        n = seg.n_steps
        for j in range(n + 1):
            theta = (j - n) * seg.step
            assert seg.values[j, 0] == theta - 1.0  # truncation inactive: radius ~ 2.18 > 3/2
        assert seg.head[0] == -1.0

    def test_inside_ball_identity(self):
        m = builtin_gbm_oracle(1.0, 0.5, 0.5)
        seg = init_segment(m, SchemeConfig(step=2.0**-6, horizon=1.0))
        assert np.all(seg.values == 0.5)


class TestTemStep:
    def test_equilibrium(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        seg = constant_segment([0.0], m.tau, 2)
        new, pre = tem_step(m, seg, np.array([0.7]), radius=5.0)
        assert np.array_equal(pre, [0.0])
        assert np.array_equal(new, [0.0])

    def test_linear_recursion_algebra(self):
        a, b, c, w = 1.0, 0.5, 2.0, 0.3
        m = builtin_gbm_oracle(a, b, 1.0)
        seg = constant_segment([c], m.tau, 2)
        delta = seg.step
        new, pre = tem_step(m, seg, np.array([w]), radius=1e9)
        assert pre[0] == pytest.approx(c * (1.0 + a * delta + b * w), rel=1e-14)
        assert np.array_equal(new, pre)

    def test_example2_drift_step(self):
        m = builtin_example2()
        delta = 2.0**-6
        seg = constant_segment([1.0, 0.0], m.tau, 32)
        new, pre = tem_step(m, seg, np.zeros(2), radius=10.0)
        assert pre == pytest.approx([1.0 - 5.0 * delta, 0.5 * delta], rel=1e-12)


class TestSimulate:
    def test_frozen_dynamics(self):
        m = builtin_gbm_oracle(0.0, 0.0, 3.0)
        grid = generate(11, 0, 1, 2.0**-5, 1.0)
        rec = simulate(m, SchemeConfig(step=2.0**-5, horizon=1.0), grid)
        assert np.all(rec.states == 3.0)
        assert rec.truncation_hits == 0
        assert not rec.diverged

    def test_deterministic(self):
        m = builtin_example1()
        grid = generate(3, 5, 1, 2.0**-5, 2.0)
        cfg = SchemeConfig(step=2.0**-5, horizon=2.0)
        r1 = simulate(m, cfg, grid)
        r2 = simulate(m, cfg, grid)
        assert np.array_equal(r1.states, r2.states)

    def test_truncation_bound_holds(self):
        m = builtin_example1()
        cfg = SchemeConfig(step=2.0**-5, horizon=5.0)
        grid = generate(17, 2, 1, 2.0**-5, 5.0)
        rec = simulate(m, cfg, grid)
        radius = truncation_radius(m.gamma, rec.step)
        assert np.all(np.abs(rec.states) <= radius + 1e-12)

    def test_truncation_inactive_equivalence(self):
        m = builtin_gbm_oracle(1.0, 0.5, 0.01)
        inc = sample_increments(9, 0, 1, 2.0**-6, 64)
        r_tem = simulate(m, SchemeConfig(2.0**-6, 1.0, TRUNCATED_EM), inc)
        r_em = simulate(m, SchemeConfig(2.0**-6, 1.0, CLASSIC_EM), inc)
        assert r_tem.truncation_hits == 0
        assert np.array_equal(r_tem.states, r_em.states)

    def test_head_matches_segment(self):
        m = builtin_example2()
        cfg = SchemeConfig(step=2.0**-4, horizon=1.0)
        grid = generate(23, 1, 2, 2.0**-4, 1.0)
        rec = simulate(m, cfg, grid)
        for k in (0, 3, rec.states.shape[0] - 1):
            seg = segment_at(rec, k)
            assert np.array_equal(lerp_eval(seg, 0.0), rec.states[k])

    def test_mis_shaped_drift_rejected(self):
        import dataclasses

        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        bad = dataclasses.replace(m, drift=lambda seg: seg.head[..., 0])  # (B,) not (B, n)
        inc = sample_increments(0, 0, 1, 2.0**-5, 32)
        with pytest.raises(ConfigurationError):
            simulate(bad, SchemeConfig(2.0**-5, 1.0), inc)

    def test_grid_step_mismatch_rejected(self):
        m = builtin_example1()
        grid = generate(0, 0, 1, 2.0**-6, 1.0)
        with pytest.raises(ConfigurationError):
            simulate(m, SchemeConfig(step=2.0**-5, horizon=1.0), grid)

    def test_classic_em_divergence_flagged(self):
        # super-linear diffusion blows the unclipped iteration up
        m = builtin_example1(initial_data=lambda theta: np.array([8.0]))
        inc = sample_increments(1, 0, 1, 2.0**-4, 32)
        rec = simulate(m, SchemeConfig(2.0**-4, 2.0, CLASSIC_EM), inc)
        assert rec.diverged
        assert rec.divergence_step is not None
        k = rec.divergence_step
        assert not np.all(np.isfinite(rec.states[k]))
        # frozen after divergence
        assert np.array_equal(
            rec.states[k:], np.broadcast_to(rec.states[k], rec.states[k:].shape)
        )

    def test_truncated_never_diverges_on_same_data(self):
        m = builtin_example1(initial_data=lambda theta: np.array([8.0]))
        inc = sample_increments(1, 0, 1, 2.0**-4, 32)
        rec = simulate(m, SchemeConfig(2.0**-4, 2.0, TRUNCATED_EM), inc)
        assert not rec.diverged
        assert np.all(np.isfinite(rec.states))
        radius = truncation_radius(m.gamma, 2.0**-4)
        assert np.all(np.abs(rec.states) <= radius + 1e-12)


class TestBatchConsistency:
    @pytest.mark.parametrize("model_factory", [builtin_example1, builtin_example2])
    def test_batch_rows_match_single_runs(self, model_factory):
        m = model_factory()
        step, horizon = 2.0**-5, 1.0
        cfg = SchemeConfig(step=step, horizon=horizon)
        incs = [sample_increments(77, r, m.dim_noise, step, 32) for r in range(3)]
        batch = _batch_states(m, cfg, np.stack(incs))
        for r in range(3):
            single = simulate(m, cfg, incs[r])
            assert np.array_equal(batch[r], single.states)

    @pytest.mark.parametrize(
        "model_factory",
        [builtin_example1, builtin_example2, ramp_example1],
        ids=["example1", "example2", "ramp_weight"],
    )
    @pytest.mark.parametrize("source", ["time_major_view", "stream"])
    def test_batch_terminals_and_hits_match_single_runs(self, monkeypatch, model_factory, source):
        # N = 8 history steps, enough for the order of the node sums to matter;
        # example1 clips at this step, and the ramp weight recomputes its integral
        m = model_factory()
        step = 2.0**-4
        n_steps, seed, first, count = 48, 8, 3, 5
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        time_major = np.stack(
            [sample_increments(seed, first + i, m.dim_noise, step, n_steps) for i in range(count)], axis=1
        )
        if source == "stream":
            monkeypatch.setattr(brownian, "STREAM_BLOCK", 7)
            inc = IncrementStream(seed, first, count, m.dim_noise, step, n_steps)
        else:
            inc = time_major.transpose(1, 0, 2)
        res = _run_batch(m, cfg, inc)
        for i in range(count):
            single = simulate(m, cfg, time_major[:, i])
            assert np.array_equal(res.terminal[i], single.states[-1])
            assert res.truncation_hits[i] == single.truncation_hits
        if model_factory is builtin_example1:
            assert res.truncation_hits.sum() > 0

    def test_batch_composition_irrelevant(self):
        m = builtin_example2()
        cfg = SchemeConfig(step=2.0**-4, horizon=1.0)
        incs = [sample_increments(5, r, 2, 2.0**-4, 16) for r in range(4)]
        full = _batch_states(m, cfg, np.stack(incs))
        halves = [_batch_states(m, cfg, np.stack(incs[:2])), _batch_states(m, cfg, np.stack(incs[2:]))]
        merged = np.concatenate(halves)
        assert np.array_equal(full, merged)


class TestRunningIntegralAccuracy:
    @pytest.mark.parametrize(
        "model_factory",
        [builtin_example1, builtin_example2, ramp_example1],
        ids=["example1", "example2", "ramp_weight"],
    )
    def test_engine_matches_fresh_quadrature(self, model_factory):
        # replay the recursion with plain Segments (full trapezoid each step);
        # constant, boxcar and structureless weights, 128 steps each
        m = model_factory()
        step, n_steps = 2.0**-5, 128
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        inc = sample_increments(31, 0, m.dim_noise, step, n_steps)
        rec = simulate(m, cfg, inc)
        radius = truncation_radius(m.gamma, step)
        seg = init_segment(m, cfg)
        states = [seg.head.copy()]
        for k in range(n_steps):
            new, _ = tem_step(m, seg, inc[k], radius)
            seg = seg.shift_append(new)
            states.append(new)
        assert np.allclose(np.stack(states), rec.states, atol=1e-10)


class TestContinuousExtension:
    def _small_setup(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0, tau=2.0**-4)
        fine = 2.0**-6
        step = 2.0**-4
        grid = generate(13, 0, 1, fine, 1.0)
        inc = coarsen(grid, 4)
        rec = simulate(m, SchemeConfig(step=step, horizon=1.0), inc)
        return m, grid, rec

    def test_node_hit_bit_exact(self):
        m, grid, rec = self._small_setup()
        for k in (0, 5, 16):
            out = continuous_extension(rec, m, grid, k * rec.step)
            assert np.array_equal(out, rec.states[k])

    def test_frozen_dynamics_everywhere(self):
        m = builtin_gbm_oracle(0.0, 0.0, 2.0, tau=2.0**-4)
        fine = 2.0**-6
        grid = generate(3, 0, 1, fine, 1.0)
        inc = coarsen(grid, 4)
        rec = simulate(m, SchemeConfig(step=2.0**-4, horizon=1.0), inc)
        for mstep in range(0, 65, 7):
            out = continuous_extension(rec, m, grid, mstep * fine)
            assert out[0] == pytest.approx(2.0, abs=1e-14)

    def test_one_fine_step_with_zero_increment(self):
        m, grid, rec = self._small_setup()
        inc = grid.increments.copy()
        inc[4 * 3] = 0.0  # first fine increment after t_3 is zero
        zeroed = BrownianGrid(
            seed=grid.seed, replica=grid.replica, dim_noise=1,
            step_fine=grid.step_fine, horizon=grid.horizon, increments=inc,
        )
        rec2 = simulate(m, SchemeConfig(step=rec.step, horizon=1.0), coarsen(inc, 4))
        seg = segment_at(rec2, 3)
        drift = np.asarray(m.drift(seg))
        out = continuous_extension(rec2, m, zeroed, 3 * rec.step + grid.step_fine)
        assert out == pytest.approx(rec2.states[3] + drift * grid.step_fine, rel=1e-13)

    def test_off_grid_rejected(self):
        m, grid, rec = self._small_setup()
        with pytest.raises(UnsupportedPointError):
            continuous_extension(rec, m, grid, 0.3 * grid.step_fine)

    def test_outside_horizon_rejected(self):
        m, grid, rec = self._small_setup()
        with pytest.raises(ValueError):
            continuous_extension(rec, m, grid, 1.5)
