import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfde_tem import brownian
from sfde_tem import model as model_module
from sfde_tem.brownian import BrownianGrid, IncrementStream, coarsen, generate, sample_increments
from sfde_tem.errors import ConfigurationError, NumericalError, UnsupportedPointError
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
from sfde_tem.segment import (
    Segment,
    WeightFunction,
    boxcar_weight,
    constant_segment,
    constant_weight,
    lerp_eval,
)
from test_segment import SCALAR_ONLY, SCALAR_ONLY_IDS

# 1 + theta on [-1/2, 0]: a weight with no recognised structure, so the
# engine recomputes its integral by full quadrature after every shift
_RAMP = WeightFunction(eval=lambda theta: 1.0 + theta)


def _square(v):
    return v[..., 0] ** 2


def _first(v):
    return v[..., 0]


def _node_product(v):
    """Written for one (2,) node; on a (2, 2) array it multiplies rows."""
    return v[0] * v[1]


_FLAT = constant_weight(1.0)


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
            monkeypatch.setattr(brownian, "STREAM_BYTES", 8 * 7 * count * m.dim_noise)
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

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("weight", [constant_weight(1.0), _RAMP], ids=["constant", "ramp_weight"])
    @pytest.mark.parametrize("scalar_only, vectorized", SCALAR_ONLY, ids=SCALAR_ONLY_IDS)
    def test_scalar_only_transform_matches_vectorized(self, weight, scalar_only, vectorized, batch):
        # N = 8, 24 steps: the running sums resync, and the path changes sign.
        # Warnings are errors: a (1, 1) head must still fall back node by node
        def model_with(transform):
            def diffusion(seg):
                return 0.5 * np.asarray(seg.weighted_integral(weight, transform))[..., None, None]

            return dataclasses.replace(builtin_example1(), diffusion=diffusion)

        step, n_steps = 2.0**-4, 24
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        inc = np.stack([sample_increments(6, r, 1, step, n_steps) for r in range(batch)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _run_batch(model_with(scalar_only), cfg, inc)
        want = _run_batch(model_with(vectorized), cfg, inc)
        assert np.array_equal(got.terminal, want.terminal)
        assert np.array_equal(got.truncation_hits, want.truncation_hits)

    def test_node_product_transform_matches_segment_replay(self):
        # a 2-d state read through v[0] * v[1], a transform for one node: on
        # a (B, 2) head with B <= 2 it would index replicas, not coordinates
        def drift(seg):
            return model_module._ex2_drift(seg) + 0.5 * np.asarray(seg.weighted_integral(_FLAT, _node_product))[..., None]

        m = dataclasses.replace(builtin_example2(), drift=drift)
        step, n_steps = 2.0**-4, 20
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        inc = np.stack([sample_increments(5, r, 2, step, n_steps) for r in range(2)])
        radius = truncation_radius(m.gamma, step)
        replays = []
        for r in range(2):
            seg = init_segment(m, cfg)
            for k in range(n_steps):
                seg = seg.shift_append(tem_step(m, seg, inc[r, k], radius)[0])
            replays.append(seg.head)
        assert np.allclose(simulate(m, cfg, inc[0]).states[-1], replays[0], rtol=0.0, atol=1e-10)
        assert np.allclose(_run_batch(m, cfg, inc).terminal, np.stack(replays), rtol=0.0, atol=1e-10)

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

    @settings(max_examples=30, deadline=None)
    @given(
        exponent=st.integers(3, 5),
        data=st.data(),
        variant=st.sampled_from([TRUNCATED_EM, CLASSIC_EM]),
        seed=st.integers(0, 2**16),
    )
    def test_boxcar_on_any_node_matches_segment_replay(self, exponent, data, variant, seed):
        # a boxcar [-(N - m) Delta, 0] on a random node m and a constant
        # weight, over 1..3N+1 steps: runs short enough that only initial data
        # leaves the boxcar (K <= N - m, no ring), runs just past that, and
        # runs whose running sums resync at least once
        step = 2.0**-exponent
        base = builtin_example1()
        n_hist = resolve_grid(base, SchemeConfig(step=step, horizon=1.0))[1]
        m_node = data.draw(st.integers(1, n_hist - 1), label="m")
        n_steps = data.draw(st.integers(1, 3 * n_hist + 1), label="steps")
        box = boxcar_weight(-(n_hist - m_node) * step, 0.0, value=data.draw(st.floats(0.5, 2.0), label="box"))
        flat = constant_weight(data.draw(st.floats(0.5, 2.0), label="flat"))

        def drift(seg):
            h = seg.head[..., 0]
            return (h - h * h * h + np.asarray(seg.weighted_integral(box, _first)))[..., None]

        def diffusion(seg):
            return 0.5 * np.asarray(seg.weighted_integral(flat, _square))[..., None, None]

        m = dataclasses.replace(base, drift=drift, diffusion=diffusion)
        cfg = SchemeConfig(step=step, horizon=n_steps * step, variant=variant)
        inc = np.stack([sample_increments(seed, r, 1, step, n_steps) for r in range(3)])
        res = _run_batch(m, cfg, inc)
        radius = truncation_radius(m.gamma, step)
        for r in range(3):
            seg = init_segment(m, cfg)
            for k in range(n_steps):
                new, pre = tem_step(m, seg, inc[r, k], radius)
                seg = seg.shift_append(new if variant == TRUNCATED_EM else pre)
            assert np.allclose(res.terminal[r], seg.head, atol=1e-10)


_STORAGE_N, _STORAGE_M = 16, 5
_STORAGE_BOX = boxcar_weight(-(_STORAGE_N - _STORAGE_M) * 2.0**-5, 0.0)


class TestHistoryStorageBoundary:
    # N = 16 history steps.  A fast integral keeps a ring only if a simulated
    # state leaves its support (K > N - m), and the window's ring has
    # min(N+1, K) rows: K runs across both boundaries, for a constant weight
    # (m = 0) and a boxcar on node m = 5
    @pytest.mark.parametrize(
        "weight, m_node", [(_FLAT, 0), (_STORAGE_BOX, _STORAGE_M)], ids=["constant", "boxcar"]
    )
    @pytest.mark.parametrize("k_case", ["1", "2", "N-m", "N-m+1", "N-m+2", "N+1", "2N+1"])
    def test_batch_matches_single_runs_and_replay(self, weight, m_node, k_case):
        n = _STORAGE_N
        n_steps = {"1": 1, "2": 2, "N-m": n - m_node, "N-m+1": n - m_node + 1,
                   "N-m+2": n - m_node + 2, "N+1": n + 1, "2N+1": 2 * n + 1}[k_case]

        def drift(seg):
            h = seg.head[..., 0]
            return (h - h * h * h + np.asarray(seg.weighted_integral(weight, _first)))[..., None]

        def diffusion(seg):
            return 0.5 * np.asarray(seg.weighted_integral(weight, _square))[..., None, None]

        step = 2.0**-5
        m = dataclasses.replace(builtin_example1(), drift=drift, diffusion=diffusion)
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        assert resolve_grid(m, cfg)[1] == n
        inc = np.stack([sample_increments(23, r, 1, step, n_steps) for r in range(3)])
        batch = _batch_states(m, cfg, inc)
        res = _run_batch(m, cfg, inc)
        radius = truncation_radius(m.gamma, step)
        for r in range(3):
            single = simulate(m, cfg, inc[r])
            assert np.array_equal(batch[r], single.states)
            assert np.array_equal(res.terminal[r], single.states[-1])
            assert res.truncation_hits[r] == single.truncation_hits
            seg = init_segment(m, cfg)
            for k in range(n_steps):
                seg = seg.shift_append(tem_step(m, seg, inc[r, k], radius)[0])
            assert np.allclose(single.states[-1], seg.head, atol=1e-10)


class TestLastStep:
    @pytest.mark.parametrize("weight", [constant_weight(1.0), _RAMP], ids=["constant", "ramp_weight"])
    def test_history_integrals_not_evaluated_on_final_state(self, weight):
        # x(t) = 1 - t on a grid of 1/8 reaches 0 exactly at the last step, where
        # a log transform would fail; nothing reads the history after that step
        def drift(seg):
            return (-1.0 + 0.0 * np.asarray(seg.weighted_integral(weight, lambda v: math.log(v[0]))))[..., None]

        def diffusion(seg):
            return np.zeros(seg.head.shape + (1,))

        m = dataclasses.replace(
            builtin_example1(), drift=drift, diffusion=diffusion, initial_data=lambda theta: np.array([1.0])
        )
        step, n_steps = 2.0**-3, 8
        res = _run_batch(m, SchemeConfig(step=step, horizon=n_steps * step), np.zeros((2, n_steps, 1)))
        assert np.array_equal(res.terminal, np.zeros((2, 1)))


class TestIntegralTermRegistry:
    def test_transform_built_per_call_keeps_memory_flat(self):
        # example1 with its diffusion's transform written inline, a new object
        # per call: only the pair read before the first shift may be kept, so
        # 640 steps must not hold 640 rings of B values
        def inline_diffusion(seg):
            integral = seg.weighted_integral(model_module._EX1_LEBESGUE, lambda v: v[..., 0] ** 2)
            return 2.0 * np.asarray(integral)[..., None, None]

        base = builtin_example1()
        inline = dataclasses.replace(base, diffusion=inline_diffusion)
        step, n_steps, count = 2.0**-7, 640, 200
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        inc = np.stack([sample_increments(4, r, 1, step, n_steps) for r in range(count)])
        tracemalloc.start()
        try:
            terminal = _run_batch(inline, cfg, inc).terminal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert np.allclose(terminal, _run_batch(base, cfg, inc).terminal, rtol=0.0, atol=1e-12)


    def test_weights_built_per_call_keep_their_own_integrals(self):
        # two weights built inline: each is freed after its read, and the next
        # object built may take its id, so a registry keyed by ids must keep
        # its keys alive or hand one weight the other's integral
        def diffusion(seg):
            flat = seg.weighted_integral(constant_weight(1.0), _square)
            box = seg.weighted_integral(boxcar_weight(-0.25, 0.0, 3.0), _square)
            return 0.5 * np.asarray(flat + box)[..., None, None]

        m = dataclasses.replace(builtin_example1(), diffusion=diffusion)
        step, n_steps = 2.0**-4, 24
        cfg = SchemeConfig(step=step, horizon=n_steps * step)
        inc = np.stack([sample_increments(0, r, 1, step, n_steps) for r in range(2)])
        terminal = _run_batch(m, cfg, inc).terminal
        radius = truncation_radius(m.gamma, step)
        for r in range(2):
            seg = init_segment(m, cfg)
            for k in range(n_steps):
                seg = seg.shift_append(tem_step(m, seg, inc[r, k], radius)[0])
            assert np.allclose(terminal[r], seg.head, atol=1e-10)


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


class TestRunningIntegralResync:
    def test_example2_long_horizon_matches_full_quadrature(self, monkeypatch):
        # On a decaying path the O(1) sliding update alone keeps a rounding
        # floor from earlier, larger window values: at T = 40 it read
        # mean log|Y(T)| = -39 where full quadrature gives -98.
        step, horizon, count = 2.0**-6, 40.0, 64
        cfg = SchemeConfig(step=step, horizon=horizon)
        m = builtin_example2()
        n_steps = resolve_grid(m, cfg)[2]

        def mean_log_norm():
            inc = IncrementStream(12, 0, count, m.dim_noise, step, n_steps)
            terminal = _run_batch(m, cfg, inc).terminal
            return float(np.mean(np.log(np.sqrt(np.sum(terminal**2, axis=-1)))))

        fast = mean_log_norm()
        # the same weights without recognised structure: full quadrature every step
        for name in ("_EX2_BOX", "_EX2_LEBESGUE"):
            monkeypatch.setattr(model_module, name, dataclasses.replace(getattr(model_module, name), kind=None))
        slow = mean_log_norm()
        assert slow < -80.0
        assert fast == pytest.approx(slow, abs=1e-9)


class TestDriverErrors:
    def test_nan_drift_in_one_replica_names_replica_and_step(self):
        base = builtin_example1()
        calls = []

        def drift(seg):
            f = base.drift(seg)
            calls.append(None)
            if len(calls) == 4:
                f[2] = np.nan
            return f

        m = dataclasses.replace(base, drift=drift)
        cfg = SchemeConfig(step=2.0**-4, horizon=1.0)
        inc = np.stack([sample_increments(3, r, 1, 2.0**-4, 16) for r in range(5)])
        with pytest.raises(NumericalError) as info:
            _run_batch(m, cfg, inc, replica_offset=10)
        context = info.value.context
        assert context["replica"] == 12
        assert context["step"] == 4
        assert math.isfinite(context["head_norm"])
        assert context["radius"] == truncation_radius(m.gamma, 2.0**-4)

    def test_wrong_shape_transform_names_it(self):
        def first_column(v):
            return v[..., 0:1]

        def diffusion(seg):
            return np.asarray(seg.weighted_integral(constant_weight(1.0), first_column))[..., None, None]

        m = dataclasses.replace(builtin_example1(), diffusion=diffusion)
        inc = np.stack([sample_increments(0, r, 1, 2.0**-3, 8) for r in range(2)])
        with pytest.raises(ConfigurationError, match="first_column"):
            _run_batch(m, SchemeConfig(step=2.0**-3, horizon=1.0), inc)

    @pytest.mark.parametrize(
        "initial_data",
        [
            lambda theta: np.array([theta, 0.0]) if theta == -0.25 else np.array([theta]),
            lambda theta: np.array([[theta]]) if theta == -0.25 else np.array([theta]),
        ],
        ids=["ragged", "extra_axis"],
    )
    def test_misshaped_initial_data_names_theta(self, initial_data):
        m = builtin_example1(initial_data=initial_data)
        cfg = SchemeConfig(step=2.0**-3, horizon=1.0)  # nodes at theta = -1/2, -3/8, ..., 0
        with pytest.raises(ConfigurationError, match=r"theta=-0\.25 "):
            init_segment(m, cfg)
        inc = sample_increments(0, 0, 1, 2.0**-3, 8)
        with pytest.raises(ConfigurationError, match=r"theta=-0\.25 "):
            simulate(m, cfg, inc)

    def test_wrong_dimension_everywhere_names_first_theta(self):
        m = builtin_example1(initial_data=lambda theta: np.array([theta, 1.0]))
        with pytest.raises(ConfigurationError, match=r"theta=-0\.5 has shape \(2,\), expected \(1,\)"):
            init_segment(m, SchemeConfig(step=2.0**-3, horizon=1.0))

    @pytest.mark.parametrize(
        "initial_data",
        [lambda theta: theta - 1.0, lambda theta: theta - 1.0 if theta < -0.2 else np.array([theta - 1.0])],
        ids=["scalar", "mixed"],
    )
    def test_scalar_initial_data_accepted(self, initial_data):
        m = builtin_example1(initial_data=initial_data)
        seg = init_segment(m, SchemeConfig(step=2.0**-3, horizon=1.0))
        assert seg.values[:, 0].tolist() == [(j - 4) * 2.0**-3 - 1.0 for j in range(5)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_names_theta(self, bad):
        m = builtin_example1(initial_data=lambda theta: np.array([bad if theta == -0.125 else theta]))
        cfg = SchemeConfig(step=2.0**-3, horizon=1.0)
        with pytest.raises(NumericalError, match=r"theta=-0\.125\)") as info:
            init_segment(m, cfg)
        assert info.value.context["theta"] == -0.125
        with pytest.raises(NumericalError, match=r"theta=-0\.125\)"):
            _run_batch(m, dataclasses.replace(cfg, variant=CLASSIC_EM), sample_increments(0, 0, 1, 2.0**-3, 8)[None])
