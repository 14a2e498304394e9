import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sfde_tem.errors import ConfigurationError
from sfde_tem.model import (
    GammaSpec,
    builtin_example1,
    builtin_example2,
    builtin_gbm_oracle,
    clip_to_ball,
    gamma_inverse_numeric,
    get_model,
    rate_lambda,
    truncate,
    truncation_radius,
)
from sfde_tem.segment import constant_segment

ROOT2 = math.sqrt(2.0)


class TestTruncationRadius:
    def test_example1_closed_form(self):
        spec = builtin_example1().gamma
        # (5 / (4 Delta^{1/3}) - 1/4)^{1/2} at Delta = 2^-6
        assert truncation_radius(spec, 2.0**-6) == pytest.approx(math.sqrt(4.75), abs=1e-9)

    def test_example2_closed_form(self):
        spec = builtin_example2().gamma
        assert truncation_radius(spec, 1.0) == pytest.approx(1.0, abs=1e-12)
        for step in (0.5, 2.0**-6, 2.0**-10):
            expect = math.sqrt(11.0 / (9.0 * step**0.001) - 2.0 / 9.0)
            assert truncation_radius(spec, step) == pytest.approx(expect, rel=1e-12)

    def test_inverse_round_trip(self):
        spec = builtin_example1().gamma
        assert spec.inverse(spec.gamma_fwd(3.0)) == pytest.approx(3.0, abs=1e-9)

    def test_monotone_and_divergent(self):
        # radius grows like Delta^{-lambda/2} here, so probe a wide range
        spec = builtin_example1().gamma
        steps = [2.0**-j for j in range(1, 31, 3)]
        radii = [truncation_radius(spec, s) for s in steps]
        assert all(r2 >= r1 for r1, r2 in zip(radii, radii[1:]))
        assert radii[-1] > 10 * radii[0]

    def test_step_out_of_range(self):
        spec = builtin_example1().gamma
        with pytest.raises(ValueError):
            truncation_radius(spec, 0.0)
        with pytest.raises(ValueError):
            truncation_radius(spec, 1.5)


class TestTruncate:
    def test_identity_inside_ball(self):
        x = np.array([0.3, -0.4])
        out = truncate(x, 2.5)
        assert np.array_equal(out, x)

    def test_origin_convention(self):
        assert np.array_equal(truncate(np.zeros(3), 1.0), np.zeros(3))

    def test_scaling(self):
        out = truncate(np.array([3.0, 4.0]), 2.5)
        assert out == pytest.approx([1.5, 2.0], abs=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=4), st.floats(0.1, 10))
    def test_idempotent_and_bounded(self, coords, radius):
        x = np.array(coords)
        once = truncate(x, radius)
        twice = truncate(once, radius)
        assert np.array_equal(once, twice)
        assert np.linalg.norm(once) <= radius * (1 + 1e-12)
        assert np.linalg.norm(once) == pytest.approx(min(np.linalg.norm(x), radius), abs=1e-12)

    def test_direction_preserved(self):
        x = np.array([6.0, 8.0])
        out = truncate(x, 5.0)
        assert x[0] * out[1] - x[1] * out[0] == pytest.approx(0.0, abs=1e-12)
        assert np.dot(x, out) > 0

    @pytest.mark.parametrize(
        "x, radius, expect",
        [
            ([1e300], 5.0, [5.0]),
            ([-1e300], 5.0, [-5.0]),
            ([3e200, 4e200], 10.0, [6.0, 8.0]),
            ([1.7e308, -1.7e308], 2.0, [math.sqrt(2.0), -math.sqrt(2.0)]),
        ],
        ids=["scalar", "negative_scalar", "pair", "near_max_float"],
    )
    def test_overflowing_squared_norm_lands_on_sphere(self, x, radius, expect):
        # the squares of these finite vectors overflow to inf, which once
        # scaled them by radius / inf = 0 onto the origin
        with np.errstate(over="ignore"):
            out = truncate(np.array(x), radius)
            batch, over = clip_to_ball(np.array([x, [0.5] + [0.0] * (len(x) - 1)]), radius)
        assert out == pytest.approx(expect, rel=1e-12)
        assert np.linalg.norm(out) <= radius
        assert np.array_equal(batch[0], out)
        assert over.tolist() == [True, False]
        assert batch[1].tolist() == [0.5] + [0.0] * (len(x) - 1)

    @pytest.mark.parametrize(
        "x, radius",
        [([1e200], 1e300), ([-1e200], 1e300), ([3e200, 4e200], 1e300), ([1e200, 1e200], math.inf)],
        ids=["scalar", "negative_scalar", "pair", "infinite_radius"],
    )
    def test_overflowing_squared_norm_inside_the_ball_is_kept(self, x, radius):
        # the squared norm overflows to inf > radius, but the true norm lies
        # inside the ball: the vector passes unchanged, alone and next to a
        # row that is clipped
        with np.errstate(over="ignore"):
            out = truncate(np.array(x), radius)
            far = [2e300] + [0.0] * (len(x) - 1)
            batch, over = clip_to_ball(np.array([x, far]), radius)
        assert out.tolist() == x
        assert batch[0].tolist() == x
        assert over.tolist() == [False, math.isfinite(radius)]
        assert batch[1].tolist() == ([radius] + [0.0] * (len(x) - 1) if math.isfinite(radius) else far)


class TestGammaInverseNumeric:
    def test_identity_function(self):
        assert gamma_inverse_numeric(lambda l: l, 7.0) == pytest.approx(7.0, abs=1e-9)

    def test_example2_gamma(self):
        assert gamma_inverse_numeric(lambda l: 4.0 + 18.0 * l * l, 22.0) == pytest.approx(1.0, abs=1e-9)

    def test_example1_round_trip(self):
        gamma = lambda l: 6.0 * ROOT2 * (1.0 + 4.0 * l * l)
        assert gamma_inverse_numeric(gamma, gamma(5.0)) == pytest.approx(5.0, abs=1e-9)

    def test_below_domain(self):
        with pytest.raises(ValueError):
            gamma_inverse_numeric(lambda l: 4.0 + 18.0 * l * l, 1.0)

    def test_unreachable_target(self):
        bounded = lambda l: 5.0 - 1.0 / l  # increasing but capped at 5
        with pytest.raises(Exception):
            gamma_inverse_numeric(bounded, 10.0)


class TestRateLambda:
    def test_example1_value(self):
        assert rate_lambda(2.0, 8.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_plugged_value(self):
        assert rate_lambda(2.0, 12.0, 2.0) == pytest.approx(0.2, abs=1e-15)

    def test_boundary_family(self):
        for r in (0.5, 1.0, 3.0):
            lam = rate_lambda(2.0, 4.0 * r + 4.0, r)
            assert lam == pytest.approx(r / (4.0 * r + 2.0), rel=1e-12)
            assert 0.0 < lam < 0.5

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            rate_lambda(2.0, 6.0, 2.0)  # q_bar == p/(r+1)

    @given(st.floats(2.0, 4.0), st.floats(0.5, 3.0), st.floats(1.01, 3.0))
    def test_always_in_open_interval(self, q_bar, r, slack):
        p = q_bar * (r + 1.0) * slack
        lam = rate_lambda(q_bar, p, r)
        assert 0.0 < lam < 0.5


class TestBuiltinExample1:
    def test_zero_segment(self):
        m = builtin_example1()
        seg = constant_segment([0.0], m.tau, 8)
        assert m.drift(seg) == pytest.approx([1.0], abs=1e-15)
        np.testing.assert_allclose(m.diffusion(seg), [[0.0]], atol=1e-15)

    def test_unit_segment(self):
        m = builtin_example1()
        seg = constant_segment([1.0], m.tau, 8)
        assert m.drift(seg) == pytest.approx([1.0], abs=1e-15)
        np.testing.assert_allclose(m.diffusion(seg), [[1.0]], atol=1e-12)

    def test_initial_data(self):
        m = builtin_example1()
        assert m.initial_data(-0.5)[0] == pytest.approx(-1.5)
        assert m.initial_data(0.0)[0] == pytest.approx(-1.0)

    def test_k_const_is_gamma_one(self):
        m = builtin_example1()
        assert m.gamma.k_const == pytest.approx(30.0 * ROOT2, rel=1e-12)

    def test_coefficients_deterministic(self):
        m = builtin_example1()
        rng = np.random.default_rng(5)
        from sfde_tem.segment import Segment

        seg = Segment(rng.normal(size=(9, 1)), m.tau)
        assert np.array_equal(m.drift(seg), m.drift(seg))
        assert np.array_equal(m.diffusion(seg), m.diffusion(seg))

    def test_gamma_spec_validates(self):
        builtin_example1().gamma.validate()


class TestBuiltinExample2:
    def test_equilibrium(self):
        m = builtin_example2()
        seg = constant_segment([0.0, 0.0], m.tau, 8)
        assert m.drift(seg) == pytest.approx([0.0, 0.0], abs=1e-15)
        assert np.array_equal(m.diffusion(seg), np.zeros((2, 2)))

    def test_unit_first_component(self):
        m = builtin_example2()
        seg = constant_segment([1.0, 0.0], m.tau, 8)
        assert m.drift(seg) == pytest.approx([-5.0, 0.5], abs=1e-12)
        np.testing.assert_allclose(m.diffusion(seg), np.diag([1.0, 0.0]), atol=1e-15)

    def test_initial_data_head(self):
        m = builtin_example2()
        assert m.initial_data(0.0) == pytest.approx([0.0, math.sin(2.0)], abs=1e-15)

    def test_k_and_declared_constants(self):
        m = builtin_example2()
        assert m.gamma.k_const == pytest.approx(22.0, abs=1e-12)
        c = m.assumption_constants
        assert (c["b1"], c["b2"], c["b3"], c["b4"]) == (2.75, 0.25, 3.75, 0.75)

    def test_requires_even_grid(self):
        assert builtin_example2().n_steps_multiple == 2

    def test_coefficients_deterministic(self):
        m = builtin_example2()
        rng = np.random.default_rng(6)
        from sfde_tem.segment import Segment

        seg = Segment(rng.normal(size=(9, 2)), m.tau)
        assert np.array_equal(m.drift(seg), m.drift(seg))
        assert np.array_equal(m.diffusion(seg), m.diffusion(seg))

    def test_gamma_spec_validates(self):
        builtin_example2().gamma.validate()


class TestBuiltinGbm:
    def test_linear_coefficients(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        seg = constant_segment([2.0], m.tau, 2)
        assert m.drift(seg) == pytest.approx([2.0], abs=1e-15)
        np.testing.assert_allclose(m.diffusion(seg), [[1.0]], atol=1e-15)

    def test_zero_noise_closed_form(self):
        from sfde_tem.model import gbm_closed_form

        terminal = gbm_closed_form(1.0, 0.5, 2.0)
        inc = np.zeros((16, 1))
        assert terminal(inc, 1.0)[0] == pytest.approx(2.0 * math.exp(1.0 - 0.125), rel=1e-14)

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError):
            builtin_gbm_oracle(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b", "x0"])
    def test_non_finite_parameter_rejected(self, name, value):
        params = dict(a=1.0, b=0.5, x0=1.0)
        params[name] = value
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            builtin_gbm_oracle(**params)

    def test_coefficients_deterministic(self):
        m = builtin_gbm_oracle(0.7, -0.2, 1.0)
        seg = constant_segment([1.3], m.tau, 2)
        assert np.array_equal(m.drift(seg), m.drift(seg))
        assert np.array_equal(m.diffusion(seg), m.diffusion(seg))

    def test_radius_inactive_for_desk_steps(self):
        m = builtin_gbm_oracle(1.0, 0.5, 1.0)
        for j in range(5, 15):
            assert truncation_radius(m.gamma, 2.0**-j) > 1e10

    def test_gamma_spec_validates(self):
        builtin_gbm_oracle(1.0, 0.5, 1.0).gamma.validate()


class TestRegistry:
    def test_lookup(self):
        assert get_model("example1").name == "example1"
        assert get_model("gbm", {"a": 0.0, "b": 0.0, "x0": 2.0}).assumption_constants["x0"] == 2.0

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            get_model("nope")


class TestGammaSpecValidation:
    def test_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            GammaSpec(gamma_fwd=lambda l: l, k_const=1.0, lam=0.5)

    def test_k_below_gamma_one(self):
        with pytest.raises(ConfigurationError):
            GammaSpec(gamma_fwd=lambda l: 10.0 + l, k_const=1.0, lam=0.25)

    def test_non_monotone_detected(self):
        spec = GammaSpec(gamma_fwd=lambda l: 1.0 + math.sin(l), k_const=2.0, lam=0.25)
        with pytest.raises(ConfigurationError):
            spec.validate(l_max=100.0)
