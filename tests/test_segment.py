import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sfde_tem.errors import ConfigurationError, NumericalError
from sfde_tem.segment import (
    Segment,
    _sum_last_axis,
    boxcar_weight,
    constant_segment,
    constant_weight,
    lerp_eval,
    node_weights,
    normalize,
    shift_append,
    weighted_integral,
)

IDENTITY = lambda v: v[..., 0]
SQ_NORM = lambda v: np.sum(v * v, axis=-1)

# transforms written for one (n,) node, each with its vectorized equivalent;
# tests/test_scheme.py runs them through the batch driver too
SCALAR_ONLY = [
    (lambda v: float(v[0]), lambda v: v[..., 0]),
    (lambda v: math.sqrt(v[0] ** 2), lambda v: np.sqrt(v[..., 0] ** 2)),
    (lambda v: max(v[0], 0.0), lambda v: np.maximum(v[..., 0], 0.0)),
    (lambda v: v[0] if v[0] > 0 else 0.0, lambda v: np.where(v[..., 0] > 0, v[..., 0], 0.0)),
]
SCALAR_ONLY_IDS = ["float", "sqrt", "max", "conditional"]


def first_column(v):
    """Keeps the node axis: shape (..., 1) where (...) is asked for."""
    return v[..., 0:1]


def keyed_on_arrays(v):
    if v.ndim > 1:
        raise KeyError("batch")
    return v[0]


def scalar_segment(values, tau):
    return Segment(np.asarray(values, dtype=float), tau)


class TestLerpEval:
    def test_left_endpoint(self):
        seg = scalar_segment([3.0, 7.0], tau=0.5)
        assert lerp_eval(seg, -0.5)[0] == 3.0

    def test_right_endpoint(self):
        seg = scalar_segment([3.0, 7.0], tau=0.5)
        assert lerp_eval(seg, 0.0)[0] == 7.0

    def test_hand_midpoint(self):
        # two-point linear formula on the subinterval [-1, -0.5]
        seg = scalar_segment([0.0, 1.0, 4.0], tau=1.0)
        assert lerp_eval(seg, -0.75)[0] == pytest.approx(0.5, abs=1e-15)

    def test_nodes_are_bitexact(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(9, 3))
        seg = Segment(vals, tau=2.0)
        delta = seg.step
        for j in range(10):
            theta = (j - 9 + 1 - 0) * delta  # hit each node exactly
        for j in range(9):
            theta = (j - 8) * delta
            assert np.array_equal(lerp_eval(seg, theta), vals[j])

    def test_outside_domain_raises(self):
        seg = scalar_segment([0.0, 1.0], tau=1.0)
        with pytest.raises(ValueError):
            lerp_eval(seg, -1.5)
        with pytest.raises(ValueError):
            lerp_eval(seg, 0.5)

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=9),
           st.floats(0.01, 0.99))
    def test_betweenness_on_subintervals(self, values, frac):
        seg = scalar_segment(values, tau=1.0)
        n = seg.n_steps
        delta = seg.step
        for j in range(-n, 0):
            theta = (j + frac) * delta
            lo = min(values[n + j], values[n + j + 1])
            hi = max(values[n + j], values[n + j + 1])
            val = lerp_eval(seg, theta)[0]
            assert lo - 1e-12 <= val <= hi + 1e-12


class TestShiftAppend:
    def test_sliding_window(self):
        seg = scalar_segment([1.0, 2.0, 3.0], tau=1.0)
        out = shift_append(seg, np.array([4.0]))
        assert np.array_equal(out.values[:, 0], [2.0, 3.0, 4.0])

    def test_window_induction(self):
        seg = scalar_segment([0.0, 0.0, 0.0], tau=1.0)
        heads = [np.array([float(i)]) for i in range(1, 3)]
        for h in heads:
            seg = shift_append(seg, h)
        assert np.array_equal(seg.values[:, 0], [0.0, 1.0, 2.0])

    def test_head_exactness(self):
        seg = scalar_segment([1.0, 2.0, 3.0], tau=1.0)
        out = shift_append(seg, np.array([42.0]))
        assert lerp_eval(out, 0.0)[0] == 42.0

    def test_dimension_mismatch(self):
        seg = scalar_segment([1.0, 2.0], tau=1.0)
        with pytest.raises(ValueError):
            shift_append(seg, np.array([1.0, 2.0]))

    def test_preserves_shape(self):
        rng = np.random.default_rng(1)
        seg = Segment(rng.normal(size=(5, 2)), tau=1.0)
        out = shift_append(seg, np.zeros(2))
        assert out.values.shape == seg.values.shape


class TestWeightedIntegral:
    def test_normalized_constant(self):
        seg = constant_segment([1.0], tau=2.0, n_steps=5)
        one = lambda v: np.ones(v.shape[:-1])
        assert weighted_integral(seg, constant_weight(1.0 / 2.0), one) == pytest.approx(1.0, abs=1e-12)

    def test_constant_segment_mass_one_weight(self):
        c = np.array([1.5, -2.0])
        seg = constant_segment(c, tau=0.5, n_steps=8)
        w = normalize(boxcar_weight(-0.25, 0.0), tau=0.5, n_steps=8)
        val = weighted_integral(seg, w, SQ_NORM)
        assert val == pytest.approx(float(np.sum(c * c)), abs=1e-12)

    def test_hand_trapezoid(self):
        seg = scalar_segment([0.0, 1.0, 2.0], tau=1.0)
        assert weighted_integral(seg, constant_weight(1.0), IDENTITY) == pytest.approx(1.0, abs=1e-15)

    def test_linearity_in_transform(self):
        rng = np.random.default_rng(2)
        seg = Segment(rng.normal(size=(7, 2)), tau=1.0)
        w = constant_weight(1.0)
        base = weighted_integral(seg, w, SQ_NORM)
        scaled = weighted_integral(seg, w, lambda v: 3.5 * SQ_NORM(v))
        assert scaled == pytest.approx(3.5 * base, abs=1e-12 * max(1.0, abs(base)))

    def test_exact_on_linear_interpolant(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=11)
        seg = scalar_segment(vals, tau=1.0)
        delta = seg.step
        exact = sum(0.5 * delta * (vals[j] + vals[j + 1]) for j in range(10))
        got = weighted_integral(seg, constant_weight(1.0), IDENTITY)
        assert got == pytest.approx(exact, abs=1e-12)

    def test_nonfinite_transform_reports_node(self):
        seg = scalar_segment([1.0, 0.0, 2.0], tau=1.0)
        bad = lambda v: 1.0 / v[..., 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the NumericalError is the report, not a RuntimeWarning
            with pytest.raises(NumericalError):
                weighted_integral(seg, constant_weight(1.0), bad)

    @pytest.mark.parametrize("scalar_only, vectorized", SCALAR_ONLY, ids=SCALAR_ONLY_IDS)
    def test_per_node_fallback_for_scalar_transforms(self, scalar_only, vectorized):
        seg = scalar_segment([-1.0, 0.0, 1.0, 2.0], tau=1.0)
        w = constant_weight(1.0)
        assert weighted_integral(seg, w, scalar_only) == weighted_integral(seg, w, vectorized)

    def test_node_product_on_as_many_nodes_as_coordinates(self):
        # two nodes of two coordinates: v[0] * v[1] on the (2, 2) array has the
        # (2,) shape of a vectorized result, but multiplies node 0 by node 1
        seg = Segment(np.array([[1.0, 2.0], [3.0, 5.0]]), tau=1.0)
        w = constant_weight(1.0)
        got = weighted_integral(seg, w, lambda v: v[0] * v[1])
        assert got == weighted_integral(seg, w, lambda v: v[..., 0] * v[..., 1]) == 8.5

    @pytest.mark.parametrize(
        "transform, error, match",
        [(first_column, ConfigurationError, "first_column"), (keyed_on_arrays, KeyError, "batch")],
        ids=["wrong_shape", "key_error"],
    )
    def test_misbehaving_transform_raises(self, transform, error, match):
        seg = scalar_segment([0.0, 1.0, 2.0], tau=1.0)
        with pytest.raises(error, match=match):
            weighted_integral(seg, constant_weight(1.0), transform)


class TestNormalize:
    def test_constant_rescale(self):
        w = normalize(constant_weight(2.0), tau=1.0, n_steps=4)
        assert w.eval(-0.3) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_quarter_support(self):
        # support [-1/4, 0] inside tau = 1/2: plateau 1/length = 4
        w = normalize(boxcar_weight(-0.25, 0.0), tau=0.5, n_steps=8)
        assert w.eval(-0.125) == pytest.approx(4.0, abs=1e-8)
        assert w.eval(0.0) == pytest.approx(4.0, abs=1e-8)
        samples = node_weights(w, 0.5, 8)
        mass = (0.5 / 8) * (np.sum(samples) - 0.5 * (samples[0] + samples[-1]))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_idempotent_fixed_point(self):
        w1 = normalize(constant_weight(7.0), tau=2.0, n_steps=6)
        w2 = normalize(w1, tau=2.0, n_steps=6)
        for theta in (-2.0, -1.1, 0.0):
            assert w2.eval(theta) == pytest.approx(w1.eval(theta), abs=1e-12)

    def test_zero_mass_raises(self):
        zero = constant_weight(0.0)
        with pytest.raises(ValueError):
            normalize(zero, tau=1.0, n_steps=4)


class TestSegmentValidation:
    def test_too_short(self):
        with pytest.raises(ValueError):
            Segment(np.zeros((1, 1)), tau=1.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            Segment(np.zeros((3, 1)), tau=0.0)

    def test_values_read_only(self):
        seg = scalar_segment([1.0, 2.0], tau=1.0)
        with pytest.raises(ValueError):
            seg.values[0] = 9.0


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


class TestSumLastAxis:
    @given(
        st.integers(1, 9),
        st.integers(1, 6),
        st.data(),
    )
    def test_byte_identical_to_numpy_sum_up_to_nan_payload(self, length, rows, data):
        values = data.draw(
            st.lists(
                st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False)),
                min_size=rows * length,
                max_size=rows * length,
            )
        )
        a = np.array(values, dtype=float).reshape(rows, length)
        with np.errstate(over="ignore", invalid="ignore"):
            expect = np.sum(a, axis=-1)
            got = _sum_last_axis(a)
        # when two NaNs meet, which one survives (its sign bit) depends on
        # operand order inside numpy's loops, e.g. [inf, -inf, nan]
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expect[~nan].tobytes()

    def test_three_axes_and_one_dimensional_input(self):
        a = np.arange(12.0).reshape(2, 3, 2) - 5.5
        assert _sum_last_axis(a).tobytes() == np.sum(a, axis=-1).tobytes()
        v = np.array([-0.0, -0.0])
        assert np.asarray(_sum_last_axis(v)).tobytes() == np.asarray(np.sum(v)).tobytes()
