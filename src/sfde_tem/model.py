"""SFDE model descriptions: dx = f(x_t) dt + g(x_t) dB as plain data.

A model bundles the drift/diffusion functionals (maps from a history
segment to a vector / matrix), the delay horizon, the initial path, the
growth specification used by the truncation, and any declared assumption
constants (metadata only, never machine-checked).

Coefficient callables receive any object with the Segment evaluation
surface (``head``, ``lerp_eval``, ``weighted_integral``); writing them
with ``...`` indexing (e.g. ``seg.head[..., 0]``) lets the simulation
engine evaluate whole replica batches in one call.  A weight is a plain
function theta -> rho(theta); the engine reads from its node samples
whether an integral slides in O(1) per step, and matches weights and
transforms by identity, so the builtins define them once at module level,
which keeps every integral an O(1) running sum; a pair built anew on each
call costs a full quadrature per read.  The engine stores simulated states
only for coefficients that read them, through a history node off the head
(``lerp_eval``) or a full quadrature; such reads must begin within the
first two steps.  The builtin coefficients write cubes as products,
``h * h * h``: numpy evaluates ``h**3`` with libm ``pow``, about ten times
slower per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from . import brownian
from .errors import ConfigurationError, NumericalError
from .segment import Segment, _sum_last_axis, boxcar_weight, constant_segment, constant_weight

INVERSE_RESIDUAL_REL = 1e-10
_MAX_DOUBLINGS = 1024


@dataclass(frozen=True)
class GammaSpec:
    """Growth bound Gamma and the data defining the truncation radius.

    ``gamma_fwd`` must be strictly increasing on [1, inf) and diverge;
    ``gamma_inv`` may be omitted, in which case the numeric inverse
    (bracket doubling + bisection) is used.  ``k_const`` is
    Gamma(1) v |f(0)| v |g(0)|^2 and ``lam`` the truncation exponent in
    (0, 1/2).
    """

    gamma_fwd: Callable[[float], float]
    gamma_inv: Optional[Callable[[float], float]] = None
    k_const: float = 1.0
    lam: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.lam < 0.5:
            raise ConfigurationError(f"truncation exponent must lie in (0, 1/2), got {self.lam}")
        if self.k_const < self.gamma_fwd(1.0) - 1e-12 * max(1.0, abs(self.k_const)):
            raise ConfigurationError(
                f"k_const={self.k_const} must dominate gamma_fwd(1)={self.gamma_fwd(1.0)}"
            )

    def inverse(self, y: float) -> float:
        if self.gamma_inv is not None:
            return float(self.gamma_inv(y))
        return gamma_inverse_numeric(self.gamma_fwd, y)

    def validate(self, l_max: float = 1e6, points: int = 40) -> None:
        """Spot-check monotonicity and the inverse round-trip on a geometric grid."""
        grid = np.geomspace(1.0, l_max, points)
        vals = np.array([self.gamma_fwd(l) for l in grid])
        if np.any(np.diff(vals) <= 0):
            raise ConfigurationError("gamma_fwd is not strictly increasing on the checked grid")
        for l in grid:
            back = self.inverse(self.gamma_fwd(float(l)))
            if abs(back - l) > 1e-9 * max(1.0, l):
                raise ConfigurationError(f"gamma_inv(gamma_fwd({l})) = {back}, round-trip too loose")


def gamma_inverse_numeric(gamma_fwd, y: float) -> float:
    """Invert a strictly increasing gamma_fwd at y >= gamma_fwd(1).

    Brackets the root by doubling from l = 1, then bisects until the
    residual |gamma_fwd(l) - y| drops below 1e-10 * max(1, y) or the
    bracket collapses to adjacent floats.
    """
    g1 = float(gamma_fwd(1.0))
    tol = INVERSE_RESIDUAL_REL * max(1.0, abs(y))
    if y < g1 - tol:
        raise ValueError(f"y={y} is below gamma_fwd(1)={g1}; inverse undefined")
    if abs(y - g1) <= tol:
        return 1.0
    lo, hi = 1.0, 2.0
    for _ in range(_MAX_DOUBLINGS):
        if float(gamma_fwd(hi)) >= y:
            break
        lo, hi = hi, hi * 2.0
        if not math.isfinite(hi):
            break
    else:
        raise NumericalError("gamma_fwd does not reach target within bracket expansion", target=y)
    if not math.isfinite(hi):
        raise NumericalError("gamma_fwd does not reach target within bracket expansion", target=y)
    best, best_res = hi, abs(float(gamma_fwd(hi)) - y)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = float(gamma_fwd(mid))
        res = abs(gm - y)
        if res < best_res:
            best, best_res = mid, res
        if res <= tol:
            return mid
        if gm < y:
            lo = mid
        else:
            hi = mid
    if best_res > tol:
        raise NumericalError(
            "bisection exhausted float precision before reaching residual tolerance",
            target=y, residual=best_res,
        )
    return best


def truncation_radius(spec: GammaSpec, step: float) -> float:
    """Radius Gamma^{-1}(K * step^{-lam}) of the truncation ball for one step size."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    level = spec.k_const * step ** (-spec.lam)
    g1 = float(spec.gamma_fwd(1.0))
    if level < g1 - 1e-12 * max(1.0, abs(level)):
        raise ConfigurationError(
            f"truncation level K*step^-lam = {level} falls below gamma_fwd(1) = {g1}"
        )
    return float(spec.inverse(level))


def truncate(x, radius: float):
    """Radial clip (|x| ^ radius) * x/|x|, with 0/|0| = 0; identity inside the ball."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericalError("cannot truncate a non-finite vector", norm=float(np.max(np.abs(x))))
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    out, _ = clip_to_ball(x, radius)
    return out


def _norms(v: np.ndarray):
    """Norms over the last axis of ``v / unit[..., None]``, and ``unit``.

    ``unit`` is max|v| on a finite row whose squared norm overflows, where
    ``norms * unit`` is its true norm, and 1 on every other row, whose norm
    keeps the bits of ``sqrt(sum(v * v))``.
    """
    with np.errstate(over="ignore"):  # the overflow is the case measured below
        nrm = np.sqrt(_sum_last_axis(v * v))
    unit = np.ones(np.shape(nrm))
    inf = np.isinf(nrm)
    if inf.any():
        big = np.abs(v).max(axis=-1)
        unit[...] = np.where(inf & np.isfinite(big), big, 1.0)
        u = v / unit[..., None]
        nrm = np.sqrt(_sum_last_axis(u * u))
    return nrm, unit


def clip_to_ball(x: np.ndarray, radius: float):
    """Radial clip plus the mask of clipped entries.

    Repeats the rescale until the recomputed norm is within the radius, so
    outputs pass unchanged through a second clip (exact idempotence even
    when rounding leaves the first rescale an ulp outside the ball).  A
    finite vector whose squared norm overflows is measured and rescaled on
    the scale of its max|x| (``_norms``): it is clipped only if its norm
    exceeds the radius, and then lands on the sphere, not on the origin.
    """
    nrm, unit = _norms(x)
    over = nrm > radius / unit
    if not over.any():
        return x, over
    clipped = over
    out = x
    while np.any(over):
        scale = radius / np.where(over, nrm, 1.0)
        out = np.where(over[..., None], out / unit[..., None] * scale[..., None], out)
        nrm, unit = _norms(out)
        over = over & (nrm > radius / unit)
    return out, clipped


def rate_lambda(q_bar: float, p: float, r: float) -> float:
    """Truncation exponent q*r / (2(p - q)) from the rate theory; in (0, 1/2)."""
    if q_bar < 2:
        raise ValueError(f"q_bar must be >= 2, got {q_bar}")
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if not q_bar < p / (r + 1.0):
        raise ValueError(f"rate hypotheses require q_bar < p/(r+1); got q_bar={q_bar}, p={p}, r={r}")
    return q_bar * r / (2.0 * (p - q_bar))


@dataclass(frozen=True)
class SfdeModel:
    """Coefficients, dimensions, delay horizon, initial path, and growth spec.

    ``assumption_constants`` records declared constants of the moment /
    rate / stability hypotheses as plain metadata.  ``n_steps_multiple``
    constrains admissible grids (N must be a multiple) so that weight
    support boundaries land on nodes.
    """

    dim_state: int
    dim_noise: int
    tau: float
    drift: Callable[[Segment], np.ndarray]
    diffusion: Callable[[Segment], np.ndarray]
    initial_data: Callable[[float], np.ndarray]
    gamma: GammaSpec
    assumption_constants: Optional[Mapping[str, float]] = None
    n_steps_multiple: int = 1
    name: str = ""

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ConfigurationError("state and noise dimensions must be >= 1")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")

    def initial_path(self, thetas) -> np.ndarray:
        """Initial data at every theta, stacked to shape (len(thetas), n).

        ``initial_data`` is called once per theta and the stacked array is
        validated once; an error names the first theta whose value has the
        wrong shape (a scalar counts as shape (1,)) or is non-finite.
        """
        values = [self.initial_data(theta) for theta in thetas]
        try:
            path = np.array(values, dtype=float)
        except ValueError:  # node values of different shapes
            path = None
        if path is None or path.shape != (len(values), self.dim_state):
            rows = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
            bad = next((i for i, row in enumerate(rows) if row.shape != (self.dim_state,)), None)
            if bad is not None:
                raise ConfigurationError(
                    f"initial data at theta={thetas[bad]} has shape {rows[bad].shape}, expected ({self.dim_state},)"
                )
            path = np.array(rows)
        finite = np.isfinite(path).all(axis=1)
        if not finite.all():
            raise NumericalError("initial data is non-finite", theta=thetas[int(np.argmax(~finite))])
        return path


def compute_k_const(gamma_fwd, drift, diffusion, tau: float, dim_state: int, probe_steps: int = 8) -> float:
    """K = Gamma(1) v |f(0)| v |g(0)|^2, evaluated on the zero constant segment."""
    zero = constant_segment(np.zeros(dim_state), tau, probe_steps)
    f0 = float(np.linalg.norm(np.atleast_1d(drift(zero))))
    g0 = float(np.linalg.norm(np.atleast_1d(diffusion(zero)))) ** 2
    return max(float(gamma_fwd(1.0)), f0, g0)


# --- builtin: scalar stochastic-volatility-type system -----------------------

_EX1_LEBESGUE = constant_weight(1.0)


def _ex1_square(v):
    return v[..., 0] ** 2


def _ex1_drift(seg):
    h = seg.head[..., 0]
    return (1.0 + 4.0 * h - 4.0 * (h * h * h))[..., None]


def _ex1_diffusion(seg):
    integral = seg.weighted_integral(_EX1_LEBESGUE, _ex1_square)
    g = 2.0 * np.asarray(integral)
    return g[..., None, None]


def builtin_example1(initial_data=None) -> SfdeModel:
    """Scalar system dx = (1 + 4x - 4x^3) dt + 2 (int_{-1/2}^0 x^2(t+s) ds) dB.

    Initial path t - 1 on [-1/2, 0] unless overridden.  The growth bound is
    6 sqrt(2) (1 + 4 l^2) with closed-form inverse and truncation exponent
    1/3 = rate_lambda(2, 8, 2).
    """
    root2 = math.sqrt(2.0)
    gamma_fwd = lambda l: 6.0 * root2 * (1.0 + 4.0 * l * l)
    gamma_inv = lambda y: math.sqrt(y / (24.0 * root2) - 0.25)
    if initial_data is None:
        initial_data = lambda theta: np.array([theta - 1.0])
    k = compute_k_const(gamma_fwd, _ex1_drift, _ex1_diffusion, tau=0.5, dim_state=1)
    return SfdeModel(
        dim_state=1,
        dim_noise=1,
        tau=0.5,
        drift=_ex1_drift,
        diffusion=_ex1_diffusion,
        initial_data=initial_data,
        gamma=GammaSpec(gamma_fwd=gamma_fwd, gamma_inv=gamma_inv, k_const=k, lam=rate_lambda(2.0, 8.0, 2.0)),
        assumption_constants={
            "p": 8.0, "varrho": 2.0, "a1": 9.0, "a2": 8.0, "a3": 7.0,
            "q_bar": 2.0, "p_bar": 3.0, "a5": 8.0, "a6": 6.0, "r": 2.0,
            "mu": 1.0, "a4": 1.0,
        },
        name="example1",
    )


# --- builtin: 2-d exponentially stable system --------------------------------

_EX2_BOX = boxcar_weight(-0.25, 0.0)
_EX2_LEBESGUE = constant_weight(1.0)


def _ex2_second(v):
    return v[..., 1]


def _ex2_first_cubed(v):
    x = v[..., 0]
    return x * x * x


def _ex2_drift(seg):
    # -2 h1 - 3 h1^3 + i1 and -2 h2 - 2 h2^3 + i2, the terms both coordinates
    # share taken over the whole head at once
    head = seg.head
    cubes = head * head * head
    cubes[..., 0] *= 3.0
    cubes[..., 1] *= 2.0
    out = -2.0 * head
    out -= cubes
    out[..., 0] += np.asarray(seg.weighted_integral(_EX2_BOX, _ex2_second))
    out[..., 1] += np.asarray(seg.weighted_integral(_EX2_LEBESGUE, _ex2_first_cubed))
    return out


def _ex2_diffusion(seg):
    head = seg.head
    g = np.zeros(head.shape[:-1] + (2, 2))
    g[..., 0, 0] = head[..., 0]
    g[..., 1, 1] = head[..., 1]
    return g


def builtin_example2() -> SfdeModel:
    """Two-dimensional system with cross-coupled distributed delays and diagonal noise.

    dx1 = (-2 x1 - 3 x1^3 + int_{-1/4}^0 x2(t+s) ds) dt + x1 dB1,
    dx2 = (-2 x2 - 2 x2^3 + int_{-1/2}^0 x1^3(t+s) ds) dt + x2 dB2,
    initial path (s^2, sin(2 - s)) on [-1/2, 0].  Exponentially stable with
    declared decay constants b1..b4; grids must keep -1/4 on a node, so N
    has to be even.
    """
    gamma_fwd = lambda l: 4.0 + 18.0 * l * l
    gamma_inv = lambda y: math.sqrt(y / 18.0 - 2.0 / 9.0)
    k = compute_k_const(gamma_fwd, _ex2_drift, _ex2_diffusion, tau=0.5, dim_state=2)
    return SfdeModel(
        dim_state=2,
        dim_noise=2,
        tau=0.5,
        drift=_ex2_drift,
        diffusion=_ex2_diffusion,
        initial_data=lambda theta: np.array([theta * theta, math.sin(-theta + 2.0)]),
        gamma=GammaSpec(gamma_fwd=gamma_fwd, gamma_inv=gamma_inv, k_const=k, lam=0.001),
        assumption_constants={
            "p": 2.0, "varrho": 2.0,
            "b1": 11.0 / 4.0, "b2": 1.0 / 4.0, "b3": 15.0 / 4.0, "b4": 3.0 / 4.0,
            "rho3_plateau": 4.0, "rho4_plateau": 2.0, "nu": 2.0,
        },
        n_steps_multiple=2,
        name="example2",
    )


# --- builtin: linear oracle with closed-form solution -------------------------

# Slope of the logarithmic growth bound for the linear oracle.  Flat growth
# keeps the truncation radius exp(s (step^-lam - 1)) astronomically large at
# every desk-scale step, so the truncated and classic schemes coincide and
# the closed form x0 exp((a - b^2/2) t + b B(t)) is a valid strong-error
# reference.
_GBM_LOG_SLOPE = 40.0


def builtin_gbm_oracle(a: float, b: float, x0: float, tau: float = 1.0 / 32.0) -> SfdeModel:
    """Degenerate SFDE f(phi) = a phi(0), g(phi) = b phi(0); no history dependence.

    ``tau`` only fixes the (irrelevant) history grid; the default 1/32
    divides every dyadic step 2^-j with j >= 5.
    """
    for name, value in (("a", a), ("b", b), ("x0", x0)):
        if not math.isfinite(value):
            raise ValueError(f"oracle parameter {name} must be finite, got {value}")
    if x0 == 0:
        raise ValueError("oracle initial value x0 must be nonzero")

    def drift(seg, _a=a):
        return _a * seg.head

    def diffusion(seg, _b=b):
        return _b * seg.head[..., None]

    c = max(1.0, abs(a), b * b)
    s = _GBM_LOG_SLOPE
    gamma_fwd = lambda l, _c=c, _s=s: _c * (1.0 + math.log(l) / _s)
    # exp cap keeps the (inactive) radius finite for extreme step sizes
    gamma_inv = lambda y, _c=c, _s=s: math.exp(min(_s * (y / _c - 1.0), 700.0))
    return SfdeModel(
        dim_state=1,
        dim_noise=1,
        tau=tau,
        drift=drift,
        diffusion=diffusion,
        initial_data=lambda theta, _x0=x0: np.array([float(_x0)]),
        gamma=GammaSpec(gamma_fwd=gamma_fwd, gamma_inv=gamma_inv, k_const=c, lam=0.25),
        assumption_constants={"a": a, "b": b, "x0": x0},
        name="gbm",
    )


def gbm_closed_form(a: float, b: float, x0: float):
    """Terminal-value oracle x0 exp((a - b^2/2) T + b B(T)) for the linear model.

    Returns a callable mapping increments of shape (..., K, d) plus the
    horizon to terminal states of shape (..., 1).  B(T) is summed by the
    coarsening's rule, so it matches every dyadic coarse level of the same
    path bit-exactly; ``strong_error`` passes B(T) itself, as a
    one-step path (K = 1).
    """

    def terminal(increments: np.ndarray, horizon: float) -> np.ndarray:
        inc = np.asarray(increments)
        b_total = brownian._block_sums(inc, inc.shape[-2], axis=inc.ndim - 2)[..., 0, 0]
        return (x0 * np.exp((a - 0.5 * b * b) * horizon + b * b_total))[..., None]

    return terminal


MODEL_REGISTRY = {
    "example1": lambda params: builtin_example1(),
    "example2": lambda params: builtin_example2(),
    "gbm": lambda params: builtin_gbm_oracle(
        a=params.get("a", 1.0), b=params.get("b", 0.5), x0=params.get("x0", 1.0)
    ),
}


def get_model(name: str, params: Optional[Mapping[str, float]] = None) -> SfdeModel:
    """Instantiate a builtin model by registry name."""
    if name not in MODEL_REGISTRY:
        raise ConfigurationError(f"unknown model '{name}'; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](dict(params or {}))
