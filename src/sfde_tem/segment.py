"""Discretized path-history segments and distributed-delay quadrature.

A segment holds N+1 state vectors on the uniform grid of [-tau, 0] with
spacing Delta = tau/N; node j stores the value at theta = (j - N) * Delta,
so node N is the current head (theta = 0).  Evaluation between nodes is
piecewise linear.  Integral terms of the form

    int_{-tau}^{0} h(phi(theta)) rho(theta) dtheta

are approximated by the composite trapezoid rule on the same grid, with
the weight rho sampled at the nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NumericalError

# Relative tolerance used to decide that a query time sits exactly on a node.
NODE_SNAP_REL = 1e-9


def _trapezoid_sum(samples: np.ndarray, delta: float, axis: int = -1):
    """Composite trapezoid over one axis: delta * (sum - half end nodes).

    Nodes are added one after another whatever the other axes hold, so the
    integral of a batch of replicas equals each replica's own integral bit
    for bit.
    """
    nodes = np.moveaxis(samples, axis, 0)
    return delta * (np.add.accumulate(nodes, axis=0)[-1] - 0.5 * (nodes[0] + nodes[-1]))


def _apply_transform(transform, values: np.ndarray) -> np.ndarray:
    """Apply a vector->scalar transform across the node axis.

    ``values`` has shape (..., n); vectorized transforms (written with
    ``...`` indexing, e.g. ``lambda v: v[..., 0] ** 2``) are evaluated in
    one call, anything else falls back to a per-node loop.
    """
    out = _vectorized(transform, values)
    return _per_node(transform, values) if out is None else out


def _vectorized(transform, values: np.ndarray) -> Optional[np.ndarray]:
    """transform(values) when it evaluates in one call to shape values.shape[:-1], else None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = np.asarray(transform(values))
    except Exception:
        return None
    return out if out.shape == values.shape[:-1] else None


def _per_node(transform, values: np.ndarray) -> np.ndarray:
    """transform applied to one (n,) node vector at a time."""
    flat = values.reshape(-1, values.shape[-1])
    out = np.array([float(transform(v)) for v in flat])
    return out.reshape(values.shape[:-1])


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight rho on [-tau, 0], sampled at grid nodes.

    ``kind``/``plateau``/``lo`` describe recognized structure (constant or
    boxcar plateaus) that the simulation engine exploits for O(1) sliding
    updates; custom weights leave them unset and fall back to a full
    trapezoid pass per step.
    """

    eval: Callable[[float], float]
    declared_support: Optional[Tuple[float, float]] = None
    kind: Optional[str] = None  # "constant" | "boxcar" | None
    plateau: float = 0.0
    lo: float = 0.0

    def __call__(self, theta: float) -> float:
        return self.eval(theta)


def constant_weight(value: float = 1.0) -> WeightFunction:
    """Weight identically equal to ``value`` on the whole window."""
    if value < 0:
        raise ValueError(f"weight value must be nonnegative, got {value}")
    return WeightFunction(
        eval=lambda theta, _v=value: _v,
        declared_support=None,
        kind="constant",
        plateau=float(value),
    )


def boxcar_weight(lo: float, hi: float = 0.0, value: float = 1.0) -> WeightFunction:
    """Indicator plateau ``value`` on [lo, hi], with half values at jump nodes.

    Sampling the raw indicator at nodes makes the trapezoid rule overshoot
    by half a cell at each interior jump; returning value/2 exactly at a
    jump node cancels that, so the node-trapezoid mass equals the support
    length exactly whenever the jumps sit on grid nodes.  ``lo`` must lie
    strictly inside the window (use :func:`constant_weight` for full-window
    weights); a jump at hi = 0 coincides with the window end, where the
    trapezoid rule itself supplies the half weight.
    """
    if not lo < hi <= 0.0:
        raise ValueError(f"boxcar requires lo < hi <= 0, got [{lo}, {hi}]")
    if value < 0:
        raise ValueError(f"weight value must be nonnegative, got {value}")
    tol = NODE_SNAP_REL * max(1.0, abs(lo), abs(hi))

    def _eval(theta: float, _lo=lo, _hi=hi, _v=value, _tol=tol) -> float:
        if abs(theta - _lo) <= _tol:
            return 0.5 * _v
        if abs(theta - _hi) <= _tol:
            return _v if _hi >= -_tol else 0.5 * _v
        if _lo < theta < _hi:
            return _v
        return 0.0

    return WeightFunction(
        eval=_eval,
        declared_support=(lo, hi),
        kind="boxcar",
        plateau=float(value),
        lo=float(lo),
    )


def node_weights(weight: WeightFunction, tau: float, n_steps: int) -> np.ndarray:
    """Sample a weight at the N+1 grid nodes of [-tau, 0]."""
    delta = tau / n_steps
    thetas = (np.arange(n_steps + 1) - n_steps) * delta
    samples = np.array([float(weight.eval(t)) for t in thetas])
    if np.any(samples < 0) or not np.all(np.isfinite(samples)):
        bad = int(np.argmax(~(np.isfinite(samples) & (samples >= 0))))
        raise ValueError(f"weight sample at node {bad} (theta={thetas[bad]}) is invalid: {samples[bad]}")
    return samples


def normalize(weight: WeightFunction, tau: float, n_steps: int) -> WeightFunction:
    """Rescale a weight so its node-trapezoid mass on the (tau, N) grid is 1."""
    samples = node_weights(weight, tau, n_steps)
    mass = float(_trapezoid_sum(samples, tau / n_steps))
    if mass <= 0.0:
        raise ValueError(f"weight has non-positive trapezoid mass {mass} on the given grid")
    inner = weight.eval
    return WeightFunction(
        eval=lambda theta, _f=inner, _m=mass: _f(theta) / _m,
        declared_support=weight.declared_support,
        kind=weight.kind,
        plateau=weight.plateau / mass,
        lo=weight.lo,
    )


@dataclass(frozen=True)
class Segment:
    """Immutable history window: ``values[j]`` is the state at theta = (j - N) * Delta.

    ``values`` has shape (N+1, n); scalar input of shape (N+1,) is promoted
    to column form.  Instances are value-semantic and safe to share across
    threads.
    """

    values: np.ndarray
    tau: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 1:
            raise ValueError(f"segment values must have shape (N+1, n) with N>=1, got {vals.shape}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return self.tau / self.n_steps

    @property
    def head(self) -> np.ndarray:
        return self.values[-1]

    def lerp_eval(self, theta: float) -> np.ndarray:
        return lerp_eval(self, theta)

    def shift_append(self, new_head: np.ndarray) -> "Segment":
        return shift_append(self, new_head)

    def weighted_integral(self, weight: WeightFunction, transform) -> float:
        return weighted_integral(self, weight, transform)


def constant_segment(value, tau: float, n_steps: int) -> Segment:
    """Segment holding the same vector at every node."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    return Segment(np.tile(vec, (n_steps + 1, 1)), tau)


def lerp_eval(seg: Segment, theta: float) -> np.ndarray:
    """Piecewise-linear evaluation at theta in [-tau, 0]; exact at nodes."""
    return _lerp(seg, theta, seg.values.__getitem__)


def _lerp(window, theta: float, node: Callable[[int], np.ndarray]) -> np.ndarray:
    """Piecewise-linear evaluation of a window (``tau``, ``n_steps``, ``step``); node j is ``node(j)``."""
    n = window.n_steps
    delta = window.step
    tol = NODE_SNAP_REL * max(window.tau, 1.0)
    if theta < -window.tau - tol or theta > tol:
        raise ValueError(f"theta={theta} outside [-tau, 0] = [{-window.tau}, 0]")
    u = theta / delta
    nearest = round(u)
    if abs(u - nearest) < NODE_SNAP_REL:
        j = min(max(int(nearest), -n), 0)
        return node(n + j)
    j = min(max(int(np.floor(u)), -n), -1)
    w_hi = u - j
    w_lo = (j + 1) - u
    return w_lo * node(n + j) + w_hi * node(n + j + 1)


def shift_append(seg: Segment, new_head) -> Segment:
    """Drop the oldest node and append ``new_head`` at theta = 0."""
    vec = np.atleast_1d(np.asarray(new_head, dtype=float))
    if vec.shape != (seg.dim,):
        raise ValueError(f"new head has shape {vec.shape}, expected ({seg.dim},)")
    return Segment(np.concatenate([seg.values[1:], vec[None, :]]), seg.tau)


def weighted_integral(seg: Segment, weight: WeightFunction, transform) -> float:
    """Trapezoid approximation of int h(phi(theta)) rho(theta) dtheta on the grid."""
    h = _apply_transform(transform, seg.values)
    if not np.all(np.isfinite(h)):
        bad = int(np.argmax(~np.isfinite(h)))
        raise NumericalError("non-finite transform output in weighted integral", node_index=bad, value=h[bad])
    samples = node_weights(weight, seg.tau, seg.n_steps)
    return float(_trapezoid_sum(h * samples, seg.step))
