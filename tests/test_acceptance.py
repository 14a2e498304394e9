"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  Criteria 1, 2 and 4 are Monte Carlo runs at full scale
(M = 1000) and dominate the suite's runtime.  Criterion 1 runs example1
on the compiled step (``sfde_tem._native``): on a shared two-core host it
took 5.8-7.5 s (median 6.0 s) in five fresh processes, against 16.1-18.3 s
(median 16.4 s) on the numpy driver alone, and 5.3 s in a full-suite run.
Every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the rest of the suite quickly."""

import math
import time

import numpy as np
import pytest

import sfde_tem as st
from sfde_tem.brownian import sample_increments
from sfde_tem.cli import main as cli_main

SEED = 42

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool, detail: str, started: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {time.time() - started:.0f}s)")
    return ok


def test_criterion_1_convergence_rate_example1():
    t0 = time.time()
    model = st.builtin_example1()
    table = st.strong_error(
        model,
        step_list=[2.0**-j for j in (5, 6, 7, 8, 10)],
        step_ref=2.0**-14,
        horizon=10.0,
        samples=1000,
        seed=SEED,
    )
    ok = table.fitted_slope is not None and 0.35 <= table.fitted_slope <= 0.65
    assert _report(
        "1 convergence rate (example1)", ok,
        f"slope={table.fitted_slope:.4f} in [0.35, 0.65]", t0,
    )


def test_criterion_2_oracle_equivalence_gbm():
    # the criterion fixes (a, b, x0), the step grid and M; the horizon is
    # unstated and both slope checks are scale-free, so T = 1 is used
    t0 = time.time()
    a, b, x0 = 1.0, 0.5, 1.0
    model = st.builtin_gbm_oracle(a, b, x0)
    steps = [2.0**-j for j in (5, 6, 7, 8, 9, 10)]
    closed = st.strong_error(
        model, steps, 2.0**-14, 1.0, 1000, SEED,
        exact_terminal=st.gbm_closed_form(a, b, x0),
    )
    fine = st.strong_error(model, steps, 2.0**-14, 1.0, 1000, SEED)
    slope_ok = 0.4 <= closed.fitted_slope <= 0.6
    gap = np.abs(fine.rms_errors - closed.rms_errors)
    three_se = 3.0 * np.sqrt(fine.std_errors**2 + closed.std_errors**2)
    agree_ok = bool(np.all(gap <= three_se))
    assert _report(
        "2 oracle equivalence (gbm)", slope_ok and agree_ok,
        f"slope={closed.fitted_slope:.4f} in [0.4, 0.6], max|gap|/3se="
        f"{float(np.max(gap / three_se)):.2f}", t0,
    )


def test_criterion_3_truncation_inactive_equivalence():
    t0 = time.time()
    model = st.builtin_gbm_oracle(1.0, 0.5, 0.01)
    step = 2.0**-6
    radius = st.truncation_radius(model.gamma, step)
    identical = 0
    for replica in range(100):
        inc = sample_increments(SEED, replica, 1, step, 64)
        tem = st.simulate(model, st.SchemeConfig(step, 1.0, st.TRUNCATED_EM), inc)
        em = st.simulate(model, st.SchemeConfig(step, 1.0, st.CLASSIC_EM), inc)
        identical += int(np.array_equal(tem.states, em.states))
    ok = radius >= 10.0 and identical == 100
    assert _report(
        "3 truncation-inactive equivalence", ok,
        f"radius={radius:.3g} >= 10, identical={identical}/100", t0,
    )


def test_criterion_4_moment_boundedness_example1():
    t0 = time.time()
    model = st.builtin_example1()
    maxima = []
    diverged = 0
    for j in (5, 6, 7):
        curve = st.moment_estimate(
            model, st.SchemeConfig(2.0**-j, 10.0), 8.0, 1000, SEED, report_every=8
        )
        maxima.append(curve.running_max)
        diverged += curve.diverged
    finite_ok = all(math.isfinite(m) for m in maxima)
    ratio = max(maxima) / min(maxima)
    ok = finite_ok and ratio <= 2.0 and diverged == 0
    assert _report(
        "4 moment boundedness (example1, p=8)", ok,
        f"maxima={[f'{m:.3f}' for m in maxima]}, ratio={ratio:.3f} <= 2, diverged={diverged}", t0,
    )


def test_criterion_5_exponential_stability_example2():
    t0 = time.time()
    model = st.builtin_example2()
    report = st.stability_decay(
        model, st.SchemeConfig(2.0**-6, 10.0), 2.0, 1000, SEED, tail_fraction=0.6
    )
    rate_ok = report.moment_rate <= -1.0
    mean_ok = bool(np.all(np.abs(report.sample_mean[-1]) <= 0.05))
    frac_neg = float((report.pathwise_rates < 0).mean())
    path_ok = frac_neg >= 0.95
    assert _report(
        "5 exponential stability (example2)", rate_ok and mean_ok and path_ok,
        f"rate={report.moment_rate:.3f} <= -1, |mean(T)|={np.max(np.abs(report.sample_mean[-1])):.2g}"
        f" <= 0.05, neg paths={frac_neg:.3f} >= 0.95", t0,
    )


def test_criterion_6_nu_solver_example2():
    t0 = time.time()
    b1, b2, b3, b4, p, tau = 11.0 / 4.0, 1.0 / 4.0, 15.0 / 4.0, 3.0 / 4.0, 2.0, 0.5
    nu = st.admissible_nu(b1, b2, b3, b4, p, tau)
    first = 0.5 * p * (b1 - b2 * math.exp(nu * tau)) - nu
    second = b3 - b4 * math.exp(nu * tau)
    ok = nu >= 2.0 and first >= -1e-9 and second >= -1e-9
    assert _report(
        "6 admissible decay constant", ok,
        f"nu={nu:.6f} >= 2, margins=({first:.2e}, {second:.2e})", t0,
    )


def test_criterion_7_invariant_suites(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    checks = []

    # truncation idempotence, bound (in the package's sqrt-of-sum norm), origin convention
    for _ in range(200):
        x = rng.normal(scale=5.0, size=rng.integers(1, 4))
        r = float(rng.uniform(0.1, 5.0))
        once = st.truncate(x, r)
        checks.append(np.array_equal(once, st.truncate(once, r)))
        checks.append(np.sqrt(np.sum(once * once)) <= r or np.array_equal(once, x))
    checks.append(np.array_equal(st.truncate(np.zeros(2), 1.0), np.zeros(2)))

    # interpolation node-exactness and betweenness
    vals = rng.normal(size=(9, 1))
    seg = st.Segment(vals, tau=1.0)
    delta = seg.step
    checks.extend(
        np.array_equal(st.lerp_eval(seg, (j - 8) * delta), vals[j]) for j in range(9)
    )
    for _ in range(100):
        theta = float(rng.uniform(-1.0, 0.0))
        v = st.lerp_eval(seg, theta)[0]
        checks.append(vals.min() - 1e-12 <= v <= vals.max() + 1e-12)

    # shift_append window semantics
    seg3 = st.Segment(np.array([[1.0], [2.0], [3.0]]), tau=1.0)
    shifted = st.shift_append(seg3, np.array([4.0]))
    checks.append(np.array_equal(shifted.values[:, 0], [2.0, 3.0, 4.0]))
    checks.append(st.lerp_eval(shifted, 0.0)[0] == 4.0)

    # coarsen block-sum identity and dyadic telescoping
    grid = st.generate(SEED, 0, 2, 2.0**-8, 1.0)
    checks.append(np.array_equal(st.coarsen(grid, 1), grid.increments))
    checks.append(
        np.array_equal(st.coarsen(grid, 8), st.coarsen(st.coarsen(st.coarsen(grid, 2), 2), 2))
    )
    checks.append(
        np.array_equal(st.total_increment(grid.increments), st.total_increment(st.coarsen(grid, 16)))
    )

    # weight normalization mass within 1e-8
    from sfde_tem.segment import boxcar_weight, node_weights

    w = st.normalize(boxcar_weight(-0.25, 0.0), tau=0.5, n_steps=8)
    samples = node_weights(w, 0.5, 8)
    mass = (0.5 / 8) * (np.sum(samples) - 0.5 * (samples[0] + samples[-1]))
    checks.append(abs(mass - 1.0) <= 1e-8)

    # Lyapunov functional: Phi(0) = 1 and Phi >= 1
    zero_seg = st.constant_segment([0.0, 0.0], 0.5, 4)
    checks.append(abs(st.phi_diagnostic(zero_seg, 0.5) - 1.0) <= 1e-12)
    for _ in range(50):
        seg_r = st.Segment(rng.normal(size=(5, 2)), tau=1.0)
        checks.append(st.phi_diagnostic(seg_r, float(rng.uniform(0.05, 0.95))) >= 1.0)

    # fit_rate exactness on synthetic power laws
    steps = np.array([2.0**-j for j in range(4, 10)])
    for exponent in (0.5, 1.0):
        table = st.ErrorTable(
            steps=steps, rms_errors=2.3 * steps**exponent,
            std_errors=np.zeros_like(steps), fitted_slope=None, samples=100,
        )
        checks.append(abs(st.fit_rate(table) - exponent) <= 1e-10)

    # byte-reproducibility of a full convergence CSV over two repeat runs
    blobs = []
    for run in ("first", "second"):
        out = tmp_path / f"conv_{run}.csv"
        code = cli_main(
            ["convergence", "--model", "gbm", "--steps", "5,6,7",
             "--ref-exponent", "10", "--horizon", "1", "--samples", "300",
             "--output", str(out)]
        )
        checks.append(code == 0)
        blobs.append(out.read_bytes())
    checks.append(blobs[0] == blobs[1])

    ok = all(bool(c) for c in checks)
    assert _report("7 invariant suites", ok, f"{len(checks)} checks", t0)
