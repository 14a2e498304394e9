"""Strong convergence rate 1/2, measured by coupled coarse/fine simulation.

Every Monte Carlo replica draws one fine-grid Brownian path; coarse runs
consume block sums of the same increments, so coarse and reference solutions
share a single noise realization and the root-mean-square terminal gap
isolates the discretization error.  Halving the step should shrink the RMS
error by sqrt(2): a log-log slope of 1/2.

Two checks run below:
  * the linear model against its closed-form solution (exact reference), and
  * the cubic delay system against its own finest-grid run.

Run:  python demos/02_strong_convergence.py           (2-3 s on one CPU core)
Full-scale equivalent of the second table (M = 1000, reference 2^-14, T = 10):
  sfde-tem convergence --model example1
"""

import numpy as np

import sfde_tem as st

SEED = 42
STEPS = [2.0**-j for j in (5, 6, 7, 8)]


def show(table: st.ErrorTable, label: str) -> None:
    print(f"\n{label}")
    print("  delta        rms_error    std_error")
    for d, r, s in zip(table.steps, table.rms_errors, table.std_errors):
        print(f"  {d:<12.6g} {r:<12.6g} {s:<12.6g}")
    print(f"  fitted log-log slope: {table.fitted_slope:.4f}  (theory: 0.5)")


# Linear oracle: terminal value x0 exp((a - b^2/2)T + b B(T)) is exact, and
# B(T) is rebuilt from the very increments that drive the solver.
a, b, x0 = 1.0, 0.5, 1.0
oracle = st.builtin_gbm_oracle(a, b, x0)
table = st.strong_error(
    oracle, STEPS, step_ref=2.0**-12, horizon=1.0, samples=1000, seed=SEED,
    exact_terminal=st.gbm_closed_form(a, b, x0),
)
show(table, "linear model vs closed form (T = 1, M = 1000)")

# Cubic delay system: no closed form, so the 2^-12 run stands in for the
# exact solution (the acceptance suite repeats this at reference 2^-14).
model = st.builtin_example1()
table = st.strong_error(
    model, [2.0**-j for j in (4, 5, 6, 7)], step_ref=2.0**-12,
    horizon=10.0, samples=500, seed=SEED,
)
show(table, "cubic delay system vs fine reference (T = 10, M = 500)")

with open("demo_convergence.csv", "w") as handle:
    handle.write("delta,rms_error,std_error\n")
    for d, r, s in zip(table.steps, table.rms_errors, table.std_errors):
        handle.write(f"{d:.17g},{r:.17g},{s:.17g}\n")
print("\nwrote demo_convergence.csv (log-log plot against a slope-1/2 line)")
