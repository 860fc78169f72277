"""Small benchmark run: essential histogram versus classical rules.

Writes a CSV with per-replication bin counts, extrema counts, integrated
squared error, sup-CDF distance, skewness and standardized interval-mass
errors, and prints a summary.  The two tasks of a histogram show side by
side: the mode count for detecting features, ``d_0.01`` (the worst
standardized error of the fitted mass over intervals of true mass 0.01)
for estimating probabilities.
"""
import numpy as np

import mshist
from mshist.io import write_benchmark_csv

density = mshist.get_density("claw")
n, reps = 1000, 20
table = mshist.simulate_quantiles(n, reps=2000, seed=1)

rows = mshist.benchmark_rows(
    density, n, reps, methods=["essential", "sturges", "scott_width"],
    alphas=[0.1], seed=42, table=table,
)
write_benchmark_csv(rows, "benchmark_claw.csv")

true_modes = density.true_mode_count
print(f"claw, n={n}, {reps} replications (true density has {true_modes} modes):\n")
print(f"{'method':>12} {'bins':>6} {'modes':>6} {'ise':>8} {'ks':>8} {'d_0.01':>8}")
for method in ("essential", "sturges", "scott_width"):
    sel = [r for r in rows if r["method"] == method]
    print(
        f"{method:>12}"
        f" {np.mean([r['n_bins'] for r in sel]):6.2f}"
        f" {np.mean([r['modes'] for r in sel]):6.2f}"
        f" {np.mean([r['mise_sq'] for r in sel]):8.4f}"
        f" {np.mean([r['kolmogorov'] for r in sel]):8.4f}"
        f" {np.mean([r['d_0.01'] for r in sel]):8.4f}"
    )
print("\nfull table in benchmark_claw.csv")
