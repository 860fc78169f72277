"""Fit the fewest-bins feasible histogram and certify its shape features.

We draw 900 points from an equal mixture of two unit-variance normals at -3
and +3, fit at level alpha = 0.1, and then ask which increases and decreases
of the underlying density are statistically certain.  All statements below
hold simultaneously with confidence at least 90%.
"""
import mshist

# calibrate (cached after the first run) and fit
table = mshist.simulate_quantiles(900, reps=2000, seed=1)
sample = mshist.get_density("bimodal").sampler(seed=7, n=900)
fit = mshist.essential_histogram(sample, alpha=0.1, table=table)

print(f"{fit.nbins} bins are necessary to explain the data at alpha=0.1:")
for lo, hi, h, c in zip(fit.breaks, fit.breaks[1:], fit.heights, fit.counts):
    bar = "#" * int(round(60 * h / fit.heights.max()))
    print(f"  [{lo:7.3f}, {hi:7.3f}]  h={h:.4f}  n={c:4d}  {bar}")

# every extra bin boundary a larger histogram would show is insignificant;
# conversely, the features below are forced by the data
features = mshist.significant_feature_intervals(sample, 0.1, table)
modes_lb, troughs_lb = mshist.lower_bound_modes(features)
print(f"\n{len(features)} certified monotonicity stretches, e.g.:")
for f in features[:: max(1, len(features) // 6)]:
    print(f"  {f.direction:8s} somewhere in [{f.hull[0]:6.2f}, {f.hull[1]:6.2f}]")
print(f"\nwith >= {modes_lb} modes and >= {troughs_lb} troughs (confidence 90%)")

# the fit is self-consistent: auditing it at the same level finds nothing
report = mshist.audit(sample, fit, 0.1, table)
print(f"self-audit clean: {report.clean}")
