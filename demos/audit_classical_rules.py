"""Audit textbook binning rules against the multiscale constraint.

Any histogram can be checked after the fact: a "violation" is an interval
inside one of its constant stretches where the constant is statistically
untenable; a "removable" change-point is a bin boundary whose neighborhood
could be merged without violating anything, i.e. structure the data never
asked for.
"""
import mshist

n = 1500
table = mshist.simulate_quantiles(n, reps=2000, seed=1)
sample = mshist.get_density("claw").sampler(seed=5, n=n)

for rule in ("sturges", "scott_width", "scott_area"):
    fit = mshist.classical_histogram(sample, rule)
    report = mshist.audit(sample, fit, alpha=0.1, table=table)
    print(
        f"{rule:>12}: {fit.nbins:3d} bins, "
        f"{len(report.violations):4d} violations, "
        f"{len(report.removable):2d} removable change-points"
    )

fit = mshist.essential_histogram(sample, 0.1, table)
report = mshist.audit(sample, fit, 0.1, table)
print(
    f"{'essential':>12}: {fit.nbins:3d} bins, "
    f"{len(report.violations):4d} violations, "
    f"{len(report.removable):2d} removable change-points"
)
