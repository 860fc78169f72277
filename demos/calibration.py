"""Calibrating the global threshold, and why one table fits every model.

The fitting constraint compares each interval's empirical mass with a
candidate mass through a penalized likelihood-ratio statistic.  Its maximum
over the interval system has the same distribution whatever the (continuous)
truth is, so a single Monte-Carlo table per sample size calibrates every
analysis.
"""
import numpy as np

import mshist


def exponential_statistics(n, reps, seed):
    """The statistic under the exponential law, with the per-replication
    streams ``simulate_statistics`` draws its uniform samples from."""
    out = []
    for rep in range(reps):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.Philox(ss))
        x = np.sort(rng.exponential(size=n))
        out.append(
            mshist.multiscale_statistic(
                mshist.SortedSample(x), cdf=lambda v: -np.expm1(-v)
            )
        )
    return np.array(out)


n = 500

# the statistic simulated under two very different truths
for dist, stats in (
    ("uniform", mshist.simulate_statistics(n, reps=1000, seed=3)),
    ("exponential", exponential_statistics(n, reps=1000, seed=3)),
):
    q = {a: float(np.quantile(stats, 1 - a)) for a in (0.1, 0.5)}
    print(f"{dist:>12}: 90% quantile {q[0.1]:.4f}, median {q[0.5]:.4f}")

# the cached table used by fits; thresholds shrink as alpha grows,
# so confidence sets shrink and histograms gain bins
table = mshist.simulate_quantiles(n, reps=2000, seed=1)
print("\nalpha -> kappa")
for a, k in zip(table.alphas, table.kappas):
    print(f" {a:4g}   {k:8.4f}")

sample = mshist.get_density("claw").sampler(seed=2, n=n)
print("\nbins of the fit as alpha grows (monotone):")
print([mshist.essential_histogram(sample, a, table).nbins for a in table.alphas])
