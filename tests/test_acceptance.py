"""End-to-end acceptance checks.

Each test prints one PASS/FAIL summary line with the measured quantity and
its tolerance, then asserts it.
"""
import math
import time

import numpy as np

from mshist.densities import count_extrema, get_density
from mshist.dp import essential_histogram
from mshist.evaluate import audit
from mshist.intervals import interval_arrays
from mshist.multiscale import (
    lookup_kappa,
    multiscale_statistic,
    penalty,
    simulate_statistics,
)
from mshist.sample import SortedSample

from conftest import SEED, kappa_table, table_for
from reference import brute_force_histogram, proposition1_check, unpruned_histogram

DENSITY_CYCLE = ("uniform", "claw", "exponential")


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


def _seeded(key, rep):
    ss = np.random.SeedSequence(entropy=SEED, spawn_key=(key, rep))
    return int(ss.generate_state(1)[0])


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    for i in range(200):
        rng = np.random.default_rng(_seeded(1, i))
        n = int(rng.integers(9, 15))
        d = get_density(DENSITY_CYCLE[i % 3])
        sample = d.sampler(_seeded(11, i), n)
        table = table_for(n)
        a = essential_histogram(sample, 0.1, table)
        b = brute_force_histogram(sample, 0.1, table)
        if not (
            a.nbins == b.nbins
            and np.array_equal(a.breaks, b.breaks)
            and np.array_equal(a.heights, b.heights)
        ):
            mismatches += 1
    dt = time.time() - t0
    _report(
        "criterion 1 (oracle equivalence)",
        mismatches == 0 and dt < 60,
        f"mismatches={mismatches}/200 exact, runtime={dt:.1f}s (<60s)",
    )


def test_criterion_02_conservative_pruning():
    t0 = time.time()
    alphas = (0.05, 0.1, 0.3, 0.5, 0.9)
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(_seeded(2, i))
        n = int(rng.integers(9, 301))
        d = get_density(DENSITY_CYCLE[i % 3])
        sample = d.sampler(_seeded(21, i), n)
        # any threshold works for solver equivalence; vary it across runs
        kap = float(rng.uniform(0.3, 2.5))
        table = kappa_table(n, kap)
        a = essential_histogram(sample, 0.1, table)
        b = unpruned_histogram(sample, 0.1, table)
        if a.cut_indices != b.cut_indices or not np.array_equal(
            a.heights, b.heights
        ):
            mismatches += 1
    dt = time.time() - t0
    _report(
        "criterion 2 (pruned == unpruned)",
        mismatches == 0 and dt < 120,
        f"mismatches={mismatches}/100 exact, runtime={dt:.1f}s (<120s)",
    )


def _exponential_statistics(n, reps, seed):
    """The global statistic under the exponential law, with the same
    per-replication streams as ``simulate_statistics``."""
    out = []
    for rep in range(reps):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.Philox(ss))
        x = np.sort(rng.exponential(size=n))
        out.append(multiscale_statistic(SortedSample(x), cdf=lambda v: -np.expm1(-v)))
    return np.array(out)


def test_criterion_03_distribution_free():
    tu = simulate_statistics(500, 2000, seed=101)
    te = _exponential_statistics(500, 2000, seed=202)
    ku = float(np.quantile(tu, 0.9))
    ke = float(np.quantile(te, 0.9))
    rng = np.random.default_rng(1)
    boot = np.array(
        [np.quantile(rng.choice(tu, tu.size, replace=True), 0.9) for _ in range(300)]
    )
    se = float(boot.std(ddof=1))
    diff = abs(ku - ke)
    _report(
        "criterion 3 (distribution-freeness)",
        diff <= 3 * se,
        f"kappa_unif={ku:.4f} kappa_exp={ke:.4f} |diff|={diff:.4f} <= 3*SE={3 * se:.4f}",
    )


def test_criterion_04_overestimation_control():
    table = table_for(500)
    uni = get_density("uniform")
    over = 0
    false_modes = 0
    for rep in range(500):
        sample = uni.sampler(_seeded(4, rep), 500)
        fit = essential_histogram(sample, 0.1, table)
        if fit.nbins > 1:
            over += 1
        false_modes += max(count_extrema(fit.heights)[0] - 1, 0)
    frac = over / 500
    fm = false_modes / 500
    _report(
        "criterion 4 (overestimation control)",
        frac <= 0.13 and fm <= 0.02,
        f"P(N_bin>1)={frac:.3f} (<=0.13), mean false modes={fm:.4f} (<=0.02)",
    )


def test_criterion_05_coverage():
    table = table_for(500)
    kappa = lookup_kappa(table, 0.1, 500)
    uni = get_density("uniform")
    j, k, _ = interval_arrays(500)
    covered = 0
    for rep in range(500):
        sample = uni.sampler(_seeded(5, rep), 500)
        x = sample.values
        p = (k - j) / 500
        c = penalty(p) + kappa
        w = x[k - 1] - x[j - 1]
        r = (2.0 * c / w) * (np.sqrt(p * (1 - p) / 500) + c / 1000.0)
        # under the uniform truth the average density on every interval is 1
        if np.all(np.abs(1.0 - p / w) <= 0.5 * r):
            covered += 1
    frac = covered / 500
    _report(
        "criterion 5 (simultaneous coverage)",
        frac >= 0.87,
        f"coverage={frac:.3f} (>=0.87 at alpha=0.1)",
    )


def test_criterion_06_claw_reproduction():
    claw = get_density("claw")
    t3000 = table_for(3000)
    modes = []
    for rep in range(100):
        sample = claw.sampler(_seeded(6, rep), 3000)
        fit = essential_histogram(sample, 0.9, t3000)
        modes.append(count_extrema(fit.heights)[0])
    mean_modes = float(np.mean(modes))
    t1000 = table_for(1000)
    bins = []
    for rep in range(100):
        sample = claw.sampler(_seeded(61, rep), 1000)
        bins.append(essential_histogram(sample, 0.1, t1000).nbins)
    mean_bins = float(np.mean(bins))
    _report(
        "criterion 6 (claw reproduction)",
        mean_modes >= 4.90 and abs(mean_bins - 7.1) <= 1.5,
        f"mean modes(n=3000,a=0.9)={mean_modes:.3f} (>=4.90); "
        f"mean bins(n=1000,a=0.1)={mean_bins:.2f} (7.1 +/- 1.5)",
    )


def test_criterion_07_cauchy_robustness():
    cau = get_density("cauchy")
    table = table_for(300)
    correct = 0
    bins = []
    for rep in range(200):
        sample = cau.sampler(_seeded(7, rep), 300)
        fit = essential_histogram(sample, 0.1, table)
        if count_extrema(fit.heights) == (1, 0):
            correct += 1
        bins.append(fit.nbins)
    frac = correct / 200
    mean_bins = float(np.mean(bins))
    _report(
        "criterion 7 (heavy-tail robustness)",
        frac >= 0.98 and abs(mean_bins - 6.1) <= 1.5,
        f"correct-extrema={frac:.3f} (>=0.98); mean bins={mean_bins:.2f} (6.1 +/- 1.5)",
    )


def test_criterion_08_lower_bound_inequality():
    results = []
    ok = True
    for k in (5, 9, 17):
        lhs, rhs = proposition1_check(k)
        ok &= lhs >= rhs
        results.append(f"k={k}: {lhs:.4f}>={rhs:.4f}")
    _report("criterion 8 (deterministic lower bound)", ok, "; ".join(results))


def test_criterion_09_structural_invariants():
    alphas = (0.05, 0.1, 0.3, 0.5, 0.9)
    mono_fail = aff_fail = audit_fail = 0
    for i in range(50):
        d = get_density(DENSITY_CYCLE[i % 3])
        n = (100, 150, 200)[i % 3]
        table = table_for(n)
        sample = d.sampler(_seeded(9, i), n)
        bins = [essential_histogram(sample, a, table).nbins for a in alphas]
        if bins != sorted(bins):
            mono_fail += 1
        fit = essential_histogram(sample, 0.1, table)
        moved = SortedSample(2.0 * sample.values + 3.0)
        fit2 = essential_histogram(moved, 0.1, table)
        if fit.cut_indices != fit2.cut_indices:
            aff_fail += 1
        if not audit(sample, fit, 0.1, table).clean:
            audit_fail += 1
    _report(
        "criterion 9 (structural invariants)",
        mono_fail == aff_fail == audit_fail == 0,
        f"alpha-monotonicity fails={mono_fail}/50, affine fails={aff_fail}/50, "
        f"self-audit fails={audit_fail}/50",
    )


def test_criterion_10_performance():
    claw = get_density("claw")
    table = table_for(3000)  # calibration cached; excluded from timing
    sample = claw.sampler(_seeded(10, 0), 3000)
    essential_histogram(sample, 0.9, table)  # warm numpy/caches
    t0 = time.time()
    fit = essential_histogram(sample, 0.9, table)
    dt = time.time() - t0
    _report(
        "criterion 10 (fit speed)",
        dt <= 5.0,
        f"claw n=3000 fit in {dt:.2f}s (<=5s, calibration cached), {fit.nbins} bins",
    )


def test_power_at_the_detection_boundary():
    """A bump of width w at 0.5 carrying excess mass eps = 3*sqrt(2w*log(1/w)/n)
    over the uniform law, at the multiscale detection boundary (Duembgen &
    Walther 2008), shows as an interior local maximum of the fit in at least
    half of 200 samples at every w: power at a fixed constant hardly depends
    on the scale.  Rates at the time of writing: 0.795, 0.885, 0.850 and
    0.625, so 0.5 lies about 3.5 standard errors below the lowest."""
    n = 3000
    table = table_for(n)
    rates = []
    for w in (0.003, 0.01, 0.03, 0.1):
        eps = 3.0 * math.sqrt(2.0 * w * math.log(1.0 / w) / n)
        shown = 0
        for r in range(200):
            rng = np.random.default_rng(r)
            bump = rng.random(n) < eps
            in_bump = rng.uniform(0.5 - w / 2, 0.5 + w / 2, n)
            x = np.where(bump, in_bump, rng.random(n))
            h = essential_histogram(SortedSample(x), 0.1, table).heights
            shown += bool(np.any((h[1:-1] > h[:-2]) & (h[1:-1] > h[2:])))
        rates.append(shown / 200)
    _report(
        "power at the detection boundary (c = 3, n = 3000, alpha = 0.1)",
        min(rates) >= 0.5,
        "rates for w = 0.003, 0.01, 0.03, 0.1: "
        + ", ".join(f"{p:.3f}" for p in rates) + " (each >= 0.5)",
    )
