import math

import numpy as np
import pytest

from mshist import inference
from mshist.bounds import _count_roots
from mshist.inference import (
    FeatureInterval,
    _minimal_hulls,
    _radii,
    lower_bound_modes,
    significant_feature_intervals,
)
from mshist.multiscale import lookup_kappa, penalty
from mshist.sample import SortedSample

from conftest import SEED
from reference import (
    build_interval_system,
    feature_intervals_tree,
    lower_bound_modes_reference,
    minimal_hull_pairs,
)


def radius_oracle(count, n, width, kappa):
    p = count / n
    c = math.sqrt(2.0 * math.log(math.e / (p * (1 - p)))) + kappa
    return (2.0 * c / width) * (math.sqrt(p * (1 - p) / n) + c / (2.0 * n))


def minimal_hulls_reference(sample, alpha, table):
    """Quadratic pair scan + inclusion-minimal filter, used as an oracle."""
    n = sample.n
    x = sample.values
    kappa = lookup_kappa(table, alpha, n)
    system = build_interval_system(n)
    stats = []
    for iv in system:
        w = x[iv.k - 1] - x[iv.j - 1]
        dens = iv.count / n / w
        r = radius_oracle(iv.count, n, w, kappa)
        stats.append((iv, dens, r))
    certified = set()
    for a, d1, r1 in stats:
        for b, d2, r2 in stats:
            if a.k > b.j:
                continue
            hull = (x[a.j - 1], x[b.k - 1])
            if d2 - d1 > 0.5 * r1 + 0.5 * r2:
                certified.add((hull, "increase"))
            if d1 - d2 > 0.5 * r1 + 0.5 * r2:
                certified.add((hull, "decrease"))
    minimal = set()
    for h, direction in certified:
        if not any(
            g != h and g[0] >= h[0] and g[1] <= h[1]
            for g, d in certified
            if d == direction
        ):
            minimal.add((h, direction))
    return minimal


def certifying_at_left_end(sample, alpha, table, feature):
    """How many system intervals with the left witness's left end certify
    the feature together with its right witness."""
    band = _radii(sample, lookup_kappa(table, alpha, sample.n))
    j, k = band.a, band.b
    left, right = feature.witnesses
    b = np.flatnonzero((j == right.j) & (k == right.k))[0]
    a = (j == left.j) & (k <= right.j)
    if feature.direction == "increase":
        return int(np.sum(band.hi[a] < band.lo[b]))
    return int(np.sum(band.lo[a] > band.hi[b]))


class TestConfidenceRadius:
    def test_direct_arithmetic(self):
        x = np.concatenate([np.linspace(0, 0.2, 50), np.linspace(1.0, 1.2, 50)])
        sample = SortedSample(x)
        band = _radii(sample, 2.0)
        j, k = band.a, band.b
        # the band is dens -/+ r/2: recover both from its ends
        dens, r = 0.5 * (band.lo + band.hi), band.hi - band.lo
        width = sample.values[k - 1] - sample.values[j - 1]
        expect = [radius_oracle(c, 100, w, 2.0) for c, w in zip(k - j, width)]
        np.testing.assert_allclose(r, expect, rtol=1e-12)
        np.testing.assert_allclose(dens, (k - j) / 100 / width, rtol=1e-12)
        # frozen spot value for count n/2, width 1, kappa 2, n 100:
        c = penalty(0.5) + 2.0
        assert radius_oracle(50, 100, 1.0, 2.0) == pytest.approx(
            2.0 * c * (0.05 + c / 200.0), rel=1e-12
        )

    def test_scales_inversely_with_width(self):
        a = radius_oracle(50, 100, 1.0, 2.0)
        b = radius_oracle(50, 100, 2.0, 2.0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_decreases_in_n(self):
        assert radius_oracle(100, 200, 1.0, 2.0) > radius_oracle(500, 1000, 1.0, 2.0)

    def test_strictly_positive(self):
        band = _radii(SortedSample(np.linspace(0, 1, 10)), 0.0)
        assert band.lo.size and np.all(band.hi > band.lo)

    @pytest.mark.parametrize("n", [100, 1000, 30000])
    @pytest.mark.parametrize("kappa", [-0.5, 0.2, 1.3, 3.0])
    def test_mass_band_holds_the_exact_roots(self, monkeypatch, n, kappa):
        """Per count, the mass band [p - h, p + h] that ``_radii`` lays out
        contains the exact mass roots of the fit's band wherever the count is
        satisfiable: the radius band is an outer bound on the fit's band.  The
        slack is under 1% of h at n = 30000 and kappa = -0.5."""
        seen = {}
        monkeypatch.setattr(
            inference, "band_table", lambda _, q_lo, q_hi: seen.update(lo=q_lo, hi=q_hi)
        )
        _radii(SortedSample(np.arange(n, dtype=float)), kappa)
        q_lo, q_hi = _count_roots(n, kappa)
        ok = np.isfinite(q_lo)
        assert ok.any()
        assert np.all(seen["lo"][ok] <= q_lo[ok]) and np.all(q_hi[ok] <= seen["hi"][ok])


def random_rows(rng, ends, density, lefts=None):
    """Distinct rows (j, k), 0 <= j < k <= ends, sorted by (k, j): each pair
    kept with probability ``density``, the left ends drawn from ``lefts``
    when given; returns j, k and the row offsets per right end."""
    j, k = np.array([(a, b) for b in range(1, ends + 1) for a in range(b)]).T
    keep = rng.random(j.size) < density
    if lefts is not None:
        keep &= np.isin(j, lefts)
    j, k = j[keep], k[keep]
    return j, k, np.searchsorted(k, np.arange(ends + 2))


def assert_scan(j, k, start, vals, thr):
    """``_minimal_hulls`` returns what the quadratic pair scan does, and
    returns it."""
    got = _minimal_hulls(j, k, start, vals, thr)
    assert got == minimal_hull_pairs(j, k, vals, thr)
    assert all(type(a) is int and type(b) is int for a, b in got)
    return got


def overlaps(hulls):
    """How many of the (left, right) hulls start before the previous one
    ends."""
    return sum(lo < hi for (_, hi), (lo, _) in zip(hulls, hulls[1:]))


class TestMinimalHulls:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pair_scan(self, seed):
        """Random rows with bounds from a few integers, so that vals tie with
        each other and with thresholds, at densities from sparse to every
        pair, and with few left ends, so that one left end holds many rows."""
        rng = np.random.default_rng(seed)
        found = shared = 0
        for ends in (2, 5, 12, 40):
            for density in (0.2, 0.6, 1.0):
                for lefts in (None, rng.choice(ends, 2)):
                    j, k, start = random_rows(rng, ends, density, lefts)
                    if not j.size:
                        continue
                    for levels in (2, 5, 1000):
                        vals = rng.integers(0, levels, j.size).astype(float)
                        thr = rng.integers(0, levels, j.size).astype(float)
                        got = assert_scan(j, k, start, vals, thr)
                        found += len(got)
                        shared += lefts is not None and len(got) > 0
        assert found > 50 and shared > 0

    def test_no_certifying_pair(self):
        """Every threshold at or below every bound: no pair certifies, and
        ties between a bound and a threshold never do."""
        rng = np.random.default_rng(1)
        j, k, start = random_rows(rng, 30, 0.5)
        vals = rng.integers(3, 6, j.size).astype(float)
        assert assert_scan(j, k, start, vals, np.full(j.size, 3.0)) == []
        zeros = np.zeros(j.size)  # ties never certify
        assert assert_scan(j, k, start, zeros, zeros) == []

    def test_chain_of_overlapping_hulls(self):
        """Every pair certifies: each right interval's hull starts at the
        largest left end of the rows that end by its start, so the minimal
        hulls form one chain in which every hull overlaps the next; random
        bounds on the same rows break the chain at random places."""
        rng = np.random.default_rng(2)
        j, k, start = random_rows(rng, 60, 0.3)
        got = assert_scan(j, k, start, np.zeros(j.size), np.ones(j.size))
        assert len(got) > 10
        assert overlaps([(j[a], k[b]) for a, b in got]) == len(got) - 1
        for _ in range(20):
            vals = rng.random(j.size)
            got = assert_scan(j, k, start, vals, vals[rng.permutation(j.size)] + 0.3)
            assert overlaps([(j[a], k[b]) for a, b in got]) > 0

    def test_system_rows(self, tables):
        """The system's own rows and radius bands, both directions, on the
        samples of criterion 9 (uniform, claw and exponential at n = 100-200)
        over its five levels: the same hulls, kept right intervals and
        witnesses as the pair scan, and so exactly the inclusion-minimal
        certified hulls."""
        from mshist.densities import get_density

        cycle = (("uniform", 100), ("claw", 150), ("exponential", 200))
        found = 0
        for i in range(50):
            name, n = cycle[i % 3]
            ss = np.random.SeedSequence(entropy=SEED, spawn_key=(9, i))
            sample = get_density(name).sampler(int(ss.generate_state(1)[0]), n)
            for alpha in (0.05, 0.1, 0.3, 0.5, 0.9):
                band = _radii(sample, lookup_kappa(tables(n), alpha, n))
                for vals, thr in ((band.hi, band.lo), (-band.lo, -band.hi)):
                    found += len(assert_scan(band.a, band.b, band.start, vals, thr))
        assert found > 20, found


class TestFeatureSearch:
    @pytest.mark.parametrize("density,n,seed", [
        ("uniform", 60, 0),
        ("bimodal", 100, 1),
        ("claw", 150, 2),
        ("exponential", 100, 3),
    ])
    def test_matches_quadratic_reference(self, tables, density, n, seed):
        from mshist.densities import get_density

        sample = get_density(density).sampler(seed, n)
        table = tables(n)
        for alpha in (0.1, 0.9):
            got = {
                (f.hull, f.direction)
                for f in significant_feature_intervals(sample, alpha, table)
            }
            assert got == minimal_hulls_reference(sample, alpha, table)

    def test_matches_tree_search_exactly(self, tables):
        """The full feature lists, margins and witnesses included, equal the
        Fenwick-tree search's; some kept feature has several certifying left
        intervals at its largest left end, so the tree's tie rule is used."""
        from mshist.densities import get_density

        rng = np.random.default_rng(3)
        samples = [
            (get_density(d).sampler(seed, n), n)
            for n in (60, 150, 1000)
            for seed, d in enumerate(
                ("claw", "harp", "uniform", "exponential", "bimodal")
            )
        ]
        gapped = np.concatenate([rng.uniform(0, 1, 100), rng.uniform(10, 10.5, 50)])
        samples.append((SortedSample(gapped), 150))
        samples.append((get_density("cauchy").sampler(5, 150), 150))
        most_ties = 0
        for sample, n in samples:
            for alpha in (0.05, 0.1, 0.5, 0.9):
                got = significant_feature_intervals(sample, alpha, tables(n))
                assert got == feature_intervals_tree(sample, alpha, tables(n))
                most_ties = max([most_ties] + [
                    certifying_at_left_end(sample, alpha, tables(n), f) for f in got
                ])
        assert most_ties >= 2

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    @pytest.mark.parametrize("shape", ["exponential", "sqrt_uniform"])
    def test_monotone_density_matches_tree_search(self, tables, shape, alpha):
        """The scan's worst shape: on a monotone density the hulls overlap
        most, so every jump re-reads a long interior.  Exponential data and
        the square root of uniform data (density 2x on [0, 1]) at n = 1000."""
        from mshist.densities import get_density

        if shape == "exponential":
            sample = get_density("exponential").sampler(11, 1000)
        else:
            sample = SortedSample(np.sqrt(np.random.default_rng(11).random(1000)))
        got = significant_feature_intervals(sample, alpha, tables(1000))
        assert got == feature_intervals_tree(sample, alpha, tables(1000))
        assert len(got) > 10 and len({f.direction for f in got}) == 1
        assert overlaps([f.hull for f in got]) > len(got) // 2

    def test_tied_bounds_match_tree_search(self, tables):
        """Two equally spaced stretches: all system intervals of one count
        inside a stretch have the same width, so the bounds tie exactly and
        the witnesses and margins depend on how ties are broken."""
        sample = SortedSample(
            np.concatenate([np.arange(500.0), 500 + 0.25 * np.arange(1, 501)])
        )
        for alpha in (0.1, 0.5):
            got = significant_feature_intervals(sample, alpha, tables(1000))
            assert got and got == feature_intervals_tree(sample, alpha, tables(1000))

    def test_witnesses_reverify(self, tables):
        from mshist.densities import get_density

        sample = get_density("bimodal").sampler(7, 900)
        table = tables(900)
        kappa = lookup_kappa(table, 0.1, 900)
        x = sample.values
        feats = significant_feature_intervals(sample, 0.1, table)
        assert feats
        for f in feats:
            a, b = f.witnesses
            assert a.k <= b.j  # disjoint, ordered
            da = a.count / 900 / (x[a.k - 1] - x[a.j - 1])
            db = b.count / 900 / (x[b.k - 1] - x[b.j - 1])
            ra = radius_oracle(a.count, 900, x[a.k - 1] - x[a.j - 1], kappa)
            rb = radius_oracle(b.count, 900, x[b.k - 1] - x[b.j - 1], kappa)
            diff = db - da if f.direction == "increase" else da - db
            assert diff > 0.5 * ra + 0.5 * rb
            assert f.margin == pytest.approx(diff - 0.5 * ra - 0.5 * rb, rel=1e-9)
            assert f.hull == (x[a.j - 1], x[b.k - 1])

    def test_hull_minimality(self, tables):
        from mshist.densities import get_density

        sample = get_density("bimodal").sampler(7, 900)
        feats = significant_feature_intervals(sample, 0.1, tables(900))
        for f in feats:
            for g in feats:
                if f is not g and f.direction == g.direction:
                    strictly_inside = (
                        g.hull[0] >= f.hull[0]
                        and g.hull[1] <= f.hull[1]
                        and g.hull != f.hull
                    )
                    assert not strictly_inside

    def test_bimodal_alternating_pattern(self, tables):
        from mshist.densities import get_density

        sample = get_density("bimodal").sampler(7, 900)
        feats = significant_feature_intervals(sample, 0.1, tables(900))
        assert lower_bound_modes(feats) == (2, 1)

    def test_crafted_increase(self, tables):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 10, 10), rng.uniform(10, 11, 10)])
        sample = SortedSample(x)
        feats = significant_feature_intervals(sample, 0.9, tables(20))
        assert any(f.direction == "increase" for f in feats)

    def test_small_sample_certifies_nothing(self):
        """Below the interval system's threshold there is no interval pair:
        no feature, no table read, and alpha is still checked."""
        sample = SortedSample([0.1, 0.3, 0.4, 0.6, 0.9])
        assert significant_feature_intervals(sample, 0.1, None) == []
        for alpha in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="alpha must lie in"):
                significant_feature_intervals(sample, alpha, None)


def test_feature_interval_checks_direction_and_margin():
    FeatureInterval((0.0, 1.0), "decrease", 1e-300, ())
    with pytest.raises(ValueError, match="direction must be"):
        FeatureInterval((0.0, 1.0), "up", 1.0, ())
    for margin in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="margin must be strictly positive"):
            FeatureInterval((0.0, 1.0), "increase", margin, ())


class TestLowerBoundModes:
    def _feat(self, lo, hi, direction):
        return FeatureInterval((lo, hi), direction, 1.0, ())

    def test_empty(self):
        assert lower_bound_modes([]) == (0, 0)

    def test_single_pair(self):
        feats = [self._feat(0, 1, "increase"), self._feat(2, 3, "decrease")]
        assert lower_bound_modes(feats) == (1, 0)

    def test_two_modes_one_trough(self):
        feats = [
            self._feat(0, 1, "increase"),
            self._feat(2, 3, "decrease"),
            self._feat(4, 5, "increase"),
            self._feat(6, 7, "decrease"),
        ]
        assert lower_bound_modes(feats) == (2, 1)

    def test_overlapping_hulls_not_chained(self):
        feats = [self._feat(0, 2, "increase"), self._feat(1, 3, "decrease")]
        assert lower_bound_modes(feats) == (0, 0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        feats = []
        pos = 0.0
        for i in range(9):
            d = "increase" if i % 2 == 0 else "decrease"
            feats.append(self._feat(pos, pos + 1, d))
            pos += 2
        expect = lower_bound_modes(feats)
        assert expect == (4, 4)
        for _ in range(5):
            perm = [feats[i] for i in rng.permutation(len(feats))]
            assert lower_bound_modes(perm) == expect

    def test_matches_reference_on_random_feature_lists(self):
        """0-12 hulls on a small integer grid, so that ends touch, hulls nest
        and sort keys tie, with both directions in any order."""
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(20_000):
            size = int(rng.integers(0, 13))
            ends = np.sort(rng.integers(0, 10, (size, 2)), axis=1).tolist()
            dirs = rng.choice(["increase", "decrease"], size).tolist()
            feats = [self._feat(lo, hi, d) for (lo, hi), d in zip(ends, dirs)]
            got = lower_bound_modes(feats)
            assert got == lower_bound_modes_reference(feats), feats
            assert {type(v) for v in got} <= {int}
            seen.add(got)
        # a mode or a trough ahead, and chains of every parity
        assert {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)} <= seen

    def test_matches_reference_on_acceptance_samples(self, tables):
        """The feature lists of the acceptance suite's samples: criterion 9's
        uniform, claw and exponential samples at n = 100-200 over its five
        levels, and criterion 6's first claw samples at n = 3000."""
        from mshist.densities import get_density

        def seeded(key, rep):
            ss = np.random.SeedSequence(entropy=SEED, spawn_key=(key, rep))
            return int(ss.generate_state(1)[0])

        cycle = (("uniform", 100), ("claw", 150), ("exponential", 200))
        levels = (0.05, 0.1, 0.3, 0.5, 0.9)
        cases = [(*cycle[i % 3], seeded(9, i), levels) for i in range(50)]
        cases += [("claw", 3000, seeded(6, rep), (0.9,)) for rep in range(3)]
        certified = 0
        for name, n, seed, alphas in cases:
            sample = get_density(name).sampler(seed, n)
            for alpha in alphas:
                feats = significant_feature_intervals(sample, alpha, tables(n))
                got = lower_bound_modes(feats)
                assert got == lower_bound_modes_reference(feats), (name, n, alpha)
                certified += got != (0, 0)
        assert certified > 10, certified
