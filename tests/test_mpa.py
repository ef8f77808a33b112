"""Measure-preserving automorphism constructions and their sampling checks."""

import os
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats as scipy_stats

import anchordt
from anchordt import cli, mpa


def gaussian_sampler(mu=0.0, sigma=1.0):
    return lambda rng, n: mu + sigma * rng.standard_normal(n)


def elementwise(f):
    """f applied to each entry of a 1-D array, as float64, as mpa-check maps it."""
    return lambda x: np.fromiter(map(f, x.tolist()), np.float64, len(x))


def gaussian_conjugates(mu=0.0, sigma=1.0):
    """The N(mu, sigma^2) CDF conjugate built from scipy, the oracle, and from
    statistics.NormalDist, as mpa-check builds it."""
    law = NormalDist(mu, sigma)
    return (mpa.cdf_conjugate_mpa(lambda x: scipy_stats.norm.cdf(x, mu, sigma),
                                  lambda q: scipy_stats.norm.ppf(q, mu, sigma)),
            mpa.cdf_conjugate_mpa(elementwise(law.cdf), elementwise(law.inv_cdf)))


def exponential_conjugates():
    """The Exp(1) CDF conjugate built from scipy, the oracle, and the one
    mpa-check builds from numpy's expm1 and log1p."""
    return (mpa.cdf_conjugate_mpa(lambda x: scipy_stats.expon.cdf(x),
                                  lambda q: scipy_stats.expon.ppf(q)),
            mpa.cdf_conjugate_mpa(lambda x: -np.expm1(-x), cli._exponential_quantile))


class TestReflection:
    def test_reflects_through_mu(self):
        m = mpa.reflection_mpa(0.0)
        assert m(1.0) == -1.0

    def test_mu_is_fixed(self):
        for mu in (-2.0, 0.0, 0.7):
            assert mpa.reflection_mpa(mu)(mu) == mu

    def test_involution(self):
        m = mpa.reflection_mpa(1.3)
        x = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(m(m(x)), x, atol=1e-12)


class TestCdfConjugate:
    def test_uniform_gives_one_minus_u(self):
        m = mpa.cdf_conjugate_mpa(lambda u: u, lambda q: q)
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(m(u), 1.0 - u, atol=1e-12)
        assert m(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_gaussian_reduces_to_reflection(self):
        mu, sigma = 0.4, 2.0
        oracle, stdlib = gaussian_conjugates(mu, sigma)
        x = np.linspace(mu - 6 * sigma, mu + 6 * sigma, 241)
        for m in (oracle, stdlib):
            assert m(x).dtype == np.float64
            np.testing.assert_allclose(m(x), 2 * mu - x, atol=1e-7)
        # 1 - F keeps few bits in the far tail: out to 6 sigma the two differ
        # by 2e-8 at most, within 3 sigma by rounding alone
        np.testing.assert_allclose(stdlib(x), oracle(x), rtol=0, atol=1e-7)
        inner = np.abs(x - mu) <= 3 * sigma
        np.testing.assert_allclose(stdlib(x[inner]), oracle(x[inner]), rtol=0, atol=1e-12)

    def test_exponential_fixed_point_at_ln2(self):
        oracle, numpy_only = exponential_conjugates()
        for m in (oracle, numpy_only):
            assert m(np.array([np.log(2.0)]))[0] == pytest.approx(np.log(2.0), abs=1e-12)
        x = np.linspace(0.01, 20.0, 2001)
        np.testing.assert_allclose(numpy_only(x), oracle(x), rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exponential_far_tail_maps_to_inf_silently(self):
        # below x = 1.1e-16, 1 - F(x) rounds to 1, whose quantile is inf
        x = np.array([0.0, 1e-300])
        for m in exponential_conjugates():
            assert m(x).tolist() == [np.inf, np.inf]

    def test_involution_where_cdf_roundtrips(self):
        x = np.linspace(-3, 3, 101)
        for m in gaussian_conjugates():
            np.testing.assert_allclose(m(m(x)), x, atol=1e-9)

    def test_inconsistent_inverse_raises(self):
        bad = mpa.cdf_conjugate_mpa(lambda x: scipy_stats.norm.cdf(x),
                                    lambda q: 2.0 * scipy_stats.norm.ppf(q))
        with pytest.raises(mpa.InverseConsistencyError):
            bad(np.array([1.0]))


def pointwise_roots(m, interval):
    """count_fixed_points' locations, one grid interval at a time."""
    grid = np.linspace(*interval, mpa.FIXED_POINT_GRID)
    resid = m(grid) - grid
    roots = []
    for i in range(grid.size - 1):
        if resid[i] == 0.0:
            roots.append(grid[i])
        elif resid[i] * resid[i + 1] < 0:
            roots.append(mpa._bisect(m, grid[i], grid[i + 1]))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1000 * mpa.FIXED_POINT_TOLERANCE:
            merged.append(r)
    return merged


class TestPushforwardKs:
    def test_identity_map_statistic_near_sampling_noise(self):
        # two-sample KS critical scale: 1.36 * sqrt(2/n), allow 1.5x
        n = 100000
        cap = 1.36 * np.sqrt(2.0 / n) * 1.5
        for seed in range(5):
            stat = mpa.pushforward_ks_check(gaussian_sampler(), lambda x: x,
                                            n, seed)
            assert stat < cap

    def test_gaussian_reflection_passes(self):
        stat = mpa.pushforward_ks_check(gaussian_sampler(0.7, 1.1),
                                        mpa.reflection_mpa(0.7), 100000, 0)
        assert stat < 0.01

    def test_shift_map_fails_loudly(self):
        # KS distance between N(0,1) and N(1,1) is 2*Phi(1/2)-1 ~ 0.383
        stat = mpa.pushforward_ks_check(gaussian_sampler(),
                                        lambda x: x + 1.0, 100000, 0)
        assert stat > 0.3

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 1000"):
            mpa.pushforward_ks_check(gaussian_sampler(), lambda x: x, 10, 0)


class TestFixedPoints:
    def test_reflection_has_single_fixed_point(self):
        report = mpa.count_fixed_points(mpa.reflection_mpa(0.7), (-5.0, 5.0))
        assert report.count == 1
        assert report.locations[0] == pytest.approx(0.7, abs=1e-6)
        assert not report.is_identity

    def test_identity_flagged_separately(self):
        report = mpa.count_fixed_points(lambda x: x, (-2.0, 2.0))
        assert report.is_identity
        assert report.count == 0

    def test_exponential_conjugate_fixed_point(self):
        for m in exponential_conjugates():
            report = mpa.count_fixed_points(m, (0.01, 10.0))
            assert report.count == 1
            assert report.locations[0] == pytest.approx(np.log(2.0), abs=1e-6)

    def test_multiple_roots_counted(self):
        # sin(3x) = 0 at x = k*pi/3; five such points fall inside [-3, 3]
        report = mpa.count_fixed_points(lambda x: x + np.sin(3 * x),
                                        (-3.0, 3.0))
        assert report.count == 5
        np.testing.assert_allclose(report.locations,
                                   [k * np.pi / 3 for k in range(-2, 3)],
                                   atol=1e-6)

    def test_scan_matches_pointwise_loop(self, monkeypatch):
        # m(x) - x is exactly 0 on [-1, 1] and sin(3x) outside it: grid zeros,
        # zero-to-nonzero steps that are no crossing, and four sign changes
        def m(x):
            return x + np.where(np.abs(x) > 1.0, np.sin(3 * x), 0.0)

        monkeypatch.setattr(mpa, "FIXED_POINT_GRID", 2001)
        report = mpa.count_fixed_points(m, (-3.0, 3.0))
        assert report.locations == pointwise_roots(m, (-3.0, 3.0))
        assert report.count == len(report.locations) > 4

    def test_blocked_scan_matches_pointwise_loop(self, monkeypatch):
        # three full blocks and a partial one of 5 points: an exact grid zero
        # on the first point of block 1, a crossing between the last point of
        # block 1 and the first of block 2, and one inside the partial block
        block = mpa.FIXED_POINT_BLOCK
        interval = (-3.0, 3.0)
        monkeypatch.setattr(mpa, "FIXED_POINT_GRID", 3 * block + 5)
        grid = np.linspace(*interval, mpa.FIXED_POINT_GRID)
        step = grid[1] - grid[0]
        on_edge = grid[block]
        across_edge = grid[2 * block - 1] + 0.5 * step
        in_tail = grid[-3] + 0.3 * step

        def m(x):
            return x + (x - on_edge) * (x - across_edge) * (x - in_tail)

        report = mpa.count_fixed_points(m, interval)
        expected = pointwise_roots(m, interval)
        assert report.locations == expected
        assert report.count == 3 and expected[0] == on_edge
        assert abs(expected[1] - across_edge) < 1e-6
        assert abs(expected[2] - in_tail) < 1e-6

    def test_map_sees_at_most_one_block(self):
        sizes = []

        def m(x):
            sizes.append(np.asarray(x).size)
            return 0.3 - x

        report = mpa.count_fixed_points(m, (-1.0, 1.0))
        assert report.count == 1
        assert max(sizes) <= 1 << 14
        # the scan's calls cover the grid once, then bisection's take a
        # point each
        scan_calls = -(-mpa.FIXED_POINT_GRID // mpa.FIXED_POINT_BLOCK)
        assert sum(sizes[:scan_calls]) == mpa.FIXED_POINT_GRID
        assert set(sizes[scan_calls:]) <= {1}


class TestPermutedMpa:
    def test_swap_identity_fixed_fraction_vanishes(self):
        pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                             maps=[lambda v: v, lambda v: v])
        frac = mpa.permutation_fixed_measure_probe(
            pm, lambda rng, n: rng.standard_normal((2, n)), 100000, 1e-3, 0)
        assert frac <= 1e-3

    def test_swap_with_reflections_fixed_line(self):
        # h(Pi x) = (-x2, -x1): fixed set is the line x2 = -x1
        pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                             maps=[mpa.reflection_mpa(0.0),
                                   mpa.reflection_mpa(0.0)])
        frac = mpa.permutation_fixed_measure_probe(
            pm, lambda rng, n: rng.standard_normal((2, n)), 100000, 1e-3, 1)
        assert frac <= 1e-3

    def test_fraction_is_monotone_in_tolerance(self):
        pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                             maps=[lambda v: v, lambda v: v])
        sampler = lambda rng, n: rng.standard_normal((2, n))
        fracs = [mpa.permutation_fixed_measure_probe(pm, sampler, 100000, tol, 2)
                 for tol in (1e-4, 1e-2, 1e-1)]
        assert fracs[0] <= fracs[1] <= fracs[2]

    def test_planted_fixed_point_detected(self):
        pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                             maps=[lambda v: v, lambda v: v])

        def sampler_with_plant(rng, n):
            pts = rng.standard_normal((2, n)) + 5.0   # off the fixed line
            pts[:, 0] = 0.25                          # exactly on x1 = x2
            return pts

        frac = mpa.permutation_fixed_measure_probe(pm, sampler_with_plant,
                                                   100000, 1e-3, 3)
        assert frac >= 1.0 / 100000

    def test_identity_permutation_rejected(self):
        pm = mpa.PermutedMpa(permutation=np.array([0, 1]),
                             maps=[lambda v: v, lambda v: v])
        with pytest.raises(ValueError, match="non-identity"):
            mpa.permutation_fixed_measure_probe(
                pm, lambda rng, n: rng.standard_normal((2, n)), 100000, 1e-3, 0)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            mpa.PermutedMpa(permutation=np.array([0, 0]),
                            maps=[lambda v: v, lambda v: v])


class TestFiniteTranslations:
    def test_uniform_transports_are_id_and_flip(self):
        report = mpa.finite_translations_check(
            lambda rng, n: rng.uniform(0.0, 1.0, n), lambda x: x, seed=0)
        assert report.ks_increasing < 0.01
        assert report.ks_decreasing < 0.01
        assert report.crossing_count == 1

    def test_gaussian_shift_pair(self):
        report = mpa.finite_translations_check(
            gaussian_sampler(), lambda x: x + 3.0, seed=1)
        assert report.ks_increasing < 0.01
        assert report.ks_decreasing < 0.01
        assert report.crossing_count == 1

    def test_transports_match_analytic_forms(self):
        # p1 = N(0,1), p2 = N(3,1): increasing transport x+3, decreasing 3-x
        rng = np.random.default_rng(5)
        f1 = mpa.EmpiricalCdf(rng.standard_normal(200000))
        f2 = mpa.EmpiricalCdf(rng.standard_normal(200000) + 3.0)
        grid = np.linspace(-1.5, 1.5, 41)
        up = f2.quantile(f1.cdf(grid))
        down = f2.quantile(1.0 - f1.cdf(grid))
        assert np.abs(up - (grid + 3.0)).max() < 0.05
        assert np.abs(down - (3.0 - grid)).max() < 0.05


class TestEmpiricalCdf:
    def test_roundtrip_in_interior(self):
        sample = np.random.default_rng(0).standard_normal(50000)
        cdf = mpa.EmpiricalCdf(sample)
        x = np.linspace(-2, 2, 21)
        np.testing.assert_allclose(cdf.quantile(cdf.cdf(x)), x, atol=1e-3)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            mpa.EmpiricalCdf(np.array([1.0]))


def scipy_ks(a, b) -> float:
    return float(scipy_stats.ks_2samp(a, b).statistic)


class TestKsStatistic:
    # scipy's exact mode (both sizes <= 10000) snaps the statistic onto the
    # 1/lcm lattice; 10001 and 100000 take its asymptotic branch
    @pytest.mark.parametrize("n1, n2", [
        (2, 2), (17, 17), (1000, 1000), (5000, 5000), (10000, 10000),
        (10001, 10001), (100000, 100000), (2, 17), (17, 1000), (1000, 5000),
        (10000, 10001), (5000, 100000), (100000, 10001)])
    def test_matches_scipy_bit_for_bit(self, n1, n2):
        rng = np.random.default_rng(n1 + 7 * n2)
        a = rng.standard_normal(n1)
        b = 0.05 + rng.standard_normal(n2)
        assert mpa._ks_statistic(a, b).hex() == scipy_ks(a, b).hex()

    @pytest.mark.parametrize("n1, n2", [
        (2, 2), (17, 17), (1000, 1000), (10000, 10000), (10001, 10001),
        (100000, 100000), (17, 1000), (10000, 10001), (5000, 100000)])
    def test_heavy_ties_match_scipy_bit_for_bit(self, n1, n2):
        rng = np.random.default_rng(n1 + 11 * n2)
        a = rng.integers(0, 6, n1) * 0.5
        b = rng.integers(1, 7, n2) * 0.5
        assert mpa._ks_statistic(a, b).hex() == scipy_ks(a, b).hex()

    @pytest.mark.parametrize("n", [2, 17, 10001, 100000])
    def test_a_sample_against_itself_is_zero(self, n):
        a = np.random.default_rng(n).standard_normal(n)
        # +0.0, as scipy gives: its tie rule keeps the max side, not -min
        assert mpa._ks_statistic(a, a).hex() == scipy_ks(a, a).hex() == (0.0).hex()

    @pytest.mark.parametrize("n1, n2", [(2, 2), (17, 1000), (10001, 100000)])
    def test_disjoint_supports_give_one(self, n1, n2):
        rng = np.random.default_rng(n1)
        a, b = rng.uniform(0.0, 1.0, n1), rng.uniform(2.0, 3.0, n2)
        assert mpa._ks_statistic(a, b) == mpa._ks_statistic(b, a) == 1.0
        assert scipy_ks(a, b) == 1.0

    def test_input_order_and_arrays_are_left_alone(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(500), rng.standard_normal(300)
        a_copy, b_copy = a.copy(), b.copy()
        value = mpa._ks_statistic(a, b)
        np.testing.assert_array_equal(a, a_copy)
        np.testing.assert_array_equal(b, b_copy)
        assert mpa._ks_statistic(a[::-1], rng.permutation(b)) == value

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mpa._ks_statistic(np.array([]), np.ones(3))


def reference_finite_translations(p1_sampler, transport, seed, n_fit, n_test,
                                  ks=scipy_ks, presort=False):
    """finite_translations_check as it was written with two transport lambdas,
    each evaluating F1 itself: with scipy's KS test and unsorted test draws,
    or with ``_ks_statistic`` and sorted ones."""
    rng = np.random.default_rng(seed)
    f1 = mpa.EmpiricalCdf(p1_sampler(rng, n_fit))
    f2 = mpa.EmpiricalCdf(transport(p1_sampler(rng, n_fit)))
    r_up = lambda x: f2.quantile(f1.cdf(x))
    r_down = lambda x: f2.quantile(1.0 - f1.cdf(x))
    x_test = p1_sampler(rng, n_test)
    if presort:
        x_test = np.sort(x_test)
    y_test = transport(p1_sampler(rng, n_test))
    ks_up = ks(r_up(x_test), y_test)
    ks_down = ks(r_down(x_test), y_test)
    lo, hi = np.quantile(x_test, 0.001), np.quantile(x_test, 0.999)
    grid = np.linspace(lo, hi, 20001)
    signs = np.sign(r_up(grid) - r_down(grid))
    signs = signs[signs != 0]
    return mpa.FiniteTranslationsReport(
        ks_increasing=ks_up, ks_decreasing=ks_down,
        crossing_count=int((signs[:-1] != signs[1:]).sum()))


def assert_finite_translations_match_reference(seed, **reference):
    args = (lambda rng, k: rng.standard_normal(k), lambda x: x + 3.0, seed)
    new = mpa.finite_translations_check(*args, n_fit=100000, n_test=100000)
    old = reference_finite_translations(*args, n_fit=100000, n_test=100000, **reference)
    assert new == old
    assert new.ks_increasing.hex() == old.ks_increasing.hex()
    assert new.ks_decreasing.hex() == old.ks_decreasing.hex()


@pytest.mark.parametrize("seed", [5, 13, 41])
def test_finite_translations_report_is_the_unsorted_scipy_report(seed):
    assert_finite_translations_match_reference(seed)


@pytest.mark.parametrize("seed", [5, 13, 41])
def test_finite_translations_report_is_the_two_lambda_report(seed):
    assert_finite_translations_match_reference(seed, ks=mpa._ks_statistic, presort=True)


def test_checks_run_without_scipy():
    src = os.path.dirname(os.path.dirname(anchordt.__file__))
    code = "\n".join([
        "import sys",
        "from anchordt import mpa",
        "gauss = lambda rng, k: rng.standard_normal(k)",
        "assert mpa.pushforward_ks_check(gauss, mpa.reflection_mpa(0.0), 2000, 1) < 0.1",
        "report = mpa.finite_translations_check(gauss, lambda x: x + 3.0, 2,",
        "                                       n_fit=2000, n_test=2000)",
        "assert report.crossing_count == 1",
        "assert 'scipy' not in sys.modules, 'scipy was imported'",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
