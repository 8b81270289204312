import functools
import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

import detperm as dp
from detperm.core import CapacityError, ParameterError, gamma_cdf
from detperm.harness import chi2_sf, ks_distance, ks_sf, normal_cdf, run_suite
from detperm.planar import base_density

from conftest import chi_square_homogeneity, tabulate


class TestChiSquareFit:
    def test_calibration_under_the_null(self):
        # rejection rate at significance 0.05 should be within a factor 2
        pmf = np.array([0.3, 0.5, 0.2])
        rejections = 0
        for seed in range(200):
            rng = dp.stream(1000 + seed)
            draws = rng.choice(3, size=4000, p=pmf)
            report = dp.chi_square_fit(tabulate(draws, 3), pmf, significance=0.05)
            rejections += not report.passed
        assert 5 <= rejections <= 20

    def test_rare_false_failure_at_strict_significance(self):
        pmf = np.array([0.3, 0.5, 0.2])
        failures = 0
        for seed in range(200):
            rng = dp.stream(5000 + seed)
            draws = rng.choice(3, size=4000, p=pmf)
            failures += not dp.chi_square_fit(tabulate(draws, 3), pmf).passed
        assert failures <= 2

    def test_power_against_shifted_pmf(self):
        rng = dp.stream(7)
        truth = np.array([0.25, 0.5, 0.25])
        shifted = np.array([0.30, 0.45, 0.25])
        draws = rng.choice(3, size=100000, p=truth)
        report = dp.chi_square_fit(tabulate(draws, 3), shifted)
        assert report.p_value < 1e-6

    def test_low_expected_bins_are_merged(self):
        observed = np.array([500, 480, 3, 1, 0, 2])
        pmf = np.array([0.5, 0.49, 0.003, 0.003, 0.002, 0.002])
        report = dp.chi_square_fit(observed, pmf)
        assert report.details["dof"] == 2  # six bins merged down to three

    def test_all_mass_one_bin_is_error(self):
        with pytest.raises(dp.DetpermError):
            dp.chi_square_fit(np.array([3]), np.array([1.0]))

    def test_observations_beyond_support_use_tail_bin(self):
        # values past the pmf range are compared against the tail mass
        observed = np.array([450, 300, 150, 60, 25, 15])
        pmf = np.array([0.45, 0.30, 0.15])
        report = dp.chi_square_fit(observed, pmf, tail_bound=0.10)
        assert report.passed


class TestChiSquareHomogeneity:
    def test_identical_distributions_pass(self, rng):
        a = tabulate(rng.choice(4, size=20000, p=[0.4, 0.3, 0.2, 0.1]), 4)
        b = tabulate(rng.choice(4, size=20000, p=[0.4, 0.3, 0.2, 0.1]), 4)
        assert chi_square_homogeneity(a, b).passed

    def test_different_distributions_fail(self, rng):
        a = tabulate(rng.choice(2, size=50000, p=[0.5, 0.5]), 2)
        b = tabulate(rng.choice(2, size=50000, p=[0.55, 0.45]), 2)
        report = chi_square_homogeneity(a, b)
        assert not report.passed

    def test_dict_input(self, rng):
        a = {(0, 1): 500, (1, 0): 480, (2, 2): 30}
        b = {(0, 1): 520, (1, 0): 470, (2, 2): 25}
        assert chi_square_homogeneity(a, b).passed


def uniform_cdf(x):
    return np.clip(x, 0, 1)


# scipy's name and parameters of a law, our CDF of it, and a sampler of it
KS_LAWS = [
    ("uniform", (), uniform_cdf, lambda r, n: r.random(n)),
    ("norm", (), normal_cdf, lambda r, n: r.normal(size=n)),
    ("gamma", (1,), functools.partial(gamma_cdf, shape=1), lambda r, n: r.gamma(1.0, size=n)),
    ("gamma", (4,), functools.partial(gamma_cdf, shape=4), lambda r, n: r.gamma(4.0, size=n)),
    ("beta", (3, 1), lambda x: np.clip(x, 0, 1) ** 3, lambda r, n: r.beta(3.0, 1.0, size=n)),
    ("beta", (0.5, 1), lambda x: np.clip(x, 0, 1) ** 0.5,
     lambda r, n: r.beta(0.5, 1.0, size=n)),
]


class TestKsFit:
    def test_uniform(self, rng):
        assert dp.ks_fit(rng.random(20000), uniform_cdf).passed

    def test_gamma(self, rng):
        assert dp.ks_fit(rng.gamma(3.0, size=20000), functools.partial(gamma_cdf, shape=3)).passed

    def test_too_few_samples(self, rng):
        with pytest.raises(dp.DetpermError):
            dp.ks_fit(rng.random(5), uniform_cdf)

    def test_non_finite_samples_rejected(self, rng):
        x = rng.random(100)
        x[3] = np.nan
        with pytest.raises(dp.DetpermError, match="finite"):
            dp.ks_fit(x, uniform_cdf)

    # ids: scipy's name of the law, its parameter set, the sampler
    @pytest.mark.parametrize("name, args, cdf, draw", KS_LAWS,
                             ids=[f"{law[0]}-args{i}-<lambda>" for i, law in enumerate(KS_LAWS)])
    @pytest.mark.parametrize("n", [12, 300, 20000])
    def test_matches_scipy_kstest(self, name, args, cdf, draw, n):
        x = draw(dp.stream(n), n)
        ours = dp.ks_fit(x, cdf)
        ref = stats.kstest(x, name, args=args)
        assert ours.statistic == pytest.approx(ref.statistic, rel=0, abs=1e-13)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=0, abs=5e-6 if n > 140 else 2e-3)

    def test_callable_cdf_gets_sorted_samples_and_args(self, rng):
        # parameters are bound into the CDF, which sees the sorted sample
        x = rng.random(500) ** (1 / 3)
        seen = []

        def cdf(t, a):
            seen.append(t)
            return np.clip(t, 0, 1) ** a

        ours = dp.ks_fit(x, functools.partial(cdf, a=3))
        np.testing.assert_array_equal(seen, [np.sort(x)])
        ref = stats.kstest(x, "beta", args=(3, 1)).statistic
        assert ours.statistic == pytest.approx(ref, rel=0, abs=1e-15)
        assert ours.passed


class TestClosedForms:
    """The closed-form null laws against scipy, which the runtime never imports."""

    def test_chi2_sf(self):
        for dof in range(1, 200):
            p = [1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-9]
            xs = np.concatenate([stats.chi2.isf(p, dof), [1e-8, 0.5, 3.0, 1000.0]])
            ours = np.array([chi2_sf(float(x), dof) for x in xs])
            np.testing.assert_allclose(ours, stats.chi2.sf(xs, dof), rtol=1e-11, atol=0)
        assert chi2_sf(0.0, 3) == 1.0 and chi2_sf(-1.0, 2) == 1.0
        assert chi2_sf(math.inf, 5) == 0.0
        with pytest.raises(ParameterError):
            chi2_sf(1.0, 0)

    @pytest.mark.parametrize("n", [10, 17, 60, 140, 141, 400, 2000, 20000])
    def test_ks_sf(self, n):
        cut = math.sqrt(2.2 / n)
        ds = np.unique(np.concatenate([
            np.linspace(-0.1, 1.1, 49),                       # d <= 0 and d >= 1 included
            np.arange(0, n + 1, max(1, n // 50)) / n,         # d = k/n exactly
            cut * np.array([0.9, 0.999, 1.0, 1.001, 1.1]),    # either side of the branch cut
            np.linspace(0.2, 3.0, 15) / math.sqrt(n),         # the bulk of the null law
        ]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = np.array([ks_sf(float(d), n) for d in ds])
        ref = np.clip(stats.kstwo.sf(ds, n), 0, 1)
        tol = 5e-6 if n >= 141 else 2e-3
        assert np.abs(ours - ref).max() <= tol
        assert ((0 <= ours) & (ours <= 1)).all()

    def test_gamma_cdf(self):
        for shape in range(1, 41):
            x = np.concatenate([[0.0, 1e-300, 1e-8, 800.0],
                                np.linspace(0, 3 * shape + 40, 400)])
            np.testing.assert_allclose(gamma_cdf(x, shape), special.gammainc(shape, x),
                                       rtol=0, atol=2e-15)
        assert gamma_cdf(-1.0, 2) == 0.0
        with pytest.raises(CapacityError):
            gamma_cdf(1.0, 501)

    def test_normal_and_beta_cdfs(self):
        x = np.concatenate([np.linspace(-37, 8, 2001), [0.0, -1e-10, 1e-10]])
        np.testing.assert_allclose(normal_cdf(x), special.ndtr(x), rtol=1e-12, atol=0)
        q = np.linspace(-0.5, 1.5, 401)
        disk = base_density("lebesgue-disk")
        for k in (0, 1, 2, 7):  # beta(k + 1, 1), the disk base's size-biased laws
            beta = disk.cdf_q(k, q)
            np.testing.assert_allclose(beta, np.clip(q, 0, 1) ** (k + 1), rtol=0, atol=0)
            np.testing.assert_allclose(beta, stats.beta.cdf(q, k + 1, 1), rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(disk.cdf_q(0, q), np.clip(q, 0, 1))
        gauss = base_density("gaussian")
        for k in (0, 3, 30):  # gamma(k + 1, 1)
            np.testing.assert_array_equal(gauss.cdf_q(k, q), gamma_cdf(q, k + 1))

    def test_ks_distance_with_ties(self):
        # a lattice sample: the distance is read at both ends of each run of ties
        z = np.repeat([-1.0, 0.0, 2.0], [3, 5, 2])
        ref = stats.kstest(z, "norm").statistic
        assert ks_distance(z, normal_cdf) == pytest.approx(ref, rel=0, abs=1e-15)


class TestCltCheck:
    def test_preconditions(self, rng):
        with pytest.raises(ParameterError):
            dp.clt_check([[0.5] * 8, [0.5] * 64], 1000, rng)
        # degenerate levels (all eigenvalues 1) have zero variance
        with pytest.raises(ParameterError):
            dp.clt_check([[1.0] * 8, [1.0] * 64, [1.0] * 512], 1000, rng)

    def test_ks_shrinks_like_root_variance(self, rng):
        levels = [[0.5] * 8, [0.5] * 64, [0.5] * 512]
        report = dp.clt_check(levels, 30000, rng)
        ks = report.details["ks_per_level"]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        for a, b in zip(ks, ks[1:]):
            assert 1.8 < a / b < 4.5  # roughly sqrt(var ratio) = 2.83

    def test_passes_at_high_final_variance(self, rng):
        levels = [[0.5] * 16, [0.5] * 128, [0.5] * 1024]
        report = dp.clt_check(levels, 30000, rng)
        assert report.passed
        assert report.details["variance_per_level"][-1] >= 50
        assert report.statistic < 0.02

    def test_biased_stream_fails_at_every_level(self):
        # mutation: indicators drawn at p = 0.52 but standardized as 0.5
        class Biased:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                return self.rng.random(size) - 0.02

        levels = [[0.5] * 16, [0.5] * 128, [0.5] * 1024]
        report = dp.clt_check(levels, 20000, Biased(dp.stream(52)))
        assert not report.passed
        failed = report.details["failed"]
        for level in range(3):
            assert any(f.startswith(f"level {level}: counts do not fit") for f in failed)
            assert any(f.startswith(f"level {level}: KS distance") for f in failed)

    def test_bound_is_berry_esseen_plus_dkw(self, rng):
        levels = [[0.2] * 10, [0.2] * 40, [0.2] * 160]
        report = dp.clt_check(levels, 5000, rng)
        assert report.passed and "failed" not in report.details
        rho = 0.2 * 0.8 * (0.2**2 + 0.8**2)
        band = math.sqrt(math.log(2 * 3 / 1e-3) / (2 * 5000))
        for n, bound in zip((10, 40, 160), report.details["ks_bound_per_level"]):
            assert abs(bound - (0.56 * n * rho / (n * 0.16) ** 1.5 + band)) < 1e-12


class TestReproducibility:
    def test_reports_bitwise_stable(self):
        def make():
            rng = dp.stream(33)
            draws = [dp.sample_categorical([1, 2, 1], rng) for _ in range(5000)]
            return dp.chi_square_fit(tabulate(draws, 3), np.array([0.25, 0.5, 0.25]))

        a, b = make(), make()
        assert a == b


class TestRunSuite:
    def test_small_suite(self, tmp_path):
        suite = {
            "checks": [
                {"type": "categorical", "weights": [1.0, 2.0, 1.0], "samples": 20000},
                {"type": "kostlan", "n": 2, "samples": 5000},
            ]
        }
        reports = run_suite(suite, seed=11)
        assert len(reports) == 3  # one categorical + one per modulus
        assert all(r.passed for r in reports)
        again = run_suite(suite, seed=11)
        assert [r.statistic for r in reports] == [r.statistic for r in again]

    def test_kernel_and_graph_checks(self, tmp_path):
        from conftest import kernel_from_spectrum

        kpath = tmp_path / "k.json"
        kernel_from_spectrum(
            dp.GroundSet.uniform(3), [0.2, 0.5, 0.9], dp.stream(1)
        ).save(kpath)
        gpath = tmp_path / "g.txt"
        gpath.write_text("a b\nb c\nc d\nd a\na c\n")
        suite = {
            "checks": [
                {"type": "dpp_count_law", "kernel": str(kpath), "samples": 4000},
                {"type": "perm_count_law", "kernel": str(kpath), "samples": 4000,
                 "nmax": 60},
                {"type": "ust_subset_counts", "graph": str(gpath), "samples": 4000,
                 "subset": [0, 1, 2]},
                {"type": "clt",
                 "binomial_levels": {"p": 0.5, "sizes": [16, 64, 256]},
                 "samples": 20000},
            ]
        }
        reports = run_suite(suite, seed=17)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_unknown_check_type(self):
        with pytest.raises(dp.DetpermError):
            run_suite({"checks": [{"type": "nope"}]}, seed=0)

    def test_empty_suite_rejected(self):
        with pytest.raises(dp.DetpermError):
            run_suite({"checks": []}, seed=0)
