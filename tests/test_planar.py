import functools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, stats

import detperm as dp
from detperm.core import DiscretizationError, ParameterError
from detperm.planar import base_density

from conftest import (
    assert_spectra_agree,
    chi_square_homogeneity,
    joint_counts_observable,
    power_independence_check,
)

ALPHA = 1e-3
# every grid the test suite discretizes: (base, terms, h, radius)
GRIDS = [
    ("ginibre", 1, 0.3, 3.0),
    ("ginibre", 2, 0.2, 3.0),
    ("ginibre", 2, 0.4, 2.5),
    ("ginibre", 2, 0.4, 3.0),
    ("ginibre", 3, 0.15, 3.5),
    ("ginibre", 3, 0.25, 3.5),
    ("ginibre", 3, 0.3, 3.0),
    ("ginibre", 3, 0.3, 3.5),
    ("ginibre", 3, 0.5, 2.5),
    ("ginibre", 3, 1.0, 3.5),
    ("bergman", 3, 0.05, 1.0),
    ("bergman", 3, 0.2, 1.0),
]


class TestRadialKernelSpec:
    def test_auto_normalizers(self):
        gin = dp.ginibre_spec(4)
        assert [t.norm_sq for t in gin.terms] == [1.0, 1.0, 0.5, 1.0 / 6.0]
        berg = dp.bergman_spec(3)
        assert [t.norm_sq for t in berg.terms] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("name", ["gaussian", "lebesgue-disk"])
    def test_normalizers_against_quadrature(self, name):
        base = base_density(name)
        upper = 60.0 if name == "gaussian" else 1.0
        # the base's squared modulus is Exp(1), respectively uniform on [0, 1]
        pdf = stats.expon.pdf if name == "gaussian" else stats.uniform.pdf
        for k in range(5):
            a2 = 1.0 / base.moment(k)
            value, _ = integrate.quad(lambda q: a2 * pdf(q) * q**k, 0, upper)
            assert abs(value * base.moment(0) - 1.0) < 1e-8

    def test_json_round_trip_and_auto(self):
        obj = {"terms": [{"k": 0, "lambda": 1.0}, {"k": 2, "lambda": 0.5}],
               "base": "gaussian", "a2": "auto"}
        spec = dp.RadialKernelSpec.from_json(obj)
        assert [t.norm_sq for t in spec.terms] == [1.0, 0.5]
        back = dp.RadialKernelSpec.from_json(spec.to_json())
        assert back == spec

    def test_invalid_specs(self):
        with pytest.raises(dp.DetpermError):
            dp.RadialKernelSpec(
                (dp.RadialTerm(0, 1.0, 1.0), dp.RadialTerm(0, 0.5, 1.0)), "gaussian"
            )
        with pytest.raises(dp.DetpermError):
            dp.RadialKernelSpec((dp.RadialTerm(0, 1.4, 1.0),), "gaussian")
        with pytest.raises(dp.DetpermError):
            dp.RadialKernelSpec((dp.RadialTerm(2, 1.0, 1.0),), "gaussian")  # wrong a2
        with pytest.raises(ParameterError):
            base_density("weibull")


class TestSampleRadialModuli:
    def test_ginibre_moduli_are_gammas(self, rng):
        n, n_samples = 3, 30000
        spec = dp.ginibre_spec(n)
        draws = np.array([dp.sample_radial_moduli(spec, rng) for _ in range(n_samples)])
        assert draws.shape == (n_samples, n)
        cdf_q = base_density("gaussian").cdf_q
        for i in range(n):
            report = dp.ks_fit(draws[:, i], functools.partial(cdf_q, i))
            assert report.passed, (i, report)

    def test_bergman_moduli_are_betas(self, rng):
        n, n_samples = 4, 30000
        spec = dp.bergman_spec(n)
        draws = np.array([dp.sample_radial_moduli(spec, rng) for _ in range(n_samples)])
        cdf_q = base_density("lebesgue-disk").cdf_q
        for k in range(n):
            report = dp.ks_fit(draws[:, k], functools.partial(cdf_q, k))
            assert report.passed, (k, report)

    def test_zero_weights_give_empty(self, rng):
        spec = dp.RadialKernelSpec(
            (dp.RadialTerm(0, 0.0, 1.0), dp.RadialTerm(1, 0.0, 1.0)), "gaussian"
        )
        for _ in range(20):
            assert dp.sample_radial_moduli(spec, rng) == []

    def test_partial_weight_inclusion_frequency(self, rng):
        spec = dp.RadialKernelSpec((dp.RadialTerm(0, 0.3, 1.0),), "gaussian")
        n = 20000
        hits = sum(bool(dp.sample_radial_moduli(spec, rng)) for _ in range(n))
        assert abs(hits / n - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)


class TestModulusLaws:
    def test_gaussian_sized_biased_density_is_gamma(self):
        # the k-times size-biased law's CDF, hence its density, is gamma(k + 1)
        base = base_density("gaussian")
        for k in range(4):
            for q in (0.1, 0.7, 1.9, 4.2):
                assert abs(base.cdf_q(k, q) - stats.gamma.cdf(q, k + 1)) < 1e-12
            assert abs(base.cdf_q(k, 80.0) - 1.0) < 1e-8

    def test_size_biasing_chain_likelihood_ratio(self):
        # dP_k / dP_(k-1) at q is (a_k / a_(k-1)) q; integrated by parts,
        # F_k(q) = (a_k / a_(k-1)) (q F_(k-1)(q) - int_0^q F_(k-1))
        for name in ("gaussian", "lebesgue-disk"):
            base = base_density(name)
            a = [1.0 / base.moment(k) for k in range(4)]
            for k in range(1, 4):
                for q in (0.05, 0.3, 0.8):
                    area, _ = integrate.quad(lambda t: base.cdf_q(k - 1, t), 0, q, epsabs=1e-14)
                    chained = (a[k] / a[k - 1]) * (q * base.cdf_q(k - 1, q) - area)
                    assert abs(chained - base.cdf_q(k, q)) < 1e-10


class TestAnnuliLambdas:
    def test_full_range_recovers_weights(self):
        spec = dp.RadialKernelSpec(
            (dp.RadialTerm(0, 0.9, 1.0), dp.RadialTerm(1, 0.4, 1.0)), "gaussian"
        )
        lam = dp.annuli_lambdas(spec, [(0.0, 40.0)])
        np.testing.assert_allclose(lam[:, 0], [0.9, 0.4], atol=1e-10)

    def test_exponential_median_cut(self):
        lam = dp.annuli_lambdas(dp.ginibre_spec(1), [(0.0, math.sqrt(math.log(2)))])
        assert abs(lam[0, 0] - 0.5) < 1e-12

    def test_uniform_median_cut(self):
        lam = dp.annuli_lambdas(dp.bergman_spec(1), [(0.0, 2.0 ** -0.5)])
        assert abs(lam[0, 0] - 0.5) < 1e-12

    def test_overlap_rejected(self):
        with pytest.raises(dp.DetpermError):
            dp.annuli_lambdas(dp.ginibre_spec(2), [(0.0, 1.0), (0.5, 2.0)])

    def test_row_sums_bounded_by_weights(self):
        spec = dp.ginibre_spec(3)
        lam = dp.annuli_lambdas(spec, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        for row, term in zip(lam, spec.terms):
            assert row.sum() <= term.weight + 1e-12

    def test_thresholded_moduli_match_occupancy_model(self, rng):
        spec = dp.ginibre_spec(3)
        annuli = [(0.0, 1.0), (1.0, 2.0)]
        lam = dp.annuli_lambdas(spec, annuli)
        n = 15000
        a = Counter()
        b = Counter()
        for _ in range(n):
            moduli = dp.sample_radial_moduli(spec, rng)
            key = tuple(
                sum(1 for q in moduli if lo * lo < q <= hi * hi) for lo, hi in annuli
            )
            a[key] += 1
            b[tuple(joint_counts_observable(lam, rng))] += 1
        report = chi_square_homogeneity(a, b)
        assert report.p_value > ALPHA, report


class TestDiscretization:
    def test_rank_bounded_by_term_count(self):
        kernel, clamp = dp.discretize_radial_kernel(dp.ginibre_spec(3), 0.3, 3.0)
        eigs = dp.spectrum(kernel).eigenvalues
        assert clamp < 0.05
        assert len(eigs) == 3
        assert kernel.factor.shape == (kernel.size, 3)
        f, c = kernel.factor, kernel.coefficients
        expected = np.einsum("xk,k,yk->xy", f, c, f.conj())
        np.testing.assert_allclose(kernel.matrix, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("base, terms, h, radius", GRIDS)
    def test_factored_spectrum_matches_the_dense_build(self, base, terms, h, radius):
        spec = {"ginibre": dp.ginibre_spec, "bergman": dp.bergman_spec}[base](terms)
        kernel, clamp = dp.discretize_radial_kernel(spec, h, radius)
        # the n x n matrix and dense eigensolve that the factor replaced
        v = np.power.outer(np.array(kernel.ground.labels), [t.degree for t in spec.terms])
        m = (v * spec.coefficients()) @ v.conj().T
        dense = dp.spectrum(dp.HermitianKernel((m + m.conj().T) / 2, kernel.ground))
        vals = dense.eigenvalues
        assert abs(clamp - max(vals.max() - 1.0, 0.0) - max(-vals.min(), 0.0)) < 1e-10
        clamped = dp.Spectrum(np.clip(vals, 0.0, 1.0), dense.eigenvectors, kernel.ground)
        assert_spectra_agree(clamped, dp.spectrum(kernel))
        fresh = dp.HermitianKernel.from_factor(kernel.factor, kernel.coefficients, kernel.ground)
        assert_spectra_agree(clamped, dp.spectrum(fresh))

    def test_factored_paths_never_densify(self, rng, monkeypatch):
        kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(3), 0.3, 3.0)
        dense_reads, eigh_orders = [], []
        matrix = dp.HermitianKernel.matrix

        def read_matrix(k):
            dense_reads.append(k)
            return matrix.fget(k)

        def counted(solver):  # the order of every Hermitian eigensolver call
            def call(a, *args, **kwargs):
                eigh_orders.append(len(a))
                return solver(a, *args, **kwargs)
            return call

        monkeypatch.setattr(dp.HermitianKernel, "matrix", property(read_matrix))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        disk = [i for i, z in enumerate(kernel.ground.labels) if abs(z) <= 1.5]
        for _ in range(20):
            dp.sample_dpp(kernel, rng)
            dp.sample_permanental(kernel, rng)
            dp.sample_alpha(kernel, -0.5, rng)
        dp.sample_clouds(kernel, rng)
        dp.count_pmf(kernel, disk)
        dp.count_pmf_perm(kernel, disk, 40)
        dp.joint_intensity(kernel, disk[:3])
        dp.joint_intensity(kernel, [disk[0], disk[0]], kind="permanental")
        assert dense_reads == []
        assert eigh_orders and max(eigh_orders) <= 3

    def test_trace_converges_to_weight_sum(self):
        # below h ~ 0.7 the residual is the radius-3.5 truncation mass, so
        # compare a genuinely coarse grid against one on the plateau
        spec = dp.ginibre_spec(3)
        coarse, _ = dp.discretize_radial_kernel(spec, 1.0, 3.5)
        fine, _ = dp.discretize_radial_kernel(spec, 0.3, 3.5)
        target = sum(t.weight for t in spec.terms)
        err_coarse = abs(
            float(np.real(np.diag(coarse.matrix)) @ coarse.ground.weights) - target
        )
        err_fine = abs(
            float(np.real(np.diag(fine.matrix)) @ fine.ground.weights) - target
        )
        assert err_fine < err_coarse
        assert err_fine < 1e-3

    def test_discretized_kernel_is_admissible(self):
        kernel, _ = dp.discretize_radial_kernel(dp.bergman_spec(3), 0.05, 1.0)
        assert dp.validate_determinantal(kernel).valid

    def test_clamp_guard_raises_when_too_tight(self):
        # disk-boundary cells overcount area, inflating eigenvalues past 1:
        # at h = 0.6 the clamp is about 1.27
        with pytest.raises(DiscretizationError, match="refine the grid"):
            dp.discretize_radial_kernel(dp.bergman_spec(3), 0.6, 1.0)

    def test_annulus_counts_from_grid_match_restricted_eigenvalues(self, rng):
        kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(2), 0.2, 3.0)
        centers = np.array(kernel.ground.labels)
        inside = [i for i, z in enumerate(centers) if abs(z) <= 1.2]
        law = dp.count_pmf(kernel, inside)
        draws = []
        for _ in range(8000):
            pts = dp.sample_dpp(kernel, rng).points
            draws.append(sum(1 for p in pts if abs(centers[p]) <= 1.2))
        from conftest import tabulate

        report = dp.chi_square_fit(tabulate(draws, len(law.pmf)), law.pmf)
        assert report.p_value > ALPHA, report


class TestSampleClouds:
    def test_reproducible_and_drawn_in_order(self):
        kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(3), 0.5, 2.5)
        a = dp.sample_clouds(kernel, dp.stream(3))
        b = dp.sample_clouds(kernel, dp.stream(3))
        assert list(a) == ["poisson", "determinantal", "permanental"]
        assert a == b
        assert not a["poisson"].simple and a["determinantal"].simple
        assert not a["permanental"].simple
        rng = dp.stream(3)
        means = np.real(np.diag(kernel.matrix)) * kernel.ground.weights
        counts = rng.poisson(means)
        assert a["poisson"].multiplicities() == {
            i: int(c) for i, c in enumerate(counts) if c
        }
        assert a["determinantal"] == dp.sample_dpp(kernel, rng)


@pytest.fixture(scope="module")
def ginibre3_grid_samples():
    kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(3), 0.25, 3.5)
    centers = np.array(kernel.ground.labels)
    local = dp.stream(424242)
    samples = [centers[list(dp.sample_dpp(kernel, local).points)] for _ in range(12000)]
    return kernel, centers, samples


class TestPowerIndependence:
    def test_single_radial_point_passes(self, rng):
        kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(1), 0.3, 3.0)
        centers = np.array(kernel.ground.labels)
        samples = [centers[list(dp.sample_dpp(kernel, rng).points)] for _ in range(4000)]
        report = power_independence_check(samples, power=1)
        assert report.passed

    def test_high_power_passes_for_truncated_kernel(self, ginibre3_grid_samples):
        _, _, samples = ginibre3_grid_samples
        report = power_independence_check(samples, power=3)
        assert report.passed

    def test_low_power_flags_diagonal_deviation(self, ginibre3_grid_samples):
        kernel, centers, samples = ginibre3_grid_samples
        report = power_independence_check(samples, power=1)
        row = report.row(1, 1)
        assert row.flagged
        # exact pair-sum oracle on the discretized kernel itself
        w = kernel.ground.weights
        k = kernel.matrix
        diag = np.real(np.diag(k))
        first = abs(np.sum(centers * diag * w)) ** 2
        second = (centers * w) @ (np.abs(k) ** 2) @ (centers * w).conj()
        exact = first - float(np.real(second))
        assert abs(row.deviation - exact) < 4 * row.deviation_se

    def test_empty_sample_list_rejected(self):
        with pytest.raises(dp.DetpermError):
            power_independence_check([], power=2)
