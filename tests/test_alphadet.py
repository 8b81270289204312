import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import detperm as dp
from detperm.alphadet import (
    DET_UNION,
    PERM_UNION,
    UNSUPPORTED,
    scaled_kernel,
)
from detperm.core import UnsupportedAlphaError

from conftest import (
    WITNESS_MATRIX,
    chi_square_homogeneity,
    kernel_from_spectrum,
    projection_from_rank,
    tabulate,
)

ALPHA = 1e-3
N_SAMPLES = 10000


class TestClassify:
    @pytest.mark.parametrize(
        "alpha,mode,copies",
        [
            (-1.0, DET_UNION, 1),
            (-0.5, DET_UNION, 2),
            (-1.0 / 3.0, DET_UNION, 3),
            (1.0, PERM_UNION, 1),
            (0.5, PERM_UNION, 2),
            (0.25, PERM_UNION, 4),
            (0.4, UNSUPPORTED, None),
            (-0.4, UNSUPPORTED, None),
            (2.0, UNSUPPORTED, None),
            (0.0, UNSUPPORTED, None),
            (-2.0, UNSUPPORTED, None),
            (math.nan, UNSUPPORTED, None),
            (math.inf, UNSUPPORTED, None),
            (-math.inf, UNSUPPORTED, None),
        ],
    )
    def test_modes(self, alpha, mode, copies):
        regime = dp.classify_alpha(alpha)
        assert regime.mode == mode
        assert regime.copies == copies

    def test_unsupported_alpha_fails_loudly(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.5, 0.5], rng)
        with pytest.raises(UnsupportedAlphaError):
            dp.sample_alpha(k, 0.4, rng)
        with pytest.raises(UnsupportedAlphaError):
            dp.alpha_count_pmf(k, 1.5, [0, 1], 10)


class TestSampleAlpha:
    def test_alpha_minus_one_matches_dpp_counts(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(3), [0.2, 0.5, 0.9], rng)
        a = tabulate((len(dp.sample_alpha(k, -1.0, rng)) for _ in range(N_SAMPLES)), 4)
        b = tabulate((len(dp.sample_dpp(k, rng)) for _ in range(N_SAMPLES)), 4)
        report = chi_square_homogeneity(a, b)
        assert report.p_value > ALPHA, report

    def test_alpha_plus_one_matches_permanental_counts(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.7, 1.5], rng)
        width = 40
        a = tabulate((len(dp.sample_alpha(k, 1.0, rng)) for _ in range(N_SAMPLES)), width)
        b = tabulate((len(dp.sample_permanental(k, rng)) for _ in range(N_SAMPLES)), width)
        report = chi_square_homogeneity(a, b)
        assert report.p_value > ALPHA, report

    def test_half_determinantal_counts_are_binomial(self, rng):
        # union of two copies of the kernel-K/2 process, K a rank-1 projection
        ground = dp.GroundSet.uniform(3)
        k = projection_from_rank(ground, 1, rng)
        draws = [len(dp.sample_alpha(k, -0.5, rng)) for _ in range(N_SAMPLES)]
        pmf = stats.binom.pmf(np.arange(3), 2, 0.5)
        report = dp.chi_square_fit(tabulate(draws, 3), pmf)
        assert report.p_value > ALPHA, report

    def test_det_union_requires_valid_scaled_kernel(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [1.5, 0.5], rng)
        with pytest.raises(dp.DetpermError):
            dp.sample_alpha(k, -1.0, rng)  # K itself has an eigenvalue 1.5
        dp.sample_alpha(k, -0.5, rng)  # but K/2 is fine


    def test_scaled_copies_reuse_the_parent_spectrum(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        k = kernel_from_spectrum(dp.GroundSet.uniform(5), [0.9, 0.6, 0.3], rng)
        calls.clear()
        for alpha in [-0.5] * 25 + [-1 / 3] * 25:
            dp.sample_alpha(k, alpha, rng)
        assert len(calls) <= 1
        derived = dp.spectrum(scaled_kernel(k, 1 / 3))
        np.testing.assert_allclose(derived.kernel().matrix, k.matrix / 3, atol=1e-12)


    def test_scaled_kernel_built_once_per_factor(self, rng, monkeypatch):
        from detperm import kernels

        calls = []
        check = kernels._check_hermitian

        def counted(matrix):
            calls.append(1)
            return check(matrix)

        k = kernel_from_spectrum(dp.GroundSet.uniform(5), [0.9, 0.6, 0.3], rng)
        monkeypatch.setattr(kernels, "_check_hermitian", counted)
        for _ in range(50):
            dp.sample_alpha(k, -0.5, rng)
        assert len(calls) == 0
        assert scaled_kernel(k, 0.5) is scaled_kernel(k, 0.5)


class TestAlphaCountPmf:
    def test_reduces_to_bernoulli_convolution(self, rng):
        lams = [0.2, 0.5, 0.9]
        k = kernel_from_spectrum(dp.GroundSet.uniform(3), lams, rng)
        law = dp.alpha_count_pmf(k, -1.0, [0, 1, 2])
        reference = dp.count_pmf(k, [0, 1, 2])
        np.testing.assert_allclose(law.pmf, reference.pmf, atol=1e-12)

    def test_reduces_to_geometric_convolution(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.7, 1.5], rng)
        law = dp.alpha_count_pmf(k, 1.0, [0, 1], 40)
        reference = dp.count_pmf_perm(k, [0, 1], 40)
        np.testing.assert_allclose(law.pmf, reference.pmf, atol=1e-12)
        assert abs(law.tail_bound - reference.tail_bound) < 1e-12

    def test_binomial_formula_and_monte_carlo_union(self, rng):
        ground = dp.GroundSet.uniform(3)
        k = projection_from_rank(ground, 1, rng)
        law = dp.alpha_count_pmf(k, -0.5, [0, 1, 2])
        np.testing.assert_allclose(
            law.pmf[:3], stats.binom.pmf(np.arange(3), 2, 0.5), atol=1e-10
        )
        # against a hand-rolled two-copy union
        half = dp.HermitianKernel(0.5 * k.matrix, ground)
        draws = [
            len(dp.sample_dpp(half, rng)) + len(dp.sample_dpp(half, rng))
            for _ in range(N_SAMPLES)
        ]
        report = dp.chi_square_fit(tabulate(draws, 3), law.pmf)
        assert report.p_value > ALPHA, report

    def test_negative_binomial_regime(self, rng):
        lam = 0.9
        k = dp.HermitianKernel(np.array([[lam]], dtype=complex), dp.GroundSet.uniform(1))
        law = dp.alpha_count_pmf(k, 0.5, [0], 40)
        # sum of two geometrics with parameter lam/2 each
        expected = stats.nbinom.pmf(np.arange(41), 2, 1.0 / (1 + 0.5 * lam))
        np.testing.assert_allclose(law.pmf, expected, atol=1e-12)

    def test_mean_matches_trace_in_both_regimes(self, rng):
        lams = [1.2, 0.6]
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), lams, rng)
        det_law = dp.alpha_count_pmf(k, -0.5, [0, 1])
        assert abs(det_law.mean() - sum(lams)) < 1e-9
        perm_law = dp.alpha_count_pmf(k, 0.5, [0, 1], 500)
        assert perm_law.tail_bound < 1e-10
        assert abs(perm_law.mean() - sum(lams)) < 1e-7


class TestUnionIntensity:
    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_first_order_intensity_is_kernel_diagonal(self, alpha, rng):
        ground = dp.GroundSet(tuple(range(3)), np.array([0.8, 1.3, 1.0]))
        k = kernel_from_spectrum(ground, [1.2, 0.6], rng)
        sampler = lambda: dp.sample_alpha(k, alpha, rng)
        counts = np.zeros(3)
        for _ in range(N_SAMPLES):
            for p in sampler().points:
                counts[p] += 1
        for x in range(3):
            predicted = k.matrix[x, x].real * ground.weights[x]
            mean = counts[x] / N_SAMPLES
            se = math.sqrt(predicted * (1 + 2 * predicted) / N_SAMPLES) + 1e-9
            assert abs(mean - predicted) < 5 * se


class TestExistenceWitness:
    """The three-point witness kernel's alpha-determinant; a negative value
    rules out an alpha-determinantal process with that kernel."""

    def test_negative_for_alpha_five(self):
        value = dp.alpha_det(WITNESS_MATRIX, 5.0).real
        assert value < 0
        assert abs(value + 12.0) < 1e-10

    def test_boundary_alpha_four(self):
        value = dp.alpha_det(WITNESS_MATRIX, 4.0).real
        assert not value < 0
        assert abs(value) < 1e-10

    def test_alpha_minus_one_det_of_singular_matrix(self):
        value = dp.alpha_det(WITNESS_MATRIX, -1.0).real
        assert not value < 0
        assert abs(value) < 1e-10
        eigs = np.sort(np.linalg.eigvalsh(WITNESS_MATRIX))[::-1]
        np.testing.assert_allclose(eigs, [3.0, 3.0, 0.0], atol=1e-12)
