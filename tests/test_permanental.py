import itertools
import math
from collections import Counter

import numpy as np
import pytest

import detperm as dp
from detperm.core import InvalidEigenvalueError
from detperm.permanental import standard_complex_normal

from conftest import (
    bosonic_density,
    chi_square_homogeneity,
    joint_counts_observable_perm,
    kernel_from_spectrum,
    projection_from_rank,
    projection_spectrum,
    tabulate,
)

ALPHA = 1e-3
N_SAMPLES = 10000


def geometric_pmf(lam, n):
    s = np.arange(n)
    return (lam / (1 + lam)) ** s / (1 + lam)


class TestSamplePermanental:
    def test_zero_kernel_empty(self, rng):
        k = dp.HermitianKernel(np.zeros((2, 2), dtype=complex), dp.GroundSet.uniform(2))
        for _ in range(20):
            assert dp.sample_permanental(k, rng).points == ()

    def test_single_atom_count_is_geometric(self, rng):
        lam = 1.0
        k = dp.HermitianKernel(np.array([[lam]], dtype=complex), dp.GroundSet.uniform(1))
        draws = [len(dp.sample_permanental(k, rng)) for _ in range(N_SAMPLES)]
        width = 25
        report = dp.chi_square_fit(
            tabulate(draws, width),
            geometric_pmf(lam, width),
            tail_bound=(lam / (1 + lam)) ** width,
        )
        assert report.p_value > ALPHA, report

    def test_diagonal_kernel_gives_independent_atom_counts(self, rng):
        l1, l2 = 0.8, 0.4
        k = dp.HermitianKernel(np.diag([l1, l2]).astype(complex), dp.GroundSet.uniform(2))
        joint = Counter()
        for _ in range(N_SAMPLES):
            mult = dp.sample_permanental(k, rng).multiplicities()
            joint[(mult.get(0, 0), mult.get(1, 0))] += 1
        width = 14
        p1, p2 = geometric_pmf(l1, width), geometric_pmf(l2, width)
        keys = list(itertools.product(range(width), repeat=2))
        observed = np.array([joint.get(key, 0) for key in keys])
        expected = np.array([p1[a] * p2[b] for a, b in keys])
        report = dp.chi_square_fit(observed, expected, tail_bound=1 - expected.sum())
        assert report.p_value > ALPHA, report

    def test_not_psd_rejected(self, rng):
        k = dp.HermitianKernel(np.diag([0.5, -0.2]).astype(complex), dp.GroundSet.uniform(2))
        with pytest.raises(InvalidEigenvalueError):
            dp.sample_permanental(k, rng)


class TestCountPmfPerm:
    def test_empty_subset(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.7, 1.5], rng)
        assert dp.count_pmf_perm(k, [], 10).pmf.tolist() == [1.0]

    def test_single_unit_eigenvalue(self, rng):
        k = dp.HermitianKernel(np.array([[1.0]], dtype=complex), dp.GroundSet.uniform(1))
        law = dp.count_pmf_perm(k, [0], 12)
        np.testing.assert_allclose(law.pmf, [2.0 ** -(s + 1) for s in range(13)], atol=1e-12)

    def test_sampler_matches_exact_convolution(self, rng):
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.7, 1.5], rng)
        law = dp.count_pmf_perm(k, [0, 1], 60)
        draws = [len(dp.sample_permanental(k, rng)) for _ in range(N_SAMPLES)]
        report = dp.chi_square_fit(tabulate(draws, 61), law.pmf, tail_bound=law.tail_bound)
        assert report.p_value > ALPHA, report

    def test_mean_and_variance(self, rng):
        lams = [0.7, 1.5]
        k = kernel_from_spectrum(dp.GroundSet.uniform(2), lams, rng)
        law = dp.count_pmf_perm(k, [0, 1], 400)  # tail below 1e-12
        assert law.tail_bound < 1e-12
        assert abs(law.mean() - sum(lams)) < 1e-9
        assert abs(law.variance() - sum(l * (1 + l) for l in lams)) < 1e-9


class TestBosonicDensity:
    def test_all_in_one_state_is_iid_product(self, rng):
        ground = dp.GroundSet(tuple(range(4)), np.array([0.5, 1.5, 1.0, 2.0]))
        phi = projection_spectrum(projection_from_rank(ground, 1, rng)).eigenvectors.T
        ell = 3
        pts = [0, 2, 2]
        expected = math.prod(abs(phi[0, p]) ** 2 for p in pts)
        assert abs(bosonic_density(phi, [ell], pts) - expected) < 1e-12

    def test_distinct_states_integrate_to_one(self, rng):
        ground = dp.GroundSet(tuple(range(4)), np.array([0.5, 1.5, 1.0, 2.0]))
        phi = projection_spectrum(projection_from_rank(ground, 2, rng)).eigenvectors.T
        w = ground.weights
        total = sum(
            bosonic_density(phi, [1, 1], [x, y]) * w[x] * w[y]
            for x in range(4)
            for y in range(4)
        )
        assert abs(total - 1.0) < 1e-10

    def test_empty_tuple(self, rng):
        assert bosonic_density(np.zeros((1, 3), dtype=complex), [0], []) == 1.0


class TestJointCountsObservablePerm:
    def test_single_cell_is_geometric(self, rng):
        lam = 1.2
        draws = [
            int(joint_counts_observable_perm(np.array([[lam]]), rng)[0])
            for _ in range(N_SAMPLES)
        ]
        width = 40
        report = dp.chi_square_fit(
            tabulate(draws, width),
            geometric_pmf(lam, width),
            tail_bound=(lam / (1 + lam)) ** width,
        )
        assert report.p_value > ALPHA, report

    def test_conditional_split_is_binomial(self, rng):
        row = np.array([[0.5, 0.5]])
        strata = {}
        for _ in range(N_SAMPLES):
            c = joint_counts_observable_perm(row, rng)
            strata.setdefault(int(c.sum()), []).append(int(c[0]))
        for n in (1, 2, 3):
            firsts = strata.get(n, [])
            if len(firsts) < 200:
                continue
            from scipy import stats

            pmf = stats.binom.pmf(np.arange(n + 1), n, 0.5)
            report = dp.chi_square_fit(tabulate(firsts, n + 1), pmf)
            assert report.p_value > ALPHA, (n, report)

    def test_matches_two_atom_sampler(self, rng):
        l1, l2 = 0.8, 0.4
        kernel = dp.HermitianKernel(
            np.diag([l1, l2]).astype(complex), dp.GroundSet.uniform(2)
        )
        lam_matrix = np.array([[l1, 0.0], [0.0, l2]])
        a = Counter()
        b = Counter()
        for _ in range(N_SAMPLES):
            mult = dp.sample_permanental(kernel, rng).multiplicities()
            a[(mult.get(0, 0), mult.get(1, 0))] += 1
            b[tuple(joint_counts_observable_perm(lam_matrix, rng))] += 1
        report = chi_square_homogeneity(a, b)
        assert report.p_value > ALPHA, report


class TestIntensityIdentities:
    def test_wick_first_and_second_order(self, rng):
        ground = dp.GroundSet(tuple(range(3)), np.array([0.7, 1.1, 0.9]))
        kernel = kernel_from_spectrum(ground, [0.7, 1.5], rng)
        w = ground.weights
        counts = np.zeros(3)
        cross = []
        for _ in range(N_SAMPLES):
            mult = dp.sample_permanental(kernel, rng).multiplicities()
            for atom, c in mult.items():
                counts[atom] += c
            cross.append(mult.get(0, 0) * mult.get(1, 0))
        for x in range(3):
            predicted = dp.joint_intensity(kernel, [x], kind="permanental") * w[x]
            mean = counts[x] / N_SAMPLES
            se = math.sqrt((predicted * (1 + 2 * predicted)) / N_SAMPLES) + 1e-9
            assert abs(mean - predicted) < 5 * se
        k = kernel.matrix
        predicted2 = (
            (k[0, 0] * k[1, 1] + abs(k[0, 1]) ** 2).real * w[0] * w[1]
        )
        cross = np.array(cross, dtype=float)
        se2 = cross.std(ddof=1) / math.sqrt(len(cross))
        assert abs(cross.mean() - predicted2) < 4 * se2

    def test_clumping_exact_on_matrix(self, rng):
        kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(2), 0.4, 2.5)
        x = kernel.size // 2
        kxx = kernel.matrix[x, x].real
        rho2 = dp.joint_intensity(kernel, [x, x], kind="permanental")
        assert abs(rho2 - 2 * kxx**2) < 1e-12
        assert rho2 > kxx**2  # clumping beats the independent benchmark

    def test_gaussian_moment_identity(self, rng):
        # E[|a|^(2m) exp(-lam |a|^2)] = m! / (1 + lam)^(m + 1)
        m, lam, n = 2, 0.7, 2_000_000
        a = standard_complex_normal(rng, size=n)
        values = np.abs(a) ** (2 * m) * np.exp(-lam * np.abs(a) ** 2)
        expected = math.factorial(m) / (1 + lam) ** (m + 1)
        assert abs(values.mean() - expected) / expected < 0.01
