import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import detperm as dp
from detperm.core import (
    DegenerateDistributionError,
    InvalidEigenvalueError,
    ParameterError,
    sample_poisson_array,
)

from conftest import bernoulli_sum_enumeration, sample_geometric, tabulate

ALPHA = 1e-3


class TestBernoulliSumPmf:
    def test_all_ones_is_point_mass(self):
        law = dp.bernoulli_sum_pmf([1.0, 1.0])
        assert law.pmf.tolist() == [0.0, 0.0, 1.0]
        assert law.tail_bound == 0.0

    def test_two_fair_coins(self):
        law = dp.bernoulli_sum_pmf([0.5, 0.5])
        np.testing.assert_allclose(law.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_matches_indicator_enumeration(self):
        lams = [0.2, 0.5, 0.9]
        expected = bernoulli_sum_enumeration(lams)
        law = dp.bernoulli_sum_pmf(lams)
        np.testing.assert_allclose(law.pmf, expected, atol=1e-12)
        assert abs(law.mean() - 1.6) < 1e-12
        assert abs(law.variance() - (0.2 * 0.8 + 0.5 * 0.5 + 0.9 * 0.1)) < 1e-12

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=12)
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_and_variance_identities(self, lams):
        law = dp.bernoulli_sum_pmf(lams)
        assert abs(law.mean() - sum(lams)) < 1e-10
        assert abs(law.variance() - sum(l * (1 - l) for l in lams)) < 1e-10

    def test_clamps_jitter_but_rejects_real_violations(self):
        law = dp.bernoulli_sum_pmf([-5e-10, 1 + 5e-10])
        np.testing.assert_allclose(law.pmf, [0.0, 1.0, 0.0], atol=1e-9)
        with pytest.raises(InvalidEigenvalueError):
            dp.bernoulli_sum_pmf([1.1])
        with pytest.raises(InvalidEigenvalueError):
            dp.bernoulli_sum_pmf([-0.001])


class TestGeometricSumPmf:
    def test_single_unit_mean(self):
        law = dp.geometric_sum_pmf([1.0], 3)
        np.testing.assert_allclose(law.pmf, [0.5, 0.25, 0.125, 0.0625], atol=1e-15)
        assert abs(law.tail_bound - 0.0625) < 1e-15

    def test_empty_sum(self):
        law = dp.geometric_sum_pmf([], 7)
        assert law.pmf.tolist() == [1.0]
        assert law.tail_bound == 0.0

    def test_matches_double_convolution(self):
        lams, n_max = [0.7, 1.5], 20
        p1 = np.array([(0.7 / 1.7) ** s / 1.7 for s in range(n_max + 1)])
        p2 = np.array([(1.5 / 2.5) ** s / 2.5 for s in range(n_max + 1)])
        expected = np.array(
            [sum(p1[s] * p2[k - s] for s in range(k + 1)) for k in range(n_max + 1)]
        )
        law = dp.geometric_sum_pmf(lams, n_max)
        np.testing.assert_allclose(law.pmf, expected, atol=1e-14)

    def test_tail_bound_is_exact_leak_and_below_analytic_bound(self):
        lams, n_max = [0.7, 1.5], 25
        law = dp.geometric_sum_pmf(lams, n_max)
        assert abs(law.pmf.sum() + law.tail_bound - 1.0) < 1e-12
        # the sum exceeds n_max only if one summand exceeds n_max / n
        per = n_max // len(lams)
        analytic = sum((l / (1 + l)) ** (per + 1) for l in lams)
        assert law.tail_bound <= analytic

    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4),
        st.integers(min_value=20, max_value=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_with_tail_estimate(self, lams, n_max):
        # placing the truncated tail mass at n_max recovers the true mean to
        # within tail * n_max, provided the truncation is not absurdly tight
        # (conditional overshoot beyond n_max must not exceed n_max itself)
        from hypothesis import assume

        assume(n_max >= 4 * len(lams) * (1 + max(lams)))
        law = dp.geometric_sum_pmf(lams, n_max)
        estimate = law.mean() + law.tail_bound * law.n_max
        assert abs(estimate - sum(lams)) <= law.tail_bound * n_max + 1e-9

    def test_rejects_negative(self):
        with pytest.raises(InvalidEigenvalueError):
            dp.geometric_sum_pmf([-0.1], 5)


class TestCategorical:
    def test_single_weight(self, rng):
        assert all(dp.sample_categorical([1.0], rng) == 0 for _ in range(50))

    def test_two_weights_symmetry(self, rng):
        draws = [dp.sample_categorical([1.0, 1.0], rng) for _ in range(100000)]
        freq = np.mean(draws)
        assert abs(freq - 0.5) < 0.005

    def test_unequal_weights(self, rng):
        draws = [dp.sample_categorical([1.0, 3.0], rng) for _ in range(100000)]
        assert abs(np.mean(draws) - 0.75) < 0.005

    def test_chi_square_against_weights(self, rng):
        w = np.array([0.4, 2.0, 1.1, 0.5])
        draws = [dp.sample_categorical(w, rng) for _ in range(100000)]
        report = dp.chi_square_fit(tabulate(draws, len(w)), w / w.sum())
        assert report.p_value > ALPHA

    def test_degenerate_weights(self, rng):
        with pytest.raises(DegenerateDistributionError):
            dp.sample_categorical([0.0, 0.0], rng)
        with pytest.raises(DegenerateDistributionError):
            dp.sample_categorical([1.0, -1.0], rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad, rng):
        with pytest.raises(DegenerateDistributionError):
            dp.sample_categorical([bad, 1.0, 2.0], rng)

    @pytest.mark.parametrize("trailing_zeros", [0, 2])
    def test_rounding_overshoot_stays_on_positive_weight(self, trailing_zeros):
        # the pairwise sum of these weights exceeds their last cumulative
        # sum, so the largest uniform times the sum lands past it
        class LargestUniform:
            def random(self):
                return 1.0 - 2.0**-53

        w = np.array([1.0] + [1e-16] * 1000 + [0.0] * trailing_zeros)
        assert np.cumsum(w)[-1] < (1.0 - 2.0**-53) * w.sum()
        assert dp.sample_categorical(w, LargestUniform()) == 1000


class TestPoissonGeometric:
    def test_poisson_small_mean_chi_square(self, rng):
        mean = 2.5
        draws = sample_poisson_array(np.full(50000, mean), rng)
        pmf = stats.poisson.pmf(np.arange(20), mean)
        report = dp.chi_square_fit(tabulate(draws, 20), pmf)
        assert report.p_value > ALPHA

    def test_poisson_large_mean_moments(self, rng):
        mean = 45.0
        draws = sample_poisson_array(np.full(20000, mean), rng)
        assert abs(draws.mean() - mean) < 4 * math.sqrt(mean / 20000)

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_poisson_rejects_bad_means(self, bad, rng):
        with pytest.raises(ParameterError):
            sample_poisson_array([1.0, bad], rng)

    def test_poisson_array_matches_scalar_law(self, rng):
        means = np.array([0.3, 4.0, 31.0])
        draws = np.array([sample_poisson_array(means, rng) for _ in range(20000)])
        for j, m in enumerate(means):
            assert abs(draws[:, j].mean() - m) < 4 * math.sqrt(m / 20000)

    def test_geometric_pmf(self, rng):
        lam = 1.0
        draws = [sample_geometric(lam, rng) for _ in range(50000)]
        pmf = np.array([2.0 ** -(s + 1) for s in range(25)])
        report = dp.chi_square_fit(tabulate(draws, 25), pmf, tail_bound=2.0**-25)
        assert report.p_value > ALPHA


class TestReproducibility:
    def test_identical_seeds_identical_streams(self):
        a, b = dp.stream(123), dp.stream(123)
        draws_a = [dp.sample_categorical([1, 2, 3], a) for _ in range(100)]
        draws_b = [dp.sample_categorical([1, 2, 3], b) for _ in range(100)]
        assert draws_a == draws_b

    def test_split_streams_are_distinct_and_reproducible(self):
        kids1 = dp.split(dp.stream(9), 3)
        kids2 = dp.split(dp.stream(9), 3)
        seqs1 = [k.random(5).tolist() for k in kids1]
        seqs2 = [k.random(5).tolist() for k in kids2]
        assert seqs1 == seqs2
        assert len({tuple(s) for s in seqs1}) == 3


class TestGroundSet:
    def test_invariants(self):
        with pytest.raises(dp.DetpermError):
            dp.GroundSet((), np.array([]))
        with pytest.raises(dp.DetpermError):
            dp.GroundSet(("a", "b"), np.array([1.0, 0.0]))
        with pytest.raises(dp.DetpermError):
            dp.GroundSet(("a", "a"), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(dp.DetpermError, match="finite"):
            dp.GroundSet(("a", "b"), np.array([1.0, bad]))

    def test_json_round_trip(self):
        g = dp.GroundSet(("x", "y", "z"), np.array([0.5, 1.0, 2.0]))
        back = dp.GroundSet.from_json(g.to_json())
        assert back.labels == g.labels
        np.testing.assert_allclose(back.weights, g.weights)

    def test_json_round_trip_complex_labels(self):
        g = dp.GroundSet((complex(0.5, -1.0), complex(2.0, 0.25)), np.array([1.0, 1.0]))
        back = dp.GroundSet.from_json(g.to_json())
        # complex labels serialize as [re, im] pairs and come back as tuples
        assert back.labels == ((0.5, -1.0), (2.0, 0.25))


class TestPointConfiguration:
    def test_simple_rejects_repeats(self):
        with pytest.raises(dp.DetpermError):
            dp.PointConfiguration((1, 1), simple=True)
        cfg = dp.PointConfiguration((1, 1, 3), simple=False)
        assert cfg.multiplicities() == {1: 2, 3: 1}

    def test_bounds_check(self):
        g = dp.GroundSet.uniform(2)
        with pytest.raises(dp.DetpermError):
            dp.PointConfiguration((5,)).validate_against(g)
        assert dp.PointConfiguration((1, 0)).labels(g) == [1, 0]


class TestCountDistribution:
    def test_invariants(self):
        with pytest.raises(dp.DetpermError):
            dp.CountDistribution(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(dp.DetpermError):
            dp.CountDistribution(np.array([0.5, 0.4]))  # mass missing, no tail
        law = dp.CountDistribution(np.array([0.5, 0.4]), tail_bound=0.1)
        assert law.n_max == 1
