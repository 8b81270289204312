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
    require_real,
    sample_poisson_array,
)

from conftest import (bernoulli_sum_enumeration, bernoulli_sum_sequential, sample_geometric,
                      tabulate)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_lambdas_match_the_sequential_convolution(self, seed):
        # a lambda repeated m times is convolved by repeated squaring; one
        # that occurs once keeps its place in the order
        r = np.random.default_rng(seed)
        for _ in range(50):
            distinct = r.uniform(0.05, 0.95, int(r.integers(0, 8))).tolist()
            m = int(r.integers(2, 100))
            lams = distinct[:3] + [float(r.uniform(0.05, 0.95))] * m + distinct[3:]
            np.testing.assert_allclose(dp.bernoulli_sum_pmf(lams).pmf,
                                       bernoulli_sum_sequential(lams), rtol=1e-13, atol=0)
            np.testing.assert_array_equal(dp.bernoulli_sum_pmf(distinct).pmf,
                                          bernoulli_sum_sequential(distinct))

    def test_clamps_jitter_but_rejects_real_violations(self):
        law = dp.bernoulli_sum_pmf([-5e-10, 1 + 5e-10])
        np.testing.assert_allclose(law.pmf, [0.0, 1.0, 0.0], atol=1e-9)
        with pytest.raises(InvalidEigenvalueError):
            dp.bernoulli_sum_pmf([1.1])
        with pytest.raises(InvalidEigenvalueError):
            dp.bernoulli_sum_pmf([-0.001])


class TestAdmissible:
    def test_scales_and_clamps_jitter(self):
        np.testing.assert_array_equal(dp.core.admissible([-5e-10, 0.5, 2 + 1e-9], -0.5),
                                      [0.0, 0.25, 1.0])
        np.testing.assert_array_equal(dp.core.admissible([-1e-9, 3.0], 1 / 3), [0.0, 1.0])
        assert dp.core.admissible([], 1.0).size == 0

    @pytest.mark.parametrize("values, alpha, message, eigenvalue", [
        ([0.5, 2.4], -0.5, "eigenvalue 2.4 above 2", 2.4),
        ([0.5, -0.1], 0.5, "eigenvalue -0.1 below 0", -0.1),
        ([np.nan], 1.0, "eigenvalue nan below 0", None)],
        ids=["above-two", "below-zero", "nan"])
    def test_names_the_kernel_eigenvalue(self, values, alpha, message, eigenvalue):
        # the bound is 1/|alpha| on K itself, not 1 on the scaled copy |alpha| K
        with pytest.raises(InvalidEigenvalueError) as info:
            dp.core.admissible(values, alpha)
        assert str(info.value) == message
        if eigenvalue is not None:
            assert info.value.eigenvalue == eigenvalue


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

    @pytest.mark.parametrize("trailing_zeros", [0, 2])
    def test_rounding_overshoot_in_a_block(self, trailing_zeros):
        # the overshoot rule applies to each index of a block
        class Uniforms:
            def random(self, size):
                u = np.full(size, 0.5)
                u[1::2] = 1.0 - 2.0**-53
                return u

        w = np.array([1.0] + [1e-16] * 1000 + [0.0] * trailing_zeros)
        draws = dp.sample_categorical(w, Uniforms(), size=5)
        assert draws.tolist() == [0, 1000, 0, 1000, 0]

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
                 min_size=1, max_size=12),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_equals_scalar_draws(self, weights, n, seed):
        # one uniform per index, so a block is the scalar draws on the same stream
        from hypothesis import assume

        assume(sum(weights) > 0)
        block = dp.sample_categorical(weights, dp.stream(seed), size=n)
        rng = dp.stream(seed)
        assert block.tolist() == [dp.sample_categorical(weights, rng) for _ in range(n)]


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


class TestRequireReal:
    @pytest.mark.parametrize("value", [0, -2, 0.5, 1e300])
    def test_finite_real_is_a_float(self, value):
        assert require_real(value, "x") == value
        assert type(require_real(value, "x")) is float

    @pytest.mark.parametrize("value", [None, True, "0.5", [0.5], math.inf, math.nan])
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(ParameterError, match="x must be a finite real number"):
            require_real(value, "x")


class _Uniforms:
    """A stream stub handing out fixed step uniforms as one block."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None):
        return np.array(self.values[:size])


def _cancelled_pivot():
    # atom 1 drawn first leaves atom 0 a residual of about 1e-13, above
    # rounding noise but below PIVOT_TOL of its intensity; the second
    # uniform, 0, then picks atom 0
    c, delta = math.sqrt(0.5), math.sqrt(1e-13) / 2
    v = np.array([[c, delta], [c, -delta], [0.0, math.sqrt(1 - 2 * delta**2)]])
    spec = dp.Spectrum(np.ones(2), v, dp.GroundSet.uniform(3))
    dp.sample_projection(spec, _Uniforms([0.375, 0.0]))


def _drifted_trace():
    # columns scaled by 1.01 after the orthonormality check
    spec = dp.Spectrum(np.ones(2), np.eye(2), dp.GroundSet.uniform(2))
    object.__setattr__(spec, "weighted", 1.01 * spec.weighted)
    dp.sample_projection(spec, dp.stream(1))


@pytest.mark.parametrize("fail, shown", [
    (_cancelled_pivot, "at atom 0 cancelled below 1e-10 of 0.5000"),
    (_drifted_trace, "residual intensity 2.0402"),
    (lambda: dp.core.admissible(np.array([0.5, 1.5]), -1.0), "eigenvalue 1.5 above 1"),
    (lambda: dp.core.admissible(np.array([0.5, -0.5]), 1.0), "eigenvalue -0.5 below 0"),
    (lambda: dp.sample_categorical(np.array([np.inf, 1.0]), dp.stream(1)), "sum to inf"),
    (lambda: dp.CountDistribution(np.array([0.5, 0.25])), "got 0.75"),
], ids=["pivot", "drift", "unit-interval", "nonnegative", "categorical", "pmf"])
def test_error_messages_print_plain_floats(fail, shown):
    # numpy scalars print as np.float64(...) under numpy 2; messages show the number
    with pytest.raises(dp.DetpermError) as info:
        fail()
    assert "np." not in str(info.value)
    assert shown in str(info.value)
