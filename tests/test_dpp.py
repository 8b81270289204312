import functools
import itertools
import json
import math
from collections import Counter
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detperm as dp
from detperm import dpp
from detperm.core import InvalidEigenvalueError, NumericalDegeneracyError

from conftest import (
    chi_square_homogeneity,
    joint_counts_observable,
    kernel_from_spectrum,
    occupancy_pmf_exact,
    projection_from_rank,
    projection_spectrum,
    tabulate,
)

ALPHA = 1e-3
N_SAMPLES = 10000
COMPLEX_STREAM = Path(__file__).resolve().parent / "data" / "complex_dpp_seed7.jsonl"


@pytest.fixture
def four_point_ground():
    return dp.GroundSet(("a", "b", "c", "d"), np.array([0.5, 1.0, 1.5, 2.0]))


@pytest.fixture
def rank2_spec(four_point_ground, rng):
    return projection_spectrum(projection_from_rank(four_point_ground, 2, rng))


@pytest.fixture(params=["complex", "real"])
def weighted_rank2_spec(request, four_point_ground, rng):
    """rank2_spec, or a rank-2 projection spectrum with real eigenfunctions:
    the thin QR of W^(1/2) times real normal columns, un-weighted."""
    if request.param == "complex":
        return projection_spectrum(projection_from_rank(four_point_ground, 2, rng))
    s = np.sqrt(four_point_ground.weights)
    q, _ = np.linalg.qr(s[:, None] * rng.normal(size=(4, 2)))
    spec = dp.Spectrum(np.ones(2), q / s[:, None], four_point_ground)
    assert spec.weighted.dtype == np.float64
    return spec


def exact_subset_law(spec):
    """Probability of each r-subset: det of the kernel minor times the
    product of the weights (enumeration oracle)."""
    k = spec.kernel().matrix
    w = spec.ground.weights
    law = {}
    for subset in itertools.combinations(range(spec.ground.size), spec.size):
        minor = k[np.ix_(subset, subset)]
        law[subset] = float(np.linalg.det(minor).real) * math.prod(w[i] for i in subset)
    return law


class TestSampleProjection:
    def test_rank_zero_is_empty(self, four_point_ground, rng):
        spec = dp.Spectrum(np.zeros(0), np.zeros((4, 0), dtype=complex), four_point_ground)
        assert dp.sample_projection(spec, rng).points == ()

    def test_full_rank_returns_everything(self, four_point_ground, rng):
        spec = projection_spectrum(projection_from_rank(four_point_ground, 4, rng))
        for _ in range(10):
            config = dp.sample_projection(spec, rng)
            assert sorted(config.points) == [0, 1, 2, 3]

    def test_exact_two_subset_law(self, weighted_rank2_spec, rng):
        law = exact_subset_law(weighted_rank2_spec)
        assert abs(sum(law.values()) - 1.0) < 1e-10
        counts = Counter(
            tuple(sorted(dp.sample_projection(weighted_rank2_spec, rng).points))
            for _ in range(N_SAMPLES)
        )
        observed = np.array([counts.get(s, 0) for s in law])
        expected = np.array([law[s] for s in law])
        report = dp.chi_square_fit(observed, expected)
        assert report.p_value > ALPHA, report

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.booleans(),
           st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_each_pick_is_the_categorical_draw(self, rank, extra, zero_rows, complex_, seed):
        # the sampler takes one uniform per step, so each pick is the
        # scalar categorical draw on that step's mass and the same stream;
        # atoms with no intensity and atoms already drawn have zero mass
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(rank + extra + zero_rows, rank))
        if complex_:
            a = a + 1j * gen.normal(size=a.shape)
        a[rank + extra:] = 0.0
        q, _ = np.linalg.qr(a)
        spec = dp.Spectrum(np.ones(rank), q, dp.GroundSet.uniform(len(q)))
        masses, locate = [], dpp._locate

        def spy(w, cum, u):
            masses.append(w.copy())
            return locate(w, cum, u)

        with mock.patch.object(dpp, "_locate", spy):
            points = dp.sample_projection(spec, dp.stream(seed)).points
        replay = dp.stream(seed)
        assert len(masses) == rank
        assert list(points) == [dp.sample_categorical(m, replay) for m in masses]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_each_residual_is_the_schur_complement(self, complex_):
        # the mass at each step is K(y, y) - K(y, S) K(S, S)^-1 K(S, y) for
        # the atoms S drawn so far, with K = V V* built densely from the
        # weighted columns: the r-side update against the textbook formula
        gen = np.random.default_rng(11)
        a = gen.normal(size=(40, 12))
        if complex_:
            a = a + 1j * gen.normal(size=a.shape)
        q, _ = np.linalg.qr(a)
        ground = dp.GroundSet(tuple(range(40)), gen.uniform(0.5, 2.0, size=40))
        spec = dp.Spectrum(np.ones(12), q / np.sqrt(ground.weights)[:, None], ground)
        keep = np.array([0, 2, 3, 5, 6, 7, 9, 11])
        v = spec.weighted[:, keep]
        k = v @ v.conj().T
        masses, locate = [], dpp._locate

        def spy(w, cum, u):
            masses.append(w.copy())
            return locate(w, cum, u)

        rng = dp.stream(5)
        for _ in range(20):
            masses.clear()
            with mock.patch.object(dpp, "_locate", spy):
                points = dp.sample_projection(spec, rng, keep).points
            assert len(masses) == len(keep)
            for step, mass in enumerate(masses):
                s = list(points[:step])
                schur = np.diag(k).real.copy()
                if s:
                    solved = np.linalg.solve(k[np.ix_(s, s)], k[s])  # K(S, S)^-1 K(S, y)
                    schur -= np.einsum("ys,sy->y", k[:, s], solved).real
                assert np.abs(mass - schur).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rounding_overshoot_picks_the_last_positive_atom(self, dtype):
        # the pairwise sum of this mass exceeds its last cumulative sum, so
        # the largest uniform lands past it, as in sample_categorical
        class LargestUniform:
            def random(self, size=None):
                u = 1.0 - 2.0**-53
                return u if size is None else np.full(size, u)

        w = np.array([1.0] + [1e-16] * 1000 + [0.0, 0.0])
        v = np.sqrt(w / w.sum()).astype(dtype)[:, None]
        spec = dp.Spectrum(np.ones(1), v, dp.GroundSet.uniform(len(w)))
        mass = (v.real**2 + v.imag**2)[:, 0]
        assert np.cumsum(mass)[-1] < (1.0 - 2.0**-53) * mass.sum()
        assert dp.sample_projection(spec, LargestUniform()).points == (1000,)
        assert dp.sample_categorical(mass, LargestUniform()) == 1000

    def test_cardinality_always_exact(self, rank2_spec, rng):
        for _ in range(2000):
            config = dp.sample_projection(rank2_spec, rng)
            assert len(config) == 2
            assert len(set(config.points)) == 2

    def test_reused_basis_draws_as_a_fresh_one(self, rank2_spec):
        # the weighted columns cached on a spectrum after its first draw
        # change nothing
        reused, fresh = dp.stream(3), dp.stream(3)
        for _ in range(20):
            copy = dp.Spectrum(rank2_spec.eigenvalues, rank2_spec.eigenvectors, rank2_spec.ground)
            assert (dp.sample_projection(rank2_spec, reused).points
                    == dp.sample_projection(copy, fresh).points)

    def test_all_columns_kept_draws_as_no_keep(self, rng):
        ground = dp.GroundSet(tuple(range(6)), rng.uniform(0.5, 2.0, size=6))
        spec = projection_spectrum(projection_from_rank(ground, 3, rng))
        whole, kept = dp.stream(3), dp.stream(3)
        for _ in range(20):
            assert (dp.sample_projection(spec, whole).points
                    == dp.sample_projection(spec, kept, np.arange(spec.size)).points)

    def test_broken_trace_identity_raises(self, rank2_spec, rng):
        # columns scaled by 1.01 carry 1.0201 times the rank in intensity:
        # the sampler must refuse, not clamp and draw
        object.__setattr__(rank2_spec, "weighted", 1.01 * rank2_spec.weighted)
        with pytest.raises(NumericalDegeneracyError, match="drifted"):
            dp.sample_projection(rank2_spec, rng)

    def test_draw_order_is_exchangeable(self, rank2_spec, rng):
        first, last = [], []
        for _ in range(N_SAMPLES):
            config = dp.sample_projection(rank2_spec, rng)
            first.append(config.points[0])
            last.append(config.points[-1])
        report = chi_square_homogeneity(tabulate(first, 4), tabulate(last, 4))
        assert report.p_value > ALPHA, report


class TestSampleDpp:
    def test_zero_kernel_empty(self, rng):
        k = dp.HermitianKernel(np.zeros((3, 3), dtype=complex), dp.GroundSet.uniform(3))
        for _ in range(20):
            assert dp.sample_dpp(k, rng).points == ()

    def test_projection_kernel_same_law_as_projection_sampler(
        self, rank2_spec, rng
    ):
        kernel = rank2_spec.kernel()
        law = exact_subset_law(rank2_spec)
        counts = Counter(
            tuple(sorted(dp.sample_dpp(kernel, rng).points)) for _ in range(N_SAMPLES)
        )
        observed = np.array([counts.get(s, 0) for s in law])
        report = dp.chi_square_fit(observed, np.array(list(law.values())))
        assert report.p_value > ALPHA, report

    def test_count_law_matches_bernoulli_convolution(self, rng):
        kernel = kernel_from_spectrum(dp.GroundSet.uniform(3), [0.2, 0.5, 0.9], rng)
        law = dp.count_pmf(kernel, [0, 1, 2])
        draws = [len(dp.sample_dpp(kernel, rng)) for _ in range(N_SAMPLES)]
        report = dp.chi_square_fit(tabulate(draws, len(law.pmf)), law.pmf)
        assert report.p_value > ALPHA, report

    def test_complex_stream_is_pinned(self):
        # 120 atoms at rank 20: large enough that a change in how the
        # residual is updated rounds it differently; the picks must not move.
        # 200 sample_dpp draws, then 50 sample_alpha(-0.5) draws.
        gen = np.random.default_rng(24)
        q, _ = np.linalg.qr(gen.normal(size=(120, 20)) + 1j * gen.normal(size=(120, 20)))
        lams = np.sort(gen.uniform(0.05, 1.0, size=20))[::-1]
        kernel = dp.Spectrum(lams, q, dp.GroundSet.uniform(120)).kernel()
        rng = dp.stream(7)
        draws = [dp.sample_dpp(kernel, rng).points for _ in range(200)]
        draws += [dp.sample_alpha(kernel, -0.5, rng).points for _ in range(50)]
        pinned = [tuple(json.loads(line)) for line in COMPLEX_STREAM.read_text().splitlines()]
        assert draws == pinned

    def test_invalid_kernel_rejected(self, rng):
        k = dp.HermitianKernel(1.2 * np.eye(2, dtype=complex), dp.GroundSet.uniform(2))
        with pytest.raises(InvalidEigenvalueError, match="eigenvalue 1.2 above 1"):
            dp.sample_dpp(k, rng)


class TestCountPmf:
    def test_full_projection_point_mass(self, rank2_spec):
        law = dp.count_pmf(rank2_spec.kernel(), [0, 1, 2, 3])
        assert abs(law.pmf[2] - 1.0) < 1e-10

    def test_empty_subset(self, rank2_spec):
        law = dp.count_pmf(rank2_spec.kernel(), [])
        assert law.pmf.tolist() == [1.0]

    def test_exact_mean_variance(self, rng):
        lams = [0.2, 0.5, 0.9]
        kernel = kernel_from_spectrum(dp.GroundSet.uniform(3), lams, rng)
        law = dp.count_pmf(kernel, [0, 1, 2])
        assert abs(law.mean() - sum(lams)) < 1e-10
        assert abs(law.variance() - sum(l * (1 - l) for l in lams)) < 1e-10


class TestJointCountsObservable:
    def test_deterministic_row(self, rng):
        row = np.array([[1.0, 0.0, 0.0]])
        for _ in range(20):
            assert joint_counts_observable(row, rng).tolist() == [1, 0, 0]

    def test_zero_rows(self, rng):
        rows = np.zeros((3, 2))
        assert joint_counts_observable(rows, rng).tolist() == [0, 0]

    def test_matches_enumeration_oracle(self, rng):
        lam = dp.annuli_lambdas(dp.ginibre_spec(3), [(0.0, 1.0), (1.0, 2.0)])
        exact = occupancy_pmf_exact(lam)
        counts = Counter(
            tuple(joint_counts_observable(lam, rng)) for _ in range(N_SAMPLES)
        )
        keys = sorted(exact)
        observed = np.array([counts.get(k, 0) for k in keys])
        report = dp.chi_square_fit(observed, np.array([exact[k] for k in keys]))
        assert report.p_value > ALPHA, report

    def test_row_sum_above_one_rejected(self, rng):
        with pytest.raises(dp.DetpermError):
            joint_counts_observable(np.array([[0.7, 0.7]]), rng)


class TestProjectionDensity:
    """The ordered-tuple density of the projection process onto all r
    eigenfunctions, against mu^r: the joint intensity over r!."""

    def test_rank_one(self, four_point_ground, rng):
        spec = projection_spectrum(projection_from_rank(four_point_ground, 1, rng))
        for x in range(4):
            expected = abs(spec.eigenvectors[x, 0]) ** 2
            assert abs(dp.joint_intensity(spec.kernel(), [x]) - expected) < 1e-12

    def test_repeated_point_is_zero(self, rank2_spec):
        assert dp.joint_intensity(rank2_spec.kernel(), [1, 1]) == 0.0

    def test_normalization_over_subsets(self, rank2_spec):
        # r! times the density summed over unordered r-subsets
        kernel, w = rank2_spec.kernel(), rank2_spec.ground.weights
        total = sum(
            dp.joint_intensity(kernel, list(s)) * w[s[0]] * w[s[1]]
            for s in itertools.combinations(range(4), 2)
        )
        assert abs(total - 1.0) < 1e-10


class TestDistributionalInvariants:
    def test_factorial_moment_for_disjoint_subsets(self, rng):
        kernel = kernel_from_spectrum(
            dp.GroundSet(tuple(range(4)), np.array([0.8, 1.2, 1.0, 0.6])),
            [0.3, 0.6, 0.9],
            rng,
        )
        d1, d2 = [0, 1], [2, 3]
        w = kernel.ground.weights
        predicted = sum(
            dp.joint_intensity(kernel, [x, y]) * w[x] * w[y] for x in d1 for y in d2
        )
        products = []
        for _ in range(N_SAMPLES):
            pts = dp.sample_dpp(kernel, rng).points
            products.append(
                sum(p in d1 for p in pts) * sum(p in d2 for p in pts)
            )
        products = np.array(products, dtype=float)
        se = products.std(ddof=1) / math.sqrt(len(products))
        assert abs(products.mean() - predicted) < 4 * se

    def test_thinning_scales_the_kernel(self, rng):
        # deleting each point independently with probability 1-c turns a
        # kernel K process into a c*K process; check rho_1 and one rho_2
        c = 0.6
        kernel = kernel_from_spectrum(dp.GroundSet.uniform(3), [0.4, 0.8, 0.9], rng)
        thin_kernel = dp.HermitianKernel(c * kernel.matrix, kernel.ground)
        marg = np.zeros(3)
        pair = []
        for _ in range(N_SAMPLES):
            pts = [p for p in dp.sample_dpp(kernel, rng).points if rng.random() < c]
            for p in pts:
                marg[p] += 1
            pair.append(int(0 in pts and 1 in pts))
        for x in range(3):
            predicted = dp.joint_intensity(thin_kernel, [x])
            freq = marg[x] / N_SAMPLES
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / N_SAMPLES)
            assert abs(freq - predicted) < 4 * se
        predicted2 = dp.joint_intensity(thin_kernel, [0, 1])
        pair = np.array(pair, dtype=float)
        se2 = pair.std(ddof=1) / math.sqrt(len(pair))
        assert abs(pair.mean() - predicted2) < 4 * se2


class TestProjectionBasis:
    def test_rejects_non_orthonormal_rows(self, four_point_ground, rng):
        spec = dp.Spectrum(np.ones(2), np.ones((4, 2), dtype=complex), four_point_ground)
        with pytest.raises(dp.DetpermError, match="orthonormal"):
            dp.sample_projection(spec, rng)

    def test_idempotence_check(self, rank2_spec):
        k = rank2_spec.kernel().matrix
        np.testing.assert_allclose((k * rank2_spec.ground.weights) @ k, k, atol=1e-6)

    def test_spectrum_orthonormality_checked_once(self, rng, monkeypatch):
        calls = []
        weighted = dp.Spectrum.weighted.func

        def counted(spec):
            calls.append(1)
            return weighted(spec)

        prop = functools.cached_property(counted)
        prop.__set_name__(dp.Spectrum, "weighted")
        monkeypatch.setattr(dp.Spectrum, "weighted", prop)
        ground = dp.GroundSet(tuple(range(6)), rng.uniform(0.5, 2.0, size=6))
        kernel = kernel_from_spectrum(ground, [0.9, 0.7, 0.5], rng, factored=True)
        for _ in range(50):
            dp.sample_dpp(kernel, rng)
        assert len(calls) == 1

    def test_corrupted_cached_spectrum_is_caught(self, rng):
        ground = dp.GroundSet(tuple(range(6)), rng.uniform(0.5, 2.0, size=6))
        kernel = kernel_from_spectrum(ground, [0.9, 0.7, 0.5], rng, factored=True)
        spec = dp.spectrum(kernel)
        vecs = spec.eigenvectors.copy()
        vecs[:, 1] *= 1.01
        object.__setattr__(kernel, "_spectrum_cache", dp.Spectrum(spec.eigenvalues, vecs, ground))
        with pytest.raises(dp.DetpermError, match="orthonormal"):
            dp.sample_dpp(kernel, rng)
