import itertools
import math

import numpy as np
import pytest

import detperm as dp
from detperm.core import CapacityError, SymmetryError

from conftest import (
    WITNESS_MATRIX,
    assert_spectra_agree,
    kernel_from_spectrum,
    projection_from_rank,
)


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2


def brute_force_permanent(m):
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


class TestSpectrum:
    def test_identity_kernel(self):
        k = dp.HermitianKernel(np.eye(2, dtype=complex), dp.GroundSet.uniform(2))
        np.testing.assert_allclose(dp.spectrum(k).eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_rank_one_projection(self):
        k = dp.HermitianKernel(
            np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), dp.GroundSet.uniform(2)
        )
        np.testing.assert_allclose(dp.spectrum(k).eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_reconstruction_and_weighted_orthonormality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ground = dp.GroundSet(tuple(range(n)), rng.uniform(0.2, 3.0, size=n))
            k = dp.HermitianKernel(random_hermitian(rng, n), ground)
            spec = dp.spectrum(k)
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
            np.testing.assert_allclose(spec.kernel().matrix, k.matrix, atol=1e-8)
            v = spec.eigenvectors
            gram = (v.conj().T * ground.weights) @ v
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-8)

    def test_eigenvalues_without_eigenvectors(self, rng, monkeypatch):
        eigh_calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: eigh_calls.append(1) or eigh(*a, **k))
        for n, d in ((6, None), (9, 3), (3, 7)):  # dense, tall factor, wide factor
            ground = dp.GroundSet(tuple(range(n)), rng.uniform(0.2, 3.0, size=n))
            if d is None:
                k = dp.HermitianKernel(random_hermitian(rng, n), ground)
            else:
                f = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
                k = dp.HermitianKernel.from_factor(f, rng.uniform(-1, 1, size=d), ground)
            vals = dp.eigenvalues(k)
            assert eigh_calls == [] and getattr(k, "_spectrum_cache", None) is None
            assert vals.shape == (min(n, d or n),)
            assert np.all(np.diff(vals) <= 0)
            np.testing.assert_allclose(vals, dp.spectrum(k).eigenvalues, atol=1e-12)
            assert dp.eigenvalues(k) is dp.spectrum(k).eigenvalues  # the cached spectrum's
            eigh_calls.clear()

    def test_non_hermitian_rejected(self):
        with pytest.raises(SymmetryError):
            dp.HermitianKernel(
                np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex), dp.GroundSet.uniform(2)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        m[1, 1] = bad
        with pytest.raises(dp.DetpermError, match="non-finite"):
            dp.HermitianKernel(m, dp.GroundSet.uniform(2))


def dense(matrix):
    return dp.HermitianKernel(matrix, dp.GroundSet.uniform(len(matrix)))


class TestValidateDeterminantal:
    def test_scaled_identity_invalid(self):
        verdict = dp.validate_determinantal(dense(1.2 * np.eye(2)))
        assert not verdict.valid
        assert abs(verdict.eigenvalue - 1.2) < 1e-12

    def test_projection_valid(self, rng):
        for _ in range(5):
            ground = dp.GroundSet(tuple(range(5)), rng.uniform(0.5, 2.0, size=5))
            proj = projection_from_rank(ground, 3, rng)
            assert dp.validate_determinantal(proj).valid

    def test_hand_computed_invalid_pair(self):
        # symmetric 2x2 with entries 0.5 / 0.6 has eigenvalues 0.5 +/- 0.6
        verdict = dp.validate_determinantal(dense(np.array([[0.5, 0.6], [0.6, 0.5]])))
        assert not verdict.valid
        assert abs(verdict.eigenvalue - 1.1) < 1e-12

    def test_non_hermitian_never_reaches_the_verdict(self):
        # the kernel type holds the Hermitian condition; the CLI turns this
        # error into an invalid verdict
        with pytest.raises(SymmetryError, match="Hermitian"):
            dense(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRestrict:
    def test_full_and_single(self, rng):
        ground = dp.GroundSet(("a", "b", "c"), np.array([1.0, 2.0, 0.5]))
        k = dp.HermitianKernel(random_hermitian(rng, 3), ground)
        full = dp.restrict(k, [0, 1, 2])
        np.testing.assert_allclose(full.matrix, k.matrix)
        single = dp.restrict(k, [1])
        assert single.matrix.shape == (1, 1)
        assert single.ground.labels == ("b",)
        np.testing.assert_allclose(single.matrix[0, 0], k.matrix[1, 1])

    def test_restriction_of_valid_kernel_stays_valid(self, rng):
        # eigenvalue interlacing: principal submatrices cannot escape [0, 1]
        for _ in range(20):
            ground = dp.GroundSet(tuple(range(5)), rng.uniform(0.2, 2.0, size=5))
            proj = projection_from_rank(ground, 2, rng)
            subset = sorted(rng.choice(5, size=3, replace=False).tolist())
            assert dp.validate_determinantal(dp.restrict(proj, subset)).valid

    def test_bad_subsets(self, rng):
        k = dp.HermitianKernel(np.eye(3, dtype=complex), dp.GroundSet.uniform(3))
        with pytest.raises(dp.DetpermError):
            dp.restrict(k, [0, 0])
        with pytest.raises(dp.DetpermError):
            dp.restrict(k, [5])


class TestPermanent:
    def test_identity(self):
        assert abs(dp.permanent(np.eye(4)) - 1.0) < 1e-12

    def test_all_ones(self):
        assert abs(dp.permanent(np.ones((3, 3))) - 6.0) < 1e-12

    def test_witness_matrix(self):
        # sum over all 6 permutations: 8 + 2*(-1) + 3*2*(-1)... = 12
        assert abs(dp.permanent(WITNESS_MATRIX) - 12.0) < 1e-12

    def test_matches_brute_force(self, rng):
        for n in range(1, 7):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert abs(dp.permanent(m) - brute_force_permanent(m)) < 1e-8

    def test_capacity(self):
        with pytest.raises(CapacityError):
            dp.permanent(np.eye(21))


class TestAlphaDet:
    def test_reduces_to_determinant_and_permanent(self, rng):
        for n in range(1, 7):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert abs(dp.alpha_det(m, -1.0) - np.linalg.det(m)) < 1e-8
            assert abs(dp.alpha_det(m, 1.0) - dp.permanent(m)) < 1e-8

    def test_witness_formula(self):
        for alpha in (-1.0, 0.0, 1.0, 2.0, 5.0):
            expected = 2 * (4 - alpha) * (alpha + 1)
            assert abs(dp.alpha_det(WITNESS_MATRIX, alpha) - expected) < 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            dp.alpha_det(np.eye(10), 0.5)


class TestJointIntensity:
    def test_single_point(self, rng):
        ground = dp.GroundSet.uniform(3)
        k = dp.HermitianKernel(random_hermitian(rng, 3), ground)
        for x in range(3):
            assert abs(
                dp.joint_intensity(k, [x]) - k.matrix[x, x].real
            ) < 1e-12

    def test_repeated_point_determinantal_is_exact_zero(self, rng):
        k = dp.HermitianKernel(random_hermitian(rng, 4), dp.GroundSet.uniform(4))
        assert dp.joint_intensity(k, [2, 2]) == 0.0
        assert dp.joint_intensity(k, [0, 1, 0]) == 0.0

    def test_rank_plus_one_points_of_projection_are_exact_zero(self, rng):
        # the zero test is relative to Hadamard's bound, so scaling the
        # kernel down keeps the rank-r intensities and the exact zeros
        proj = projection_from_rank(dp.GroundSet.uniform(5), 2, rng)
        for scale in (1.0, 1e-6):
            k = dp.HermitianKernel(scale * proj.matrix, proj.ground)
            for triple in itertools.combinations(range(5), 3):
                assert dp.joint_intensity(k, triple) == 0.0
            for pair in itertools.combinations(range(5), 2):
                assert dp.joint_intensity(k, pair) > 0.0

    def test_ordered_pair_sum_for_rank2_projection(self, rng):
        # second factorial moment of a 2-point process is n(n-1) = 2
        ground = dp.GroundSet(tuple(range(4)), rng.uniform(0.3, 2.0, size=4))
        proj = projection_from_rank(ground, 2, rng)
        w = ground.weights
        total = sum(
            dp.joint_intensity(proj, [x, y]) * w[x] * w[y]
            for x in range(4)
            for y in range(4)
        )
        assert abs(total - 2.0) < 1e-8

    def test_permanental_psd_nonnegative(self, rng):
        for _ in range(10):
            ground = dp.GroundSet.uniform(4)
            k = kernel_from_spectrum(ground, rng.uniform(0, 2, size=4), rng)
            pts = rng.integers(0, 4, size=int(rng.integers(1, 6))).tolist()
            assert dp.joint_intensity(k, pts, kind="permanental") >= -1e-9

    def test_alpha_kind(self, rng):
        k = dp.HermitianKernel(WITNESS_MATRIX.astype(complex), dp.GroundSet.uniform(3))
        value = dp.joint_intensity(k, [0, 1, 2], kind="alpha", alpha=5.0)
        assert abs(value + 12.0) < 1e-10


class TestCauchyBinet:
    def test_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            direct = np.linalg.det(a @ b)
            expansion = sum(
                np.linalg.det(a[:, cols]) * np.linalg.det(b[list(cols), :])
                for cols in itertools.combinations(range(n), m)
            )
            assert abs(direct - expansion) < 1e-8 * (1 + abs(direct))


class TestMarginalization:
    def test_projection_marginals(self, rng):
        # for an n-point process, integrating n-k variables out of the top
        # intensity recovers the k-point intensity
        for _ in range(100):
            size = int(rng.integers(2, 6))
            n = int(rng.integers(1, min(4, size) + 1))
            k = int(rng.integers(1, n + 1))
            ground = dp.GroundSet(tuple(range(size)), rng.uniform(0.3, 1.5, size=size))
            proj = projection_from_rank(ground, n, rng)
            w = ground.weights
            pts = rng.integers(0, size, size=k).tolist()
            integrated = 0.0
            for rest in itertools.product(range(size), repeat=n - k):
                weight = math.prod(w[j] for j in rest)
                integrated += dp.joint_intensity(proj, pts + list(rest)) * weight
            integrated /= math.factorial(n - k)
            direct = dp.joint_intensity(proj, pts)
            assert abs(integrated - direct) < 1e-8 * (1 + abs(direct))


class TestKernelJson:
    def test_round_trip(self, rng):
        ground = dp.GroundSet(("u", "v"), np.array([1.0, 2.0]))
        k = dp.HermitianKernel(random_hermitian(rng, 2), ground)
        back = dp.HermitianKernel.from_json(k.to_json())
        np.testing.assert_allclose(back.matrix, k.matrix, atol=1e-15)
        assert back.ground.labels == k.ground.labels

    def test_real_shorthand_and_default_ground(self):
        k = dp.HermitianKernel.from_json({"matrix_real": [[1.0, 0.5], [0.5, 1.0]]})
        assert k.matrix.dtype == complex
        np.testing.assert_array_equal(k.matrix, [[1.0, 0.5], [0.5, 1.0]])
        assert k.ground.labels == (0, 1)
        np.testing.assert_allclose(k.ground.weights, [1.0, 1.0])

    def test_missing_matrix_is_error(self):
        with pytest.raises(dp.DetpermError, match="'matrix' or 'matrix_real'"):
            dp.HermitianKernel.from_json({"ground": {"labels": [0], "weights": [1.0]}})


class TestFactoredKernel:
    def factor(self, rng, n=5, d=2):
        return rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))

    @pytest.mark.parametrize("rows, coefficients, message", [
        (5, [0.5, 0.2], None),
        (4, [0.5, 0.2], "ground size"),
        (5, [0.5], "ground size"),
        (5, [0.5, 0.2j], "real"),
        (5, [0.5, np.nan], "non-finite"),
        (5, [np.inf, 0.2], "non-finite"),
    ])
    def test_structural_checks(self, rng, rows, coefficients, message):
        f = self.factor(rng)[:rows]
        ground = dp.GroundSet.uniform(5)
        if message is None:
            k = dp.HermitianKernel.from_factor(f, coefficients, ground)
            np.testing.assert_allclose(k.matrix, (f * coefficients) @ f.conj().T, atol=1e-12)
            return
        with pytest.raises(dp.DetpermError, match=message):
            dp.HermitianKernel.from_factor(f, coefficients, ground)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_factor_rejected(self, rng, bad):
        f = self.factor(rng)
        f[3, 1] = bad
        with pytest.raises(dp.DetpermError, match="non-finite"):
            dp.HermitianKernel.from_factor(f, [0.5, 0.2], dp.GroundSet.uniform(5))

    def test_negative_coefficient_is_invalid(self, rng):
        q, _ = np.linalg.qr(self.factor(rng))  # orthonormal columns: eigenvalues 0.5, -0.2
        k = dp.HermitianKernel.from_factor(q, [0.5, -0.2], dp.GroundSet.uniform(5))
        verdict = dp.validate_determinantal(k)
        assert not verdict.valid
        assert "below 0" in verdict.reason
        assert abs(verdict.eigenvalue + 0.2) < 1e-12

    def test_readers_match_the_dense_kernel(self, rng):
        ground = dp.GroundSet(tuple(range(6)), rng.uniform(0.3, 2.0, size=6))
        factored = kernel_from_spectrum(ground, [0.9, 0.4], dp.stream(5), factored=True)
        dense = kernel_from_spectrum(ground, [0.9, 0.4], dp.stream(5))
        np.testing.assert_allclose(factored.matrix, dense.matrix, atol=1e-12)
        np.testing.assert_allclose(factored.diagonal(), np.diag(dense.matrix).real, atol=1e-12)
        sub = dp.restrict(factored, [4, 1, 2])
        assert sub.factor is not None and sub.ground.labels == (4, 1, 2)
        np.testing.assert_allclose(sub.matrix, dp.restrict(dense, [4, 1, 2]).matrix, atol=1e-12)
        for subset in ([4], [4, 1, 2]):  # fewer, then more atoms than the rank
            assert_spectra_agree(dp.spectrum(dp.restrict(dense, subset)),
                                 dp.spectrum(dp.restrict(factored, subset)))
        for points in ([3], [0, 5], [1, 1], [2, 4, 0]):
            for kind in ("determinantal", "permanental"):
                assert abs(dp.joint_intensity(factored, points, kind)
                           - dp.joint_intensity(dense, points, kind)) < 1e-12

    @pytest.mark.parametrize("weights, build, arg", [
        ((1.0, 1.0, 1.0), kernel_from_spectrum, [0.2, 0.5, 0.9]),
        ((1.0,) * 5, kernel_from_spectrum, [0.9, 0.6, 0.3]),
        ((0.5, 1.0, 1.5, 2.0), projection_from_rank, 2),
        ((0.3, 2.0, 0.7, 1.1, 1.9), projection_from_rank, 3),
        ((0.3, 2.0, 0.7, 1.1, 1.9), projection_from_rank, 5),
        ((0.4, 1.3, 0.8, 2.2, 1.0, 0.6), kernel_from_spectrum, [1.5, 0.95, 0.95, 0.3, 0.0]),
    ])
    def test_dense_and_factored_spectra_agree(self, weights, build, arg):
        ground = dp.GroundSet(tuple(range(len(weights))), np.array(weights))
        dense = build(ground, arg, dp.stream(77))
        factored = build(ground, arg, dp.stream(77), factored=True)
        assert_spectra_agree(dp.spectrum(dense), dp.spectrum(factored))
