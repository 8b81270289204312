"""Hermitian kernel matrices: spectra, admissibility, and the exact
determinant / permanent / alpha-determinant evaluators behind joint
intensities.

All spectral computations work in the weighted inner product
``<f, g> = sum_x f(x) conj(g(x)) mu(x)`` induced by the ground set, by
symmetrizing with W^(1/2) on both sides before calling a Hermitian
eigensolver: on the n x n matrix of a dense kernel, or on the d x d Gram
side of a rank-d factored one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import (
    EIGENVALUE_TOL,
    HERMITIAN_TOL,
    INTENSITY_IMAG_TOL,
    SINGULARITY_TOL,
    CapacityError,
    DetpermError,
    GroundSet,
    SymmetryError,
)

PERMANENT_CAP = 20  # Ryser is O(2^n n)
ALPHA_DET_CAP = 9   # explicit S_n iteration


def _check_hermitian(matrix):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DetpermError(f"kernel matrix must be square, got shape {m.shape}")
    scale = np.abs(m).max() if m.size else 0.0
    if not np.isfinite(scale):
        raise DetpermError("kernel matrix has non-finite entries")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > HERMITIAN_TOL * (1.0 + scale):
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return m


class HermitianKernel:
    """A Hermitian kernel over a ground set, held dense or factored.

    ``HermitianKernel(matrix, ground)`` holds the n x n matrix.
    ``HermitianKernel.from_factor(factor, coefficients, ground)`` holds
    K = F diag(c) F* for an n x d factor F and real coefficients c: its
    spectrum costs O(n d^2), and its dense matrix is built on the first
    read of ``.matrix`` and cached.  A kernel is not modified after
    construction, so derived results are cached on it.
    """

    def __init__(self, matrix, ground):
        m = _check_hermitian(matrix)
        if m.shape[0] != ground.size:
            raise DetpermError("kernel size does not match ground set size")
        self.ground = ground
        self.factor = None
        self.coefficients = None
        self._matrix = m

    @staticmethod
    def from_factor(factor, coefficients, ground):
        """The kernel F diag(c) F*, Hermitian by construction: F must be
        finite with one row per atom, c finite and real."""
        f = np.asarray(factor, dtype=complex)
        c = np.asarray(coefficients)
        if np.iscomplexobj(c):
            raise DetpermError("factor coefficients must be real")
        c = c.astype(float)
        if f.ndim != 2 or f.shape[0] != ground.size or c.shape != (f.shape[1],):
            raise DetpermError(
                f"factor must be ground size {ground.size} x d with d coefficients, "
                f"got {f.shape} and {c.shape}"
            )
        if not (np.isfinite(f).all() and np.isfinite(c).all()):
            raise DetpermError("kernel factor has non-finite entries")
        kernel = object.__new__(HermitianKernel)
        kernel.ground, kernel.factor, kernel.coefficients = ground, f, c
        kernel._matrix = None
        return kernel

    @property
    def matrix(self):
        """The dense n x n matrix; a factored kernel builds it on first read."""
        if self._matrix is None:
            f = self.factor
            self._matrix = (f * self.coefficients) @ f.conj().T
        return self._matrix

    def minor(self, idx):
        """The submatrix on rows and columns ``idx`` (repeats allowed),
        read from the factor rows when the kernel is factored."""
        if self.factor is None:
            return self._matrix[np.ix_(idx, idx)]
        f = self.factor[idx]
        return (f * self.coefficients) @ f.conj().T

    def diagonal(self):
        """The real diagonal K(x, x), from the factor's row norms when factored."""
        if self.factor is None:
            return np.real(np.diag(self._matrix))
        return (self.factor.real**2 + self.factor.imag**2) @ self.coefficients

    @property
    def size(self):
        return self.ground.size

    def to_json(self):
        return {
            "ground": self.ground.to_json(),
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(obj):
        ground, matrix = parse_kernel_json(obj)
        return HermitianKernel(matrix, ground)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return HermitianKernel.from_json(json.load(fh))


def parse_kernel_json(obj):
    """Parse the kernel file format without enforcing Hermitian symmetry.

    Accepts ``{"ground": ..., "matrix": [[[re, im], ...], ...]}`` or the
    real shorthand ``{"matrix_real": [[...]]}``.  A missing ground defaults
    to indices 0..n-1 with unit weights.  Returns ``(ground, matrix)``.
    """
    if "matrix_real" in obj:
        matrix = np.asarray(obj["matrix_real"], dtype=float).astype(complex)
    elif "matrix" in obj:
        raw = obj["matrix"]
        matrix = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in raw],
            dtype=complex,
        )
    else:
        raise DetpermError("kernel JSON needs a 'matrix' or 'matrix_real' field")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DetpermError(f"kernel matrix must be square, got shape {matrix.shape}")
    if "ground" in obj:
        ground = GroundSet.from_json(obj["ground"])
    else:
        ground = GroundSet.uniform(matrix.shape[0])
    return ground, matrix


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and eigenfunction columns, orthonormal in
    the weighted inner product of the ground set."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ground: GroundSet

    @property
    def size(self):
        return len(self.eigenvalues)

    def kernel(self):
        """The kernel sum_k lambda_k phi_k(x) conj(phi_k(y)) of this
        spectrum, factored by its eigenfunction columns and holding this
        spectrum as its own, so it is never decomposed again."""
        kernel = HermitianKernel.from_factor(self.eigenvectors, self.eigenvalues, self.ground)
        kernel._spectrum_cache = self
        return kernel


def spectrum(kernel):
    """Eigendecompose a kernel in the weighted inner product.

    A dense kernel solves the symmetrized problem W^(1/2) K W^(1/2).  A
    factored one taller than wide (n > d) works on the d x d Gram side
    instead, at O(n d^2): with the thin QR W^(1/2) F = Q R, the symmetrized
    kernel is Q (R diag(c) R*) Q*.  Either way it has exactly min(n, d)
    eigenpairs, and no cut-off decides which eigenvalues count as zero;
    a factor no taller than wide, such as a restriction to a few atoms,
    skips the QR and builds the n x n side directly.  The eigenvectors are
    un-weighted, so columns of the result are orthonormal against the
    ground weights and the kernel reconstructs as
    sum_k lambda_k phi_k(x) conj(phi_k(y)).  The decomposition is cached
    on the kernel object, so repeated sampling from one kernel pays for
    it once.
    """
    cached = getattr(kernel, "_spectrum_cache", None)
    if cached is not None:
        return cached
    s = np.sqrt(kernel.ground.weights)
    q = None
    if kernel.factor is None:
        b = s[:, None] * kernel.matrix * s[None, :]
    else:
        f = s[:, None] * kernel.factor
        if f.shape[0] > f.shape[1]:
            q, f = np.linalg.qr(f)
        b = (f * kernel.coefficients) @ f.conj().T
    b = (b + b.conj().T) / 2
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise DetpermError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    if q is not None:
        vecs = q @ vecs
    result = Spectrum(vals[order], vecs / s[:, None], kernel.ground)
    object.__setattr__(kernel, "_spectrum_cache", result)
    return result


@dataclass(frozen=True)
class KernelVerdict:
    valid: bool
    reason: str | None = None
    eigenvalue: float | None = None

    def __bool__(self):
        return self.valid


def validate_determinantal(kernel, ground=None):
    """Decide whether a kernel can carry a determinantal process.

    Valid iff the matrix is Hermitian and every eigenvalue (in the
    weighted inner product) lies in [0, 1] up to clamping tolerance.
    Accepts a HermitianKernel, or a raw matrix plus optional ground set so
    that non-Hermitian input yields an invalid verdict instead of an error.
    Non-finite or non-square input is malformed and raises.
    """
    if not isinstance(kernel, HermitianKernel):
        m = np.asarray(kernel, dtype=complex)
        try:
            _check_hermitian(m)
        except SymmetryError as exc:
            return KernelVerdict(False, str(exc))
        if ground is None:
            ground = GroundSet.uniform(m.shape[0])
        kernel = HermitianKernel(m, ground)
    vals = spectrum(kernel).eigenvalues
    if vals.size and vals.max() > 1 + EIGENVALUE_TOL:
        lam = float(vals.max())
        return KernelVerdict(False, f"eigenvalue {lam!r} above 1", lam)
    if vals.size and vals.min() < -EIGENVALUE_TOL:
        lam = float(vals.min())
        return KernelVerdict(False, f"eigenvalue {lam!r} below 0", lam)
    return KernelVerdict(True)


def restrict(kernel, subset):
    """The kernel on a subset of atoms: its principal submatrix, or the
    factor's rows on the subset."""
    idx = [int(i) for i in subset]
    if len(set(idx)) != len(idx):
        raise DetpermError("restriction subset must have distinct indices")
    if any(i < 0 or i >= kernel.size for i in idx):
        raise DetpermError("restriction index outside the ground set")
    ground = GroundSet(
        tuple(kernel.ground.labels[i] for i in idx),
        kernel.ground.weights[idx],
    )
    if kernel.factor is None:
        return HermitianKernel(kernel.minor(idx), ground)
    return HermitianKernel.from_factor(kernel.factor[idx], kernel.coefficients, ground)


def permanent(matrix):
    """Exact permanent via Ryser's inclusion-exclusion with Gray-code
    column updates; capped at n <= 20."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DetpermError("permanent needs a square matrix")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n > PERMANENT_CAP:
        raise CapacityError(f"permanent capped at n={PERMANENT_CAP}, got {n}")
    total = complex(0.0)
    row_sums = np.zeros(n, dtype=complex)
    gray = 0
    for k in range(1, 2**n):
        new_gray = k ^ (k >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            row_sums += m[:, j]
        else:
            row_sums -= m[:, j]
        gray = new_gray
        sign = -1 if (n - new_gray.bit_count()) % 2 else 1
        total += sign * np.prod(row_sums)
    return complex(total)


def _cycle_count(perm):
    n = len(perm)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def alpha_det(matrix, alpha):
    """Permutation sum weighted by alpha^(n - #cycles); interpolates the
    determinant (alpha = -1) and permanent (alpha = +1).  Brute force over
    S_n, capped at n <= 9."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DetpermError("alpha_det needs a square matrix")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n > ALPHA_DET_CAP:
        raise CapacityError(f"alpha_det capped at n={ALPHA_DET_CAP}, got {n}")
    total = complex(0.0)
    idx = range(n)
    for perm in itertools.permutations(idx):
        prod = complex(1.0)
        for i in idx:
            prod *= m[i, perm[i]]
        total += alpha ** (n - _cycle_count(perm)) * prod
    return complex(total)


def joint_intensity(kernel, points, kind="determinantal", alpha=None):
    """Joint intensity of a point tuple: the determinant, permanent or
    alpha-determinant of the corresponding kernel minor.

    Repeats are allowed (and meaningful) for the permanental and alpha
    kinds; a determinantal intensity with a repeated point is exactly 0.
    """
    idx = [int(p) for p in points]
    if any(i < 0 or i >= kernel.size for i in idx):
        raise DetpermError("point index outside the ground set")
    minor = kernel.minor(idx)
    if kind == "determinantal":
        if len(set(idx)) != len(idx):
            return 0.0
        value = complex(np.linalg.det(minor))
        if abs(value) <= SINGULARITY_TOL * np.prod(np.linalg.norm(minor, axis=1)):
            value = complex(0.0)
    elif kind == "permanental":
        value = permanent(minor)
    elif kind == "alpha":
        if alpha is None:
            raise DetpermError("alpha kind requires the alpha parameter")
        value = alpha_det(minor, alpha)
    else:
        raise DetpermError(f"unknown intensity kind {kind!r}")
    if abs(value.imag) > INTENSITY_IMAG_TOL * (1 + abs(value.real)):
        raise DetpermError(f"joint intensity came out non-real: {value!r}")
    return float(value.real)
