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

import functools
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    HERMITIAN_TOL,
    INTENSITY_IMAG_TOL,
    ORTHONORMALITY_TOL,
    SINGULARITY_TOL,
    CapacityError,
    DetpermError,
    GroundSet,
    InvalidEigenvalueError,
    ParameterError,
    SymmetryError,
    _array,
    admissible,
)

PERMANENT_CAP = 20  # Ryser is O(2^n n)
ALPHA_DET_CAP = 9   # explicit S_n iteration


def _real_or_complex(a):
    """``a`` as a float array, or a complex one if it is complex."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _check_hermitian(matrix):
    m = _real_or_complex(matrix)
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
        finite with one row per atom, c finite and real.  A real F is held
        real, and without a copy if it is already float."""
        f = _real_or_complex(factor)
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
        """Parse ``{"ground": ..., "matrix": [[[re, im], ...], ...]}`` or the
        real shorthand ``{"matrix_real": [[...]]}``.  A missing ground
        defaults to indices 0..n-1 with unit weights."""
        if not isinstance(obj, dict):
            raise ParameterError(f"a kernel must be a JSON object, got {obj!r}")
        if "matrix_real" in obj:
            real = _array(obj["matrix_real"], "matrix_real")
            if real.dtype.kind not in "iuf":
                raise DetpermError(f"'matrix_real' must hold numbers, got {real.dtype} entries")
            matrix = real
        elif "matrix" in obj:
            pairs = _array(obj["matrix"], "matrix")
            if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
                raise DetpermError(f"'matrix' must hold [re, im] number pairs, got "
                                   f"{pairs.dtype} entries of shape {pairs.shape}")
            matrix = pairs.astype(float, copy=False).view(complex)[..., 0]
        else:
            raise DetpermError("kernel JSON needs a 'matrix' or 'matrix_real' field")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DetpermError(f"kernel matrix must be square, got shape {matrix.shape}")
        if "ground" in obj:
            ground = GroundSet.from_json(obj["ground"])
        else:
            ground = GroundSet.uniform(matrix.shape[0])
        return HermitianKernel(matrix, ground)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return HermitianKernel.from_json(json.load(fh))


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

    @functools.cached_property
    def weighted(self):
        """The eigenfunction columns times sqrt(mu): an n x size matrix with
        orthonormal columns, the factor the projection sampler runs on.  The
        first read checks the orthonormality and caches the matrix, so a
        spectrum drawn from many times is checked once."""
        v = self.eigenvectors * np.sqrt(self.ground.weights)[:, None]
        gram = v.conj().T @ v
        if self.size and not np.abs(gram - np.eye(self.size)).max() <= ORTHONORMALITY_TOL:
            raise DetpermError("eigenfunctions are not orthonormal under the weights")
        return v

    @functools.cached_property
    def nonzero(self):
        """The numerical-rank view: the pairs with |lambda| above size eps max|lambda|,
        the eigensolver's backward error; this spectrum itself if none is dropped."""
        mags = np.abs(self.eigenvalues)
        keep = mags > self.size * sys.float_info.epsilon * mags.max(initial=0.0)
        return self if keep.all() else Spectrum(
            self.eigenvalues[keep], self.eigenvectors[:, keep], self.ground)

    def scaled(self, factor):
        """Eigenvalues times ``factor``: the same eigenfunctions keep any checked ``weighted``."""
        result = Spectrum(factor * self.eigenvalues, self.eigenvectors, self.ground)
        if "weighted" in self.__dict__:
            result.__dict__["weighted"] = self.weighted
        return result

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
    b, q, s = _symmetrized(kernel)
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


def eigenvalues(kernel):
    """The eigenvalues of ``spectrum(kernel)``, in descending order, without
    its eigenvectors: all of a cached spectrum's, or ``eigvalsh`` of the same
    symmetrized matrix, r x r after ``restrict`` through a ``nonzero`` view.
    Count laws need no more, and a throw-away restriction caches nothing."""
    cached = getattr(kernel, "_spectrum_cache", None)
    if cached is not None:
        return cached.eigenvalues
    try:
        return np.linalg.eigvalsh(_symmetrized(kernel)[0])[::-1]
    except np.linalg.LinAlgError as exc:
        raise DetpermError(f"eigensolver failed to converge: {exc}") from exc


def _symmetrized(kernel):
    """The Hermitian matrix whose eigenpairs give the kernel's spectrum,
    the Q of the thin QR that maps them back to the atoms (None when the
    matrix is n x n), and the square roots of the weights."""
    s = np.sqrt(kernel.ground.weights)
    q = None
    if kernel.factor is None:
        b = s[:, None] * kernel.matrix * s[None, :]
    else:
        f = s[:, None] * kernel.factor
        if f.shape[0] > f.shape[1]:
            q, f = np.linalg.qr(f)
        b = (f * kernel.coefficients) @ f.conj().T
    return (b + b.conj().T) / 2, q, s


@dataclass(frozen=True)
class KernelVerdict:
    valid: bool
    reason: str | None = None
    eigenvalue: float | None = None

    def __bool__(self):
        return self.valid


def validate_determinantal(kernel):
    """Decide whether a HermitianKernel can carry a determinantal process:
    valid iff its eigenvalues (in the weighted inner product) are
    ``admissible`` at alpha = -1.  The Hermitian condition is the kernel
    type's own: constructing a HermitianKernel from a non-Hermitian matrix
    raises SymmetryError.
    """
    try:
        admissible(spectrum(kernel).eigenvalues, -1.0)
    except InvalidEigenvalueError as exc:
        return KernelVerdict(False, str(exc), exc.eigenvalue)
    return KernelVerdict(True)


def restrict(kernel, subset):
    """The kernel on a subset of atoms: the rows of its held spectrum's
    ``nonzero`` view when that numerical rank r is below the subset's size,
    so the eigenproblem is r x r; else its principal submatrix or factor rows."""
    idx = [int(i) for i in subset]
    if len(set(idx)) != len(idx):
        raise DetpermError("restriction subset must have distinct indices")
    if idx and (min(idx) < 0 or max(idx) >= kernel.size):
        raise DetpermError("restriction index outside the ground set")
    ground = GroundSet(
        tuple(kernel.ground.labels[i] for i in idx),
        kernel.ground.weights[idx],
    )
    rows = getattr(kernel, "_spectrum_cache", None)
    if rows is not None and rows.nonzero.size < len(idx):
        return HermitianKernel.from_factor(rows.nonzero.eigenvectors[idx],
                                           rows.nonzero.eigenvalues, ground)
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


def joint_intensity(kernel, points, alpha=-1.0):
    """Joint intensity of a point tuple for the alpha-determinantal process
    of the kernel: the alpha-determinant of the corresponding kernel minor,
    which is its determinant at alpha = -1 (the default) and its permanent
    at alpha = +1.

    Repeats are allowed (and meaningful) for alpha != -1; a determinantal
    intensity with a repeated point is exactly 0.
    """
    idx = [int(p) for p in points]
    if any(i < 0 or i >= kernel.size for i in idx):
        raise DetpermError("point index outside the ground set")
    minor = kernel.minor(idx)
    if alpha == -1:
        if len(set(idx)) != len(idx):
            return 0.0
        value = complex(np.linalg.det(minor))
        if abs(value) <= SINGULARITY_TOL * np.prod(np.linalg.norm(minor, axis=1)):
            value = complex(0.0)
    elif alpha == 1:
        value = permanent(minor)
    else:
        value = alpha_det(minor, alpha)
    if abs(value.imag) > INTENSITY_IMAG_TOL * (1 + abs(value.real)):
        raise DetpermError(f"joint intensity came out non-real: {value!r}")
    return float(value.real)
