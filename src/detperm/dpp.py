"""Exact determinantal sampling.

Every determinantal process is a Bernoulli mixture of projection
processes: ``sample_dpp`` keeps each eigenfunction of the kernel with
probability equal to its eigenvalue, and ``sample_projection`` then draws
the projection process on the kept ones.  Counts in any subset therefore
follow an explicit Bernoulli convolution.

The projection sampler is the sequential Schur-complement ("Cholesky")
chain rule.  Let V be the n x r factor of the projection: V V* is
W^(1/2) K W^(1/2) for the atom masses W, and V has orthonormal columns.
The sampler keeps the residual diagonal d, the conditional intensity of
every atom given the points drawn so far.  Each step picks an atom x with
probability proportional to d, forms one new column of the Cholesky
factor of V V* from column x, and subtracts its squared moduli from d:
O(n r) per step and O(n r^2) per draw.  The same sampler draws random spanning trees
(``ust``) and the determinantal copies of alpha-unions (``alphadet``).

Note that the Bernoulli indicators are an auxiliary construction: they are
not a measurable function of the sampled configuration, so no API here
exposes "which eigenfunctions were kept" as if it were observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EIGENVALUE_TOL,
    ORTHONORMALITY_TOL,
    PIVOT_TOL,
    PROJECTION_TOL,
    TRACE_TOL,
    CountDistribution,
    DetpermError,
    GroundSet,
    KernelValidationError,
    NumericalDegeneracyError,
    PointConfiguration,
    bernoulli_sum_pmf,
    clamp_unit_interval,
    sample_categorical,
)
from .kernels import Spectrum, eigenvalues, restrict, spectrum, validate_determinantal


def _check_orthonormal(rows, weights):
    gram = (rows * weights) @ rows.conj().T
    if rows.shape[0] and not np.abs(gram - np.eye(rows.shape[0])).max() <= ORTHONORMALITY_TOL:
        raise DetpermError("basis rows are not orthonormal under the weights")


@dataclass(frozen=True)
class ProjectionBasis:
    """Rows are weighted-orthonormal functions spanning the range of a
    projection kernel."""

    functions: np.ndarray
    ground: GroundSet

    def __post_init__(self):
        f = np.asarray(self.functions, dtype=complex)
        if f.ndim != 2 or f.shape[1] != self.ground.size:
            raise DetpermError("basis must be rank x ground-size")
        object.__setattr__(self, "functions", f)
        _check_orthonormal(f, self.ground.weights)

    @property
    def rank(self):
        return self.functions.shape[0]

    def kernel(self):
        """The projection kernel, factored by the basis functions."""
        return Spectrum(np.ones(self.rank), self.functions.T, self.ground).kernel()

    @staticmethod
    def from_spectrum(spec, indices):
        """Basis from selected eigenfunction columns of a spectrum.  Columns
        picked from an orthonormal set stay orthonormal, so the check runs
        once per spectrum, over all its columns, not once per basis."""
        if not getattr(spec, "_orthonormal", False):
            _check_orthonormal(spec.eigenvectors.T, spec.ground.weights)
            object.__setattr__(spec, "_orthonormal", True)
        basis = object.__new__(ProjectionBasis)
        object.__setattr__(basis, "functions", spec.eigenvectors[:, list(indices)].T)
        object.__setattr__(basis, "ground", spec.ground)
        return basis

    @staticmethod
    def from_kernel(kernel):
        """Basis of a projection kernel (eigenvalues within PROJECTION_TOL
        of {0, 1})."""
        spec = spectrum(kernel)
        vals = spec.eigenvalues
        near_one = vals > 0.5
        if np.any(np.abs(vals - np.round(vals)) > PROJECTION_TOL):
            raise DetpermError("kernel is not a projection within tolerance")
        return ProjectionBasis.from_spectrum(spec, np.nonzero(near_one)[0])


def sample_projection(basis, rng):
    """Draw the projection process spanned by ``basis``: exactly
    ``basis.rank`` distinct points, in selection order.

    Each step picks an atom x with probability proportional to its residual
    intensity d[x] (at the first step mu(x) * sum_i |phi_i(x)|^2), then
    conditions on x by one Schur-complement update of d.  The residual
    must sum to the number of points still to draw, and the drawn atom's
    residual must not have cancelled to rounding noise; either failure
    raises NumericalDegeneracyError.
    """
    rank = basis.rank
    # Kept on the basis, so that a reused basis (a graph's cached tree
    # basis) draws without a fresh atoms x rank copy: allocating one per
    # draw re-faults the heap pages the allocator trimmed after the last.
    v = getattr(basis, "_weighted", None)
    if v is None:
        v = basis.functions.T * np.sqrt(basis.ground.weights)[:, None]
        object.__setattr__(basis, "_weighted", v)
    d = (v.real**2 + v.imag**2).sum(axis=1)
    start = d.copy()
    cols = np.empty((len(d), rank), dtype=complex)
    chosen = []
    for k in range(rank):
        mass = np.maximum(d, 0.0)
        total = mass.sum()
        if not abs(total - (rank - k)) <= TRACE_TOL * rank:
            raise NumericalDegeneracyError(
                f"residual intensity {total!r} drifted from {rank - k} points to draw"
            )
        x = sample_categorical(mass, rng)
        pivot = d[x]
        if not pivot > PIVOT_TOL * start[x]:
            raise NumericalDegeneracyError(
                f"pivot {pivot!r} at atom {x} cancelled below {PIVOT_TOL} of {start[x]!r}"
            )
        c = v @ v[x].conj() - cols[:, :k] @ cols[x, :k].conj()
        c /= math.sqrt(pivot)
        cols[:, k] = c
        d -= c.real**2 + c.imag**2
        d[x] = 0.0
        chosen.append(x)
    return PointConfiguration(tuple(chosen), simple=True)


def sample_dpp(kernel, rng):
    """Draw one determinantal sample for a general admissible kernel.

    Bernoulli indicators are drawn first (one per eigenvalue, in
    descending eigenvalue order, so replay is deterministic), then the
    projection process on the kept eigenfunctions is sampled.
    """
    verdict = validate_determinantal(kernel)
    if not verdict:
        raise KernelValidationError(f"kernel not determinantal: {verdict.reason}")
    spec = spectrum(kernel)
    lams = clamp_unit_interval(spec.eigenvalues)
    keep = np.nonzero(rng.random(len(lams)) < lams)[0]
    basis = ProjectionBasis.from_spectrum(spec, keep)
    return sample_projection(basis, rng)


def count_pmf(kernel, subset):
    """Exact count distribution over a subset of atoms: the Bernoulli
    convolution of the restricted kernel's eigenvalues."""
    idx = list(subset)
    if not idx:
        return CountDistribution(np.array([1.0]), 0.0)
    sub = restrict(kernel, idx)
    return bernoulli_sum_pmf(eigenvalues(sub))


def joint_counts_observable(lambda_matrix, rng):
    """One draw of joint counts in r cells for a simultaneously observable
    family, as an independent ball-into-cell assignment.

    Row k of ``lambda_matrix`` holds the per-cell probabilities for ball k;
    the leftover 1 - sum(row) is the probability the ball lands nowhere.
    """
    lm = np.atleast_2d(np.asarray(lambda_matrix, dtype=float))
    if np.any(lm < 0):
        raise DetpermError("cell probabilities must be non-negative")
    r = lm.shape[1]
    counts = np.zeros(r, dtype=np.int64)
    for row in lm:
        s = row.sum()
        if s > 1 + EIGENVALUE_TOL:
            raise DetpermError(f"row sums to {s!r} > 1")
        rest = max(0.0, 1.0 - s)
        cell = sample_categorical(np.concatenate([row, [rest]]), rng)
        if cell < r:
            counts[cell] += 1
    return counts


def projection_density(basis, points):
    """Ordered-tuple density of a projection process against mu^r:
    |det(phi_i(x_j))|^2 / r!."""
    idx = [int(p) for p in points]
    if len(idx) != basis.rank:
        raise DetpermError(
            f"need exactly rank={basis.rank} points, got {len(idx)}"
        )
    if any(i < 0 or i >= basis.ground.size for i in idx):
        raise DetpermError("point index outside the ground set")
    if basis.rank == 0:
        return 1.0
    m = basis.functions[:, idx]
    det = np.linalg.det(m)
    return float(abs(det) ** 2 / math.factorial(basis.rank))
