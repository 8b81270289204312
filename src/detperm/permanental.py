"""Permanental (boson) process sampling via the Gaussian-intensity Cox
representation.

A permanental process with a PSD kernel is a Poisson process whose random
intensity is |F|^2 for a centered complex Gaussian field F with that
covariance.  On a finite ground set this is sampled exactly: draw one
standard complex Gaussian coefficient per eigenfunction, then an
independent Poisson count per atom.  Counts in any subset follow a
geometric convolution, and the process is a mixture of fixed-occupancy
states whose densities are squared permanents.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CountDistribution,
    DetpermError,
    PointConfiguration,
    clamp_nonnegative,
    geometric_sum_pmf,
    sample_geometric,
    sample_poisson_array,
)
from .kernels import eigenvalues, permanent, restrict, spectrum


def standard_complex_normal(rng, size=None):
    """Standard complex normal: real and imaginary parts iid N(0, 1/2)."""
    scale = math.sqrt(0.5)
    return rng.normal(scale=scale, size=size) + 1j * rng.normal(scale=scale, size=size)


def sample_permanental(kernel, rng):
    """Draw one permanental sample (a multiset of atoms; a single atom may
    carry several points): the field F = sum_k sqrt(lambda_k) a_k phi_k,
    with one standard complex normal a_k per eigenfunction in descending
    eigenvalue order, then a Poisson count of mean mu(x) |F(x)|^2 per atom."""
    spec = spectrum(kernel)
    lams = clamp_nonnegative(spec.eigenvalues)
    coeffs = standard_complex_normal(rng, size=len(lams))
    field = spec.eigenvectors @ (np.sqrt(lams) * coeffs)
    if not np.all(np.isfinite(field.view(float))):
        raise DetpermError("Gaussian field value is not finite")
    counts = sample_poisson_array(np.abs(field) ** 2 * kernel.ground.weights, rng)
    return PointConfiguration(np.repeat(np.arange(len(counts)), counts), simple=False)


def count_pmf_perm(kernel, subset, n_max):
    """Exact (truncated) count distribution over a subset of atoms: the
    geometric convolution of the restricted kernel's eigenvalues."""
    idx = list(subset)
    if not idx:
        return CountDistribution(np.array([1.0]), 0.0)
    return geometric_sum_pmf(eigenvalues(restrict(kernel, idx)), n_max)


def bosonic_density(phis, alphas, points):
    """Ordered-tuple density of the fixed-occupancy state with alpha_i
    points in eigenfunction i:

        |per(row-repeated matrix)|^2 / (l! * prod_i alpha_i!)

    where row i of the matrix, phi_i evaluated at the points, is repeated
    alpha_i times and l = sum(alphas).  Rows of ``phis`` must be
    orthonormal in the weighted inner product for this to integrate to the
    probability of the occupancy state.
    """
    phis = np.asarray(phis, dtype=complex)
    alphas = [int(a) for a in alphas]
    if any(a < 0 for a in alphas):
        raise DetpermError("occupancy numbers must be non-negative")
    if phis.ndim != 2 or phis.shape[0] != len(alphas):
        raise DetpermError("one occupancy number per eigenfunction row required")
    ell = sum(alphas)
    idx = [int(p) for p in points]
    if len(idx) != ell:
        raise DetpermError(f"need exactly {ell} points, got {len(idx)}")
    if ell == 0:
        return 1.0
    rows = np.repeat(phis[:, idx], alphas, axis=0)
    value = permanent(rows)
    norm = math.factorial(ell) * math.prod(math.factorial(a) for a in alphas)
    return float(abs(value) ** 2 / norm)


def sample_mixture_label(kernel, rng):
    """Draw the occupancy vector (one geometric count per eigenvalue, in
    descending eigenvalue order) that selects a fixed-occupancy component
    of the permanental mixture."""
    lams = clamp_nonnegative(spectrum(kernel).eigenvalues)
    return np.array([sample_geometric(lam, rng) for lam in lams], dtype=np.int64)


def joint_counts_observable_perm(lambda_matrix, rng):
    """One draw of joint counts in r cells for a simultaneously observable
    family: per row, a geometric total with mean sum(row), split
    multinomially across the cells in proportion to the row."""
    lm = np.atleast_2d(np.asarray(lambda_matrix, dtype=float))
    if np.any(lm < 0):
        raise DetpermError("cell intensities must be non-negative")
    r = lm.shape[1]
    counts = np.zeros(r, dtype=np.int64)
    for row in lm:
        lam = row.sum()
        if lam == 0:
            continue
        total = sample_geometric(lam, rng)
        if total:
            counts += rng.multinomial(total, row / lam)
    return counts
