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

from .core import DetpermError, PointConfiguration, admissible, sample_poisson_array
from .dpp import count_pmf
from .kernels import spectrum


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
    lams = admissible(spec.eigenvalues, 1.0)
    coeffs = standard_complex_normal(rng, size=len(lams))
    field = spec.eigenvectors @ (np.sqrt(lams) * coeffs)
    if not np.all(np.isfinite(field.view(float))):
        raise DetpermError("Gaussian field value is not finite")
    counts = sample_poisson_array(np.abs(field) ** 2 * kernel.ground.weights, rng)
    return PointConfiguration(np.repeat(np.arange(len(counts)), counts), simple=False)


def count_pmf_perm(kernel, subset, n_max):
    """Exact (truncated) count distribution over a subset of atoms:
    ``count_pmf`` at alpha = +1, the geometric convolution of the
    restricted kernel's eigenvalues."""
    return count_pmf(kernel, subset, 1.0, n_max)
