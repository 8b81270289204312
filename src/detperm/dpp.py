"""Exact determinantal sampling.

Every determinantal process is a Bernoulli mixture of projection
processes: ``sample_dpp`` keeps each eigenfunction of the kernel's
``Spectrum`` with probability equal to its eigenvalue, and
``sample_projection`` then draws the projection process onto the kept
columns.  Counts in any subset therefore follow an explicit Bernoulli
convolution.

The projection sampler is the sequential Schur-complement ("Cholesky")
chain rule.  Let V be the kept columns of ``Spectrum.weighted``, the
eigenfunctions times W^(1/2) for the atom masses W, checked orthonormal
once per spectrum: V V* is W^(1/2) K W^(1/2) for the projection kernel K.
The sampler keeps the residual diagonal d, the conditional intensity of
every atom given the points drawn so far.  Each step picks an atom x with
probability proportional to d, forms one new column of the Cholesky
factor of V V* from row x of V, and subtracts its squared moduli from d:
O(n r) per step and O(n r^2) per draw.  The same sampler draws random
spanning trees (``ust``) and the determinantal copies of alpha-unions
(``alphadet``).

Note that the Bernoulli indicators are an auxiliary construction: they are
not a measurable function of the sampled configuration, so no API here
exposes "which eigenfunctions were kept" as if it were observable.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    PIVOT_TOL,
    TRACE_TOL,
    CountDistribution,
    KernelValidationError,
    NumericalDegeneracyError,
    PointConfiguration,
    bernoulli_sum_pmf,
    clamp_unit_interval,
    sample_categorical,
)
from .kernels import eigenvalues, restrict, spectrum, validate_determinantal


def sample_projection(spec, rng, keep=None):
    """Draw the projection process onto the eigenfunctions of ``spec``, or
    onto its columns ``keep``: exactly that many distinct points, in
    selection order.  The eigenvalues are not read.

    Each step picks an atom x with probability proportional to its residual
    intensity d[x] (at the first step mu(x) * sum_i |phi_i(x)|^2), then
    conditions on x by one Schur-complement update of d.  The residual
    must sum to the number of points still to draw, and the drawn atom's
    residual must not have cancelled to rounding noise; either failure
    raises NumericalDegeneracyError.
    """
    v = spec.weighted if keep is None else spec.weighted[:, keep]
    rank = v.shape[1]
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
    return sample_projection(spec, rng, keep)


def count_pmf(kernel, subset):
    """Exact count distribution over a subset of atoms: the Bernoulli
    convolution of the restricted kernel's eigenvalues."""
    idx = list(subset)
    if not idx:
        return CountDistribution(np.array([1.0]), 0.0)
    sub = restrict(kernel, idx)
    return bernoulli_sum_pmf(eigenvalues(sub))
