"""Exact determinantal sampling.

Every determinantal process is a Bernoulli mixture of projection
processes: ``sample_dpp`` keeps each eigenfunction of the kernel's
``Spectrum`` with probability equal to its eigenvalue, and
``sample_projection`` then draws the projection process onto the kept
columns.  Counts in any subset therefore follow an explicit Bernoulli
convolution; ``count_pmf`` gives it, and with its ``alpha`` the count law
of every alpha-determinantal process.

The projection sampler is the sequential Schur-complement ("Cholesky")
chain rule.  Let V be the kept columns of ``Spectrum.weighted``, the
eigenfunctions times W^(1/2) for the atom masses W, checked orthonormal
once per spectrum: V V* is W^(1/2) K W^(1/2) for the projection kernel K.
The sampler keeps the residual diagonal d, the conditional intensity of
every atom given the points drawn so far.  Each step picks an atom x with
probability proportional to d, forms column k of the Cholesky factor of
V V* as c_k = V f_k with f_k = (conj(v_x) - conj(C[:k, x]) F[:k]) / sqrt(d[x])
for the earlier columns C and f_j (rows of F), and subtracts |c_k|^2 from d:
one n x r and one k x r product per step, about n r^2 + r^3/2 flops per
draw.  The uniforms come as one block, equal on Philox to one scalar draw
per step, and each pick reuses the trace check's mass sum, so it is the
index ``sample_categorical`` would draw on the same stream.  The sampler
follows V's dtype: a real V, such as a spanning tree's, runs in real
arithmetic.  The same sampler draws random spanning trees (``ust``) and
the determinantal copies of alpha-unions (``alphadet``).

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
    NumericalDegeneracyError,
    ParameterError,
    PointConfiguration,
    _locate,
    admissible,
    bernoulli_sum_pmf,
    geometric_sum_pmf,
    union_copies,
)
from .kernels import eigenvalues, restrict, spectrum


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
    n, rank = v.shape
    real = not np.iscomplexobj(v)
    d = (v * v if real else v.real**2 + v.imag**2).sum(axis=1)
    start = d.copy()
    cols = np.empty((rank, n), dtype=v.dtype)  # row k: column k of the factor, V f_k
    f = np.empty((rank, rank), dtype=v.dtype)  # row k: f_k
    cum = np.empty(n)
    chosen = []
    for k, u in enumerate(rng.random(rank)):
        np.maximum(d, 0.0, out=d)  # d only decreases: a clamped atom keeps zero mass
        total = d.sum()
        if not abs(total - (rank - k)) <= TRACE_TOL * rank:
            raise NumericalDegeneracyError(
                f"residual intensity {float(total)} drifted from {rank - k} points to draw"
            )
        x = _locate(d, d.cumsum(out=cum), u * total)
        pivot = d[x]
        if not pivot > PIVOT_TOL * start[x]:
            raise NumericalDegeneracyError(
                f"pivot {float(pivot)} at atom {x} cancelled below {PIVOT_TOL} "
                f"of {float(start[x])}"
            )
        fk = np.subtract(v[x].conj(), cols[:k, x].conj() @ f[:k], out=f[k])
        fk /= math.sqrt(pivot)
        c = np.dot(v, fk, out=cols[k])
        sq = np.square(c if real else c.view(float))
        d -= sq if real else sq[::2] + sq[1::2]  # |c|^2, as re^2 + im^2 when complex
        d[x] = 0.0
        chosen.append(x)
    return PointConfiguration(tuple(chosen), simple=True)


def sample_dpp(kernel, rng):
    """Draw one determinantal sample for a kernel with eigenvalues in [0, 1].

    Bernoulli indicators are drawn first (one per eigenvalue, in
    descending eigenvalue order, so replay is deterministic), then the
    projection process on the kept eigenfunctions is sampled.
    """
    spec = spectrum(kernel)
    lams = admissible(spec.eigenvalues, -1.0)
    keep = np.nonzero(rng.random(len(lams)) < lams)[0]
    return sample_projection(spec, rng, keep)


def count_pmf(kernel, subset, alpha=-1.0, n_max=None):
    """Exact count distribution over a subset of atoms for the
    alpha-determinantal process of the kernel, by default the determinantal
    one (alpha = -1).

    With m = union_copies(alpha), the count is a sum of independent
    variables, m for each eigenvalue lambda of the restricted kernel, with
    parameter |alpha| lambda: Bernoulli for alpha < 0, so a binomial per
    eigenvalue, and geometric for alpha > 0, so a negative binomial per
    eigenvalue, truncated at ``n_max``.  So alpha = -1 gives the
    determinantal and alpha = +1 the permanental count law.  The whole kernel
    must be ``admissible`` at alpha, not only the restriction.  A kernel that
    holds its spectrum, of numerical rank r, is restricted r x r (``restrict``):
    an alpha < 0 pmf then ends at m r, past which it held rounding noise.
    """
    copies = union_copies(alpha)
    admissible(eigenvalues(kernel), alpha)
    idx = list(subset)
    if not idx:
        return CountDistribution(np.array([1.0]), 0.0)
    lams = np.repeat(admissible(eigenvalues(restrict(kernel, idx)), alpha), copies)
    if alpha < 0:
        return bernoulli_sum_pmf(lams)
    if n_max is None:
        raise ParameterError("n_max is required for alpha > 0 count laws")
    return geometric_sum_pmf(lams, n_max)
