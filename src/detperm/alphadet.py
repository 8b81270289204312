"""Alpha-determinantal processes in the integer-reciprocal regimes.

When -1/alpha is a positive integer m, the process is a union of m iid
determinantal samples with kernel -alpha*K; when 1/alpha is a positive
integer m, it is a union of m iid permanental samples with kernel
alpha*K.  Counts follow binomial respectively negative-binomial
convolutions.  Every other alpha fails loudly: there is no exact sampler
to fall back on, and for alpha > 4 a three-point kernel witnesses that no
process can exist at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RECIPROCAL_TOL,
    CountDistribution,
    KernelValidationError,
    PointConfiguration,
    UnsupportedAlphaError,
    bernoulli_sum_pmf,
    clamp_nonnegative,
    geometric_sum_pmf,
    split,
)
from .dpp import sample_dpp
from .kernels import (
    Spectrum,
    eigenvalues,
    restrict,
    spectrum,
    validate_determinantal,
)
from .permanental import sample_permanental

DET_UNION = "det-union"
PERM_UNION = "perm-union"
UNSUPPORTED = "unsupported"

@dataclass(frozen=True)
class AlphaRegime:
    alpha: float
    mode: str
    copies: int | None = None


def classify_alpha(alpha):
    """Classify alpha: union of -1/alpha determinantal copies, union of
    1/alpha permanental copies, or unsupported.  The copy count is
    m = 1/|alpha| and the sign of alpha picks the mode; 0, +-inf and NaN,
    which give no finite positive m, are unsupported."""
    a = float(alpha)
    m = 1.0 / abs(a) if a else math.inf
    copies = round(m) if math.isfinite(m) else 0
    if copies >= 1 and abs(m - copies) <= RECIPROCAL_TOL * copies:
        return AlphaRegime(a, DET_UNION if a < 0 else PERM_UNION, copies)
    return AlphaRegime(a, UNSUPPORTED)


def _require_supported(alpha):
    regime = classify_alpha(alpha)
    if regime.mode == UNSUPPORTED:
        raise UnsupportedAlphaError(
            f"alpha={alpha!r}: neither -1/alpha nor 1/alpha is a positive integer"
        )
    return regime


def scaled_kernel(kernel, factor):
    """factor * K for a positive factor, built once per factor and cached
    on K.  It is the kernel of K's spectrum with the eigenvalues times the
    factor: the same eigenfunctions, still in descending order, so it is
    never decomposed again and is Hermitian by construction."""
    cache = kernel.__dict__.setdefault("_scaled_cache", {})
    if factor not in cache:
        spec = spectrum(kernel)
        cache[factor] = Spectrum(factor * spec.eigenvalues, spec.eigenvectors, spec.ground).kernel()
    return cache[factor]


def sample_alpha(kernel, alpha, rng):
    """Draw one alpha-determinantal sample as a multiset union of
    independent copies (streams are split one per copy)."""
    regime = _require_supported(alpha)
    points = []
    streams = split(rng, regime.copies)
    if regime.mode == DET_UNION:
        base = scaled_kernel(kernel, -regime.alpha)
        verdict = validate_determinantal(base)
        if not verdict:
            raise KernelValidationError(
                f"-alpha*K is not determinantal: {verdict.reason}"
            )
        for child in streams:
            points.extend(sample_dpp(base, child).points)
    else:
        base = scaled_kernel(kernel, regime.alpha)
        for child in streams:
            points.extend(sample_permanental(base, child).points)
    return PointConfiguration(tuple(sorted(points)), simple=False)


def alpha_count_pmf(kernel, alpha, subset, n_max=None):
    """Exact count distribution over a subset of atoms.

    For alpha < 0 (m = -1/alpha copies) each eigenvalue contributes a
    Binomial(m, -alpha*lambda); for alpha > 0 each contributes a Negative
    Binomial(m = 1/alpha, ...).  Both reduce to repeating the per-copy
    eigenvalue m times in the corresponding Bernoulli or geometric
    convolution, so alpha = -1 and alpha = +1 reproduce the determinantal
    and permanental count laws bit for bit.
    """
    regime = _require_supported(alpha)
    idx = list(subset)
    if not idx:
        return CountDistribution(np.array([1.0]), 0.0)
    lams = clamp_nonnegative(eigenvalues(restrict(kernel, idx)))
    per_copy = np.repeat(abs(regime.alpha) * lams, regime.copies)
    if regime.mode == DET_UNION:
        return bernoulli_sum_pmf(per_copy)
    if n_max is None:
        raise KernelValidationError("n_max is required for alpha > 0 count laws")
    return geometric_sum_pmf(per_copy, n_max)
