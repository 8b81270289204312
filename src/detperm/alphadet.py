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

from dataclasses import dataclass

import numpy as np

from .core import (
    RECIPROCAL_TOL,
    CountDistribution,
    KernelValidationError,
    PointConfiguration,
    bernoulli_sum_pmf,
    clamp_nonnegative,
    geometric_sum_pmf,
    split,
)
from .core import UnsupportedAlphaError
from .kernels import (
    Spectrum,
    alpha_det,
    restrict,
    spectrum,
    validate_determinantal,
)

DET_UNION = "det-union"
PERM_UNION = "perm-union"
UNSUPPORTED = "unsupported"

# Three-point kernel whose alpha-determinant 2(4 - alpha)(alpha + 1) goes
# negative for alpha > 4, ruling the process out there.
WITNESS_MATRIX = np.array(
    [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
)


@dataclass(frozen=True)
class AlphaRegime:
    alpha: float
    mode: str
    copies: int | None = None


def classify_alpha(alpha):
    """Classify alpha: union of -1/alpha determinantal copies, union of
    1/alpha permanental copies, or unsupported."""
    a = float(alpha)
    if a < 0:
        m = -1.0 / a
        mr = round(m)
        if mr >= 1 and abs(m - mr) <= RECIPROCAL_TOL * max(1.0, mr):
            return AlphaRegime(a, DET_UNION, int(mr))
    elif a > 0:
        m = 1.0 / a
        mr = round(m)
        if mr >= 1 and abs(m - mr) <= RECIPROCAL_TOL * max(1.0, mr):
            return AlphaRegime(a, PERM_UNION, int(mr))
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
        from .dpp import sample_dpp

        for child in streams:
            points.extend(sample_dpp(base, child).points)
    else:
        base = scaled_kernel(kernel, regime.alpha)
        from .permanental import sample_permanental

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
    lams = clamp_nonnegative(spectrum(restrict(kernel, idx)).eigenvalues)
    per_copy = np.repeat(abs(regime.alpha) * lams, regime.copies)
    if regime.mode == DET_UNION:
        return bernoulli_sum_pmf(per_copy)
    if n_max is None:
        raise KernelValidationError("n_max is required for alpha > 0 count laws")
    return geometric_sum_pmf(per_copy, n_max)


@dataclass(frozen=True)
class WitnessResult:
    alpha: float
    value: float

    @property
    def verdict(self):
        return "negative_intensity" if self.value < 0 else "inconclusive"

    @property
    def negative(self):
        return self.value < 0


def existence_witness(alpha):
    """Evaluate the three-point witness kernel's alpha-determinant; a
    negative value proves no alpha-determinantal process with that kernel
    (hence no general existence) for this alpha."""
    value = alpha_det(WITNESS_MATRIX, alpha)
    return WitnessResult(float(alpha), float(value.real))
