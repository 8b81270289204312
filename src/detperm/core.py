"""Ground sets, point configurations, count laws and reproducible randomness.

Everything downstream samples through an explicitly passed
``numpy.random.Generator`` backed by the counter-based Philox bit
generator, so runs are reproducible and streams are splittable for
parallel batches.  No module touches numpy's global RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Every numerical tolerance of the package, each bounding one quantity.
# Eigenvalues (and eigenvalue-like weights) within this of their admissible
# range are clamped into it; further out they are rejected.
EIGENVALUE_TOL = 1e-9
# Max |K - K*| of a Hermitian kernel, relative to 1 + max |K|.
HERMITIAN_TOL = 1e-10
# |det| of a minor at most this times Hadamard's bound (the product of its
# row norms) reports an exact 0, so repeated-point minors vanish.
SINGULARITY_TOL = 1e-12
# Max deviation of a spectrum's weighted Gram matrix from I.
ORTHONORMALITY_TOL = 1e-8
# Max drift of the chain rule's residual trace from the number of points
# still to draw, as a share of the rank.
TRACE_TOL = 1e-6
# Min residual of a drawn atom in the chain rule, as a share of its
# starting intensity.
PIVOT_TOL = 1e-10
# Max distance of -1/alpha or 1/alpha from an integer, relative to it.
RECIPROCAL_TOL = 1e-9
# Max error of a radial term's normalizer a_k^2 times its base moment from 1.
NORMALIZATION_TOL = 1e-8
# Max imaginary part of a joint intensity, relative to 1 + its real part.
INTENSITY_IMAG_TOL = 1e-9
# Max distance of a count law's pmf plus tail bound from total mass 1.
PMF_MASS_TOL = 1e-12
# Max eigenvalue clamp of a discretized radial kernel; a coarser grid raises.
DISCRETIZATION_CLAMP_TOL = 0.05

GAMMA_SHAPE_CAP = 500  # gamma_cdf sums shape Poisson terms from e^(-x)


class DetpermError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidEigenvalueError(DetpermError):
    """An eigenvalue lies outside its admissible range beyond tolerance."""


class DegenerateDistributionError(DetpermError):
    """A discrete distribution has no mass to sample from."""


class ParameterError(DetpermError):
    """A distribution parameter is out of range."""


class SymmetryError(DetpermError):
    """A matrix that must be Hermitian is not."""


class CapacityError(DetpermError):
    """An exact combinatorial evaluation exceeds its size cap."""


class KernelValidationError(DetpermError):
    """A kernel fails the admissibility check required by a sampler."""


class NumericalDegeneracyError(DetpermError):
    """An orthogonalization or rank update did not behave as guaranteed."""


class DiscretizationError(DetpermError):
    """A grid discretization is too coarse to be trusted."""


class UnsupportedAlphaError(DetpermError):
    """No exact sampler exists for this alpha parameter."""


class GraphError(DetpermError):
    """A graph input violates a structural requirement."""


# ---------------------------------------------------------------------------
# randomness


def stream(seed):
    """Create a reproducible sample stream from a 64-bit seed.

    Returns a ``numpy.random.Generator`` over Philox (counter-based), so
    identical seeds plus identical call sequences give identical draws.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split(rng, n):
    """Split a stream into ``n`` independent child streams."""
    return list(rng.spawn(int(n)))


def sample_categorical(weights, rng):
    """Draw an index with probability proportional to ``weights[i]``."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.all(w >= 0):
        raise DegenerateDistributionError("weights must be non-negative and non-empty")
    total = w.sum()
    if not 0 < total < math.inf:
        raise DegenerateDistributionError(f"categorical weights sum to {total!r}")
    i = int(np.searchsorted(np.cumsum(w), rng.random() * total, side="right"))
    # The pairwise sum can exceed the last cumulative sum by rounding; a
    # draw past it belongs to the last atom of positive weight.
    return i if i < w.size else int(np.flatnonzero(w)[-1])


def sample_poisson_array(means, rng):
    """Independent Poisson draws for an array of means (numpy's exact sampler)."""
    m = np.asarray(means, dtype=float)
    if not np.all(m >= 0):
        raise ParameterError("Poisson means must be non-negative")
    return rng.poisson(m)


# ---------------------------------------------------------------------------
# domain types


def _encode_label(label):
    if isinstance(label, complex):
        return [label.real, label.imag]
    if isinstance(label, tuple):
        return [_encode_label(x) for x in label]
    return label


def _decode_label(obj):
    if isinstance(obj, list):
        return tuple(_decode_label(x) for x in obj)
    return obj


@dataclass(frozen=True)
class GroundSet:
    """A finite labeled state space with strictly positive atom masses."""

    labels: tuple
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        if len(labels) < 1:
            raise DetpermError("ground set must contain at least one atom")
        if weights.shape != (len(labels),):
            raise DetpermError("labels and weights must have the same length")
        if not np.all((weights > 0) & np.isfinite(weights)):
            raise DetpermError("all atom weights must be finite and strictly positive")
        if len(set(labels)) != len(labels):
            raise DetpermError("labels must be pairwise distinct")

    @property
    def size(self):
        return len(self.labels)

    @staticmethod
    def uniform(n):
        """Ground set 0..n-1 with unit weights."""
        return GroundSet(tuple(range(n)), np.ones(n))

    def to_json(self):
        return {
            "labels": [_encode_label(x) for x in self.labels],
            "weights": [float(w) for w in self.weights],
        }

    @staticmethod
    def from_json(obj):
        return GroundSet(
            tuple(_decode_label(x) for x in obj["labels"]),
            np.asarray(obj["weights"], dtype=float),
        )


@dataclass(frozen=True)
class PointConfiguration:
    """A sample: atom indices, with set semantics when ``simple`` is true."""

    points: tuple
    simple: bool = True

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if self.simple and len(set(pts)) != len(pts):
            raise DetpermError("a simple configuration cannot repeat points")
        if any(p < 0 for p in pts):
            raise DetpermError("point indices must be non-negative")

    def __len__(self):
        return len(self.points)

    def validate_against(self, ground):
        if any(p >= ground.size for p in self.points):
            raise DetpermError("point index outside the ground set")

    def labels(self, ground):
        self.validate_against(ground)
        return [ground.labels[p] for p in self.points]

    def multiplicities(self):
        counts = {}
        for p in self.points:
            counts[p] = counts.get(p, 0) + 1
        return counts


@dataclass(frozen=True)
class CountDistribution:
    """Exact pmf of a point count over 0..N_max plus explicitly tracked
    truncated tail mass (never silently renormalized)."""

    pmf: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if np.any(pmf < 0):
            raise DetpermError("pmf entries must be non-negative")
        total = pmf.sum() + self.tail_bound
        if not (1 - PMF_MASS_TOL <= total <= 1 + PMF_MASS_TOL):
            raise DetpermError(f"pmf plus tail must sum to 1, got {total!r}")

    @property
    def n_max(self):
        return len(self.pmf) - 1

    def mean(self):
        """Truncated mean; underestimates the true mean by at most the
        mass sitting beyond n_max times its (unknown) location."""
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def variance(self):
        k = np.arange(len(self.pmf))
        m = self.mean()
        return float(((k - m) ** 2) @ self.pmf)

    def to_json(self):
        return {"pmf": [float(p) for p in self.pmf], "tail_bound": float(self.tail_bound)}


# ---------------------------------------------------------------------------
# count laws


def clamp_unit_interval(values):
    """Clamp values into [0, 1], allowing jitter of up to EIGENVALUE_TOL outside."""
    tol = EIGENVALUE_TOL
    v = np.asarray(values, dtype=float)
    if v.size and (v.min() < -tol or v.max() > 1 + tol):
        bad = v[(v < -tol) | (v > 1 + tol)][0]
        raise InvalidEigenvalueError(f"value {bad!r} outside [0, 1] beyond tolerance")
    return np.clip(v, 0.0, 1.0)


def clamp_nonnegative(values):
    """Clamp values into [0, inf), allowing jitter of up to EIGENVALUE_TOL below 0."""
    v = np.asarray(values, dtype=float)
    if v.size and v.min() < -EIGENVALUE_TOL:
        raise InvalidEigenvalueError(f"value {v.min()!r} negative beyond tolerance")
    return np.maximum(v, 0.0)


def bernoulli_sum_pmf(lambdas):
    """Exact pmf of a sum of independent Bernoulli(lambda_k) variables.

    Computed by convolving the factors of the generating polynomial
    prod_k (1 - lambda_k + lambda_k t); no truncation is involved.
    """
    lams = clamp_unit_interval(lambdas)
    pmf = np.array([1.0])
    for lam in lams:
        pmf = np.convolve(pmf, [1.0 - lam, lam])
    return CountDistribution(pmf, 0.0)


def _geometric_pmf(lam, n_max):
    # P(s) = (lam/(1+lam))^s / (1+lam) for s = 0, 1, ...
    s = np.arange(n_max + 1)
    ratio = lam / (1.0 + lam)
    return np.power(ratio, s) / (1.0 + lam)


def geometric_sum_pmf(lambdas, n_max):
    """Pmf of a sum of independent geometric variables with means lambda_k,
    truncated at ``n_max``.

    Each summand has P(s) = (lam/(lam+1))^s / (lam+1).  The pmf is built by
    iterated convolution with truncation at n_max; mass that convolves past
    n_max only ever leaves, so the retained entries are exact.  tail_bound
    is the exact leaked mass 1 - sum(pmf); analytically it also satisfies
    tail <= sum_k (lam_k/(1+lam_k))^(floor(n_max/n)+1) since the total can
    exceed n_max only if some single summand exceeds n_max/n.
    """
    lams = clamp_nonnegative(lambdas)
    if n_max < 0:
        raise ParameterError("n_max must be non-negative")
    pmf = np.array([1.0])
    for lam in lams:
        if lam == 0:
            continue
        pmf = np.convolve(pmf, _geometric_pmf(lam, n_max))[: n_max + 1]
    tail = max(0.0, 1.0 - pmf.sum())
    return CountDistribution(pmf, tail)


def gamma_cdf(x, shape):
    """P(X <= x) for X ~ Gamma(shape, 1) with a positive integer shape: the
    Poisson tail 1 - e^(-x) sum_{j < shape} x^j / j!, summed by the
    recurrence t_j = t_(j-1) x / j from t_0 = e^(-x).

    Capped at shape GAMMA_SHAPE_CAP: e^(-x) underflows past x = 708, and up
    to the cap the Poisson head it drops there is below 1e-16.
    """
    if not 1 <= shape <= GAMMA_SHAPE_CAP:
        raise CapacityError(f"gamma shape must be 1..{GAMMA_SHAPE_CAP}, got {shape}")
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    term = np.exp(-x)
    head = term
    for j in range(1, shape):
        term = term * x / j
        head = head + term
    return 1.0 - head
