"""Radially symmetric planar kernels K(z, w) = sum_k lambda_k a_k^2 (z wbar)^k.

For such kernels the squared moduli of the points are independent draws
with explicit laws (a size-biasing chain of the base squared-modulus
distribution), so they can be sampled exactly with no discretization.
Concentric annuli are simultaneously observable, with occupancy
probabilities read off the exact modulus CDFs.  Full planar point clouds,
which additionally need angles, go through a square-lattice midpoint
discretization that reports its own eigenvalue-clamp diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DISCRETIZATION_CLAMP_TOL,
    EIGENVALUE_TOL,
    NORMALIZATION_TOL,
    DetpermError,
    DiscretizationError,
    GroundSet,
    ParameterError,
    PointConfiguration,
    gamma_cdf,
    sample_poisson_array,
)
from .dpp import sample_dpp
from .kernels import HermitianKernel, Spectrum, spectrum
from .permanental import sample_permanental


class _GaussianBase:
    """Planar density exp(-|z|^2)/pi; squared modulus is Exp(1) and its
    k-times size-biased version is gamma(k+1, 1)."""

    name = "gaussian"
    support_radius = math.inf

    @staticmethod
    def density(r):
        return math.exp(-r * r) / math.pi

    @staticmethod
    def moment(k):
        # integral of q^k against Exp(1)
        return math.gamma(k + 1)

    @staticmethod
    def sample_q(k, rng):
        return float(rng.gamma(k + 1))

    @staticmethod
    def cdf_q(k, q):
        return gamma_cdf(q, k + 1)


class _LebesgueDiskBase:
    """Uniform density 1/pi on the unit disk; squared modulus is
    uniform[0, 1] and its k-times size-biased version is beta(k+1, 1),
    sampled by the closed form U^(1/(k+1))."""

    name = "lebesgue-disk"
    support_radius = 1.0

    @staticmethod
    def density(r):
        return 1.0 / math.pi if r < 1.0 else 0.0

    @staticmethod
    def moment(k):
        return 1.0 / (k + 1)

    @staticmethod
    def sample_q(k, rng):
        return float(rng.random() ** (1.0 / (k + 1)))

    @staticmethod
    def cdf_q(k, q):
        return np.clip(q, 0.0, 1.0) ** (k + 1)


_BASES = {b.name: b for b in (_GaussianBase, _LebesgueDiskBase)}


def base_density(name):
    try:
        return _BASES[name]
    except KeyError:
        raise ParameterError(
            f"unknown base density {name!r}; known: {sorted(_BASES)}"
        ) from None


@dataclass(frozen=True)
class RadialTerm:
    degree: int
    weight: float      # eigenvalue in [0, 1]
    norm_sq: float     # a_k^2, normalizer making a_k z^k unit norm


@dataclass(frozen=True)
class RadialKernelSpec:
    terms: tuple
    base: str

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        b = base_density(self.base)
        degrees = [t.degree for t in terms]
        if len(set(degrees)) != len(degrees):
            raise DetpermError("term degrees must be distinct")
        for t in terms:
            if t.degree < 0:
                raise DetpermError("term degree must be non-negative")
            if not (-EIGENVALUE_TOL <= t.weight <= 1 + EIGENVALUE_TOL):
                raise DetpermError(f"term weight {t.weight!r} outside [0, 1]")
            if t.norm_sq <= 0:
                raise DetpermError("term normalizer must be positive")
            resid = abs(t.norm_sq * b.moment(t.degree) - 1.0)
            if resid > NORMALIZATION_TOL:
                raise DetpermError(
                    f"normalizer for degree {t.degree} is off by {resid:.3e}"
                )

    def coefficients(self):
        """lambda_k * a_k^2 per term."""
        return np.array([t.weight * t.norm_sq for t in self.terms])

    def to_json(self):
        return {
            "terms": [{"k": t.degree, "lambda": t.weight} for t in self.terms],
            "base": self.base,
            "a2": [t.norm_sq for t in self.terms],
        }

    @staticmethod
    def from_json(obj):
        b = base_density(obj["base"])
        raw_terms = obj["terms"]
        a2 = obj.get("a2", "auto")
        terms = []
        for i, t in enumerate(raw_terms):
            k = int(t["k"])
            norm_sq = 1.0 / b.moment(k) if a2 == "auto" else float(a2[i])
            terms.append(RadialTerm(k, float(t["lambda"]), norm_sq))
        return RadialKernelSpec(tuple(terms), obj["base"])

    @staticmethod
    def load(path):
        with open(path) as fh:
            return RadialKernelSpec.from_json(json.load(fh))


def ginibre_spec(n):
    """Truncated Ginibre: degrees 0..n-1, unit eigenvalues, gaussian base."""
    return RadialKernelSpec(
        tuple(RadialTerm(k, 1.0, 1.0 / math.factorial(k)) for k in range(n)),
        "gaussian",
    )


def bergman_spec(n):
    """Truncated Bergman: degrees 0..n-1, unit eigenvalues, unit-disk base."""
    return RadialKernelSpec(
        tuple(RadialTerm(k, 1.0, float(k + 1)) for k in range(n)), "lebesgue-disk"
    )


def sample_radial_moduli(spec, rng):
    """Draw the squared moduli of one sample: term k contributes, with
    probability lambda_k, an independent draw of the k-times size-biased
    squared-modulus law.  Returned in term order (no distributional
    meaning attaches to the order)."""
    b = base_density(spec.base)
    out = []
    for t in spec.terms:
        include = rng.random() < t.weight
        if include:
            out.append(b.sample_q(t.degree, rng))
    return out


def annuli_lambdas(spec, annuli):
    """Occupancy matrix for disjoint annuli: entry (k, i) is
    lambda_k * P(Q_k in (r_i^2, R_i^2)) from the exact modulus CDF."""
    b = base_density(spec.base)
    pairs = [(float(lo), float(hi)) for lo, hi in annuli]
    for lo, hi in pairs:
        if not (0 <= lo < hi):
            raise DetpermError(f"bad annulus radii ({lo}, {hi})")
    for (lo1, hi1), (lo2, hi2) in zip(sorted(pairs), sorted(pairs)[1:]):
        if lo2 < hi1:
            raise DetpermError("annuli overlap")
    rows = []
    for t in spec.terms:
        rows.append(
            [
                t.weight * (b.cdf_q(t.degree, hi * hi) - b.cdf_q(t.degree, lo * lo))
                for lo, hi in pairs
            ]
        )
    return np.array(rows)


def square_grid(h, radius):
    """Centers of an origin-symmetric square lattice of spacing h that lie
    within the given radius."""
    if h <= 0:
        raise ParameterError("grid spacing must be positive")
    n_half = int(math.ceil(radius / h))
    offsets = (np.arange(-n_half, n_half) + 0.5) * h
    x, y = np.meshgrid(offsets, offsets)
    z = (x + 1j * y).ravel()
    return z[np.abs(z) <= radius]


def discretize_radial_kernel(spec, h, radius):
    """Midpoint discretization of the kernel on a square lattice over a
    bounding disk.

    Ground atoms are the cell centers (complex labels) weighted by cell
    area times the base density.  The kernel is factored, with rank d the
    number of terms: F holds the monomials z^k at the centers and c the
    coefficients lambda_k a_k^2.  Its d eigenvalues are clamped into
    [0, 1] and the clamp magnitude is returned alongside; the returned
    kernel is the factor of the eigenfunctions with the clamped
    eigenvalues.  A clamp beyond DISCRETIZATION_CLAMP_TOL means the grid is
    too coarse to be trusted and raises.  Returns ``(kernel, clamp_magnitude)``.
    """
    b = base_density(spec.base)
    radius = min(float(radius), b.support_radius)
    centers = square_grid(h, radius)
    if centers.size == 0:
        raise DiscretizationError("no grid cells inside the bounding disk")
    weights = h * h * np.array([b.density(abs(z)) for z in centers])
    keep = weights > 0
    centers, weights = centers[keep], weights[keep]
    ground = GroundSet(tuple(complex(z) for z in centers), weights)
    monomials = np.power.outer(centers, [t.degree for t in spec.terms])
    kernel = HermitianKernel.from_factor(monomials, spec.coefficients(), ground)
    spec_k = spectrum(kernel)
    vals = spec_k.eigenvalues
    clamp = float(max(vals.max() - 1.0, 0.0) + max(-vals.min(), 0.0)) if vals.size else 0.0
    if clamp > DISCRETIZATION_CLAMP_TOL:
        raise DiscretizationError(
            f"eigenvalue clamp {clamp:.3g} exceeds {DISCRETIZATION_CLAMP_TOL}; refine the grid"
        )
    return Spectrum(np.clip(vals, 0.0, 1.0), spec_k.eigenvectors, ground).kernel(), clamp


def sample_clouds(kernel, rng):
    """Draw the point-cloud trio on one kernel, keyed by process name and
    in this order: the independent (Poisson) cloud with the kernel's
    diagonal intensity, then the determinantal and the permanental cloud."""
    means = kernel.diagonal() * kernel.ground.weights
    counts = sample_poisson_array(means, rng)
    return {
        "poisson": PointConfiguration(np.repeat(np.arange(len(counts)), counts), simple=False),
        "determinantal": sample_dpp(kernel, rng),
        "permanental": sample_permanental(kernel, rng),
    }
