"""Radially symmetric planar kernels K(z, w) = sum_k lambda_k a_k^2 (z wbar)^k.

For such kernels the squared moduli of the points are independent draws
with explicit laws (a size-biasing chain of the base squared-modulus
distribution), so they can be sampled exactly with no discretization.
Concentric annuli are simultaneously observable, with occupancy
probabilities read off the exact modulus CDFs.  Full planar point clouds,
which additionally need angles, go through a square-lattice midpoint
discretization that reports its own eigenvalue-clamp diagnostic.

A small exact Laurent-coefficient engine computes monomial averages over
the torus, which is what makes high-power angular independence checkable
symbolically: the average of a monomial is the matching coefficient or
zero, nothing else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .core import (
    EIGENVALUE_TOL,
    NORMALIZATION_TOL,
    DetpermError,
    DiscretizationError,
    GroundSet,
    ParameterError,
    PointConfiguration,
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
        return float(gammainc(k + 1, max(q, 0.0)))

    @staticmethod
    def q_density(k, q):
        if q < 0:
            return 0.0
        return math.exp(k * math.log(q) - q - gammaln(k + 1)) if q > 0 else (1.0 if k == 0 else 0.0)


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
        return float(np.clip(q, 0.0, 1.0) ** (k + 1))

    @staticmethod
    def q_density(k, q):
        return (k + 1) * q**k if 0.0 <= q <= 1.0 else 0.0


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

    @property
    def degree(self):
        return max((t.degree for t in self.terms), default=0)

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


def discretize_radial_kernel(spec, h, radius, max_clamp=0.05):
    """Midpoint discretization of the kernel on a square lattice over a
    bounding disk.

    Ground atoms are the cell centers (complex labels) weighted by cell
    area times the base density.  The kernel is factored, with rank d the
    number of terms: F holds the monomials z^k at the centers and c the
    coefficients lambda_k a_k^2.  Its d eigenvalues are clamped into
    [0, 1] and the clamp magnitude is returned alongside; the returned
    kernel is the factor of the eigenfunctions with the clamped
    eigenvalues.  A clamp beyond ``max_clamp`` means the grid is too
    coarse to be trusted and raises.  Returns ``(kernel, clamp_magnitude)``.
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
    if clamp > max_clamp:
        raise DiscretizationError(
            f"eigenvalue clamp {clamp:.3g} exceeds {max_clamp}; refine the grid"
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


# ---------------------------------------------------------------------------
# exact torus moments and empirical power independence


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial on the n-torus: a map from integer
    exponent vectors (net power of each variable) to coefficients."""

    coeffs: dict
    nvars: int

    def __post_init__(self):
        norm = {}
        for key, val in self.coeffs.items():
            key = (key,) if isinstance(key, int) else tuple(int(e) for e in key)
            if len(key) != self.nvars:
                raise DetpermError(
                    f"exponent vector {key} does not have {self.nvars} entries"
                )
            if val != 0:
                norm[key] = complex(val)
        object.__setattr__(self, "coeffs", norm)

    def coefficient(self, exponents):
        key = (exponents,) if isinstance(exponents, int) else tuple(int(e) for e in exponents)
        return self.coeffs.get(key, complex(0.0))

    def is_conjugate_symmetric(self, tol=0.0):
        """True when the polynomial represents a real function on the torus
        (coefficient at -e is the conjugate of the coefficient at e)."""
        keys = set(self.coeffs)
        for key in keys:
            neg = tuple(-e for e in key)
            if abs(self.coeffs[key] - self.coefficient(neg).conjugate()) > tol:
                return False
        return True


def torus_moment(poly, exponents):
    """Exact average of prod_i z_i^(e_i) against the density ``poly`` on
    the torus: the coefficient of poly at -e (monomials average to 1 when
    every net exponent vanishes and to 0 otherwise).  Pure coefficient
    extraction, no numerics."""
    key = (exponents,) if isinstance(exponents, int) else tuple(int(e) for e in exponents)
    return poly.coefficient(tuple(-e for e in key))


@dataclass(frozen=True)
class MomentRow:
    m: int
    m_prime: int
    moment: complex
    se_real: float
    se_imag: float
    deviation: float | None = None    # diagonal rows: moment minus the
    deviation_se: float | None = None  # independence prediction
    flagged: bool = False


@dataclass(frozen=True)
class PowerIndependenceReport:
    power: int
    degree: int
    n_samples: int
    rows: tuple
    passed: bool

    def row(self, m, m_prime):
        for r in self.rows:
            if (r.m, r.m_prime) == (m, m_prime):
                return r
        raise KeyError((m, m_prime))


def _mean_se(values):
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def power_independence_check(samples, power, degree, max_order=3, n_sigma=4.0):
    """Empirical check that the ``power``-th powers of the points behave
    like independent rotation-invariant draws.

    For each order pair (m, m') up to ``max_order`` the report carries the
    empirical mixed moment E[S_m conj(S_m')] of the power sums
    S_m = sum_i z_i^(power*m) with Monte Carlo standard errors.  The
    verdict passes iff every off-diagonal (m != m') moment is within
    ``n_sigma`` standard errors of zero.  Diagonal rows additionally
    compare |S_m|^2 against the independence prediction
    sum_i |z_i|^(2*power*m); a deviation beyond ``n_sigma`` standard
    errors is flagged in the report (kernels of degree >= power leave a
    real deviation here, which is exactly the sharpness of the power
    threshold).
    """
    if not samples:
        raise DetpermError("need at least one sample")
    if power < 1:
        raise ParameterError("power must be a positive integer")
    n = len(samples)
    arrays = [np.asarray(s, dtype=complex) for s in samples]
    rows = []
    passed = True
    for m in range(1, max_order + 1):
        for m_prime in range(1, max_order + 1):
            sm = np.array([(z ** (power * m)).sum() for z in arrays])
            smp = sm if m_prime == m else np.array(
                [(z ** (power * m_prime)).sum() for z in arrays]
            )
            prod = sm * smp.conj()
            mean_re, se_re = _mean_se(prod.real)
            mean_im, se_im = _mean_se(prod.imag)
            moment = complex(mean_re, mean_im)
            if m == m_prime:
                diag = np.array([(np.abs(z) ** (2 * power * m)).sum() for z in arrays])
                dev, dev_se = _mean_se(prod.real - diag)
                flagged = abs(dev) > n_sigma * max(dev_se, 1e-300)
                rows.append(
                    MomentRow(m, m_prime, moment, se_re, se_im, dev, dev_se, flagged)
                )
            else:
                ok = abs(mean_re) <= n_sigma * max(se_re, 1e-300) and abs(
                    mean_im
                ) <= n_sigma * max(se_im, 1e-300)
                passed = passed and ok
                rows.append(MomentRow(m, m_prime, moment, se_re, se_im, flagged=not ok))
    return PowerIndependenceReport(int(power), int(degree), n, tuple(rows), passed)
