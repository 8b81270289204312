"""Alpha-determinantal processes in the integer-reciprocal regimes.

When -1/alpha is a positive integer m, the process is a union of m iid
determinantal samples with kernel -alpha*K; when 1/alpha is a positive
integer m, it is a union of m iid permanental samples with kernel
alpha*K.  So alpha = -1 is the determinantal and alpha = +1 the
permanental process itself.  Counts follow binomial respectively
negative-binomial convolutions (``dpp.count_pmf``).  Every other alpha
fails loudly: there is no exact sampler to fall back on, and for alpha > 4
a three-point kernel witnesses that no process can exist at all.
"""

from .core import PointConfiguration, admissible, split, union_copies
from .dpp import count_pmf, sample_dpp
from .kernels import spectrum
from .permanental import sample_permanental


def scaled_kernel(kernel, factor):
    """factor * K for a positive factor: K itself for 1, otherwise built
    once per factor and cached on K.  It is the kernel of K's spectrum with
    the eigenvalues times the factor: the same eigenfunctions, still in
    descending order, so it is never decomposed again and is Hermitian by
    construction, and weighted columns that K's spectrum has checked are
    not checked again."""
    if factor == 1.0:
        return kernel
    cache = kernel.__dict__.setdefault("_scaled_cache", {})
    if factor not in cache:
        cache[factor] = spectrum(kernel).scaled(factor).kernel()
    return cache[factor]


def sample_alpha(kernel, alpha, rng):
    """Draw one alpha-determinantal sample.  A single copy (alpha = -1 or
    +1) is drawn from ``rng`` itself, so it is exactly ``sample_dpp`` or
    ``sample_permanental``; m > 1 copies draw from one split stream each,
    and their multiset union is returned sorted."""
    copies = union_copies(alpha)
    admissible(spectrum(kernel).eigenvalues, alpha)  # names the caller's eigenvalue
    base = scaled_kernel(kernel, abs(float(alpha)))
    draw = sample_dpp if alpha < 0 else sample_permanental
    if copies == 1:
        return draw(base, rng)
    points = [p for child in split(rng, copies) for p in draw(base, child).points]
    return PointConfiguration(tuple(sorted(points)), simple=False)


def alpha_count_pmf(kernel, alpha, subset, n_max=None):
    """Exact count distribution over a subset of atoms: ``count_pmf`` at
    this alpha."""
    return count_pmf(kernel, subset, alpha, n_max)
