"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately avoid the library's own computation paths:
spanning trees come from brute-force subset enumeration, occupancy laws
from enumerating every ball placement, count laws from enumerating every
indicator outcome.  The random kernel builders give tests projections and
kernels with a prescribed spectrum.  The reference implementations at the
end (occupancy samplers, the bosonic density, the two-sample chi-square
and the power-sum moment check) build on the library's primitives, such
as ``sample_categorical`` and ``permanent``, but are a second path to the
laws its samplers are compared against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import detperm as dp
from detperm.core import EIGENVALUE_TOL, DetpermError, ParameterError, sample_categorical
from detperm.harness import DEFAULT_SIGNIFICANCE, MIN_EXPECTED, TestReport, chi2_sf
from detperm.kernels import permanent


@pytest.fixture
def rng():
    return dp.stream(20240817)


def enumerate_spanning_trees(graph):
    """All spanning trees by brute force over edge subsets."""
    n = graph.n_vertices
    pairs = graph._index_pairs()
    trees = []
    for subset in itertools.combinations(range(graph.n_edges), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            u, v = pairs[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok and len({find(i) for i in range(n)}) == 1:
            trees.append(tuple(subset))
    return trees


def occupancy_pmf_exact(lambda_matrix):
    """Exact joint count pmf of the ball-into-cell model: enumerate every
    placement of each ball into a cell or nowhere."""
    lm = np.atleast_2d(np.asarray(lambda_matrix, dtype=float))
    r = lm.shape[1]
    pmf = {tuple([0] * r): 1.0}
    for row in lm:
        rest = 1.0 - row.sum()
        nxt = {}
        for counts, prob in pmf.items():
            for cell, p in enumerate(list(row) + [rest]):
                if p <= 0:
                    continue
                key = list(counts)
                if cell < r:
                    key[cell] += 1
                key = tuple(key)
                nxt[key] = nxt.get(key, 0.0) + prob * p
        pmf = nxt
    return pmf


def bernoulli_sum_enumeration(lams):
    """Exact count pmf by enumerating all 2^n indicator outcomes."""
    n = len(lams)
    pmf = np.zeros(n + 1)
    for bits in itertools.product([0, 1], repeat=n):
        prob = 1.0
        for b, lam in zip(bits, lams):
            prob *= lam if b else 1 - lam
        pmf[sum(bits)] += prob
    return pmf


def tabulate(values, width=None):
    v = np.asarray(list(values), dtype=np.int64)
    return np.bincount(v, minlength=(width or (v.max() + 1 if v.size else 1)))


def projection_from_rank(ground, rank, rng, factored=False):
    """Random rank-r projection kernel on a ground set: orthonormalizes r
    random rows in the weighted inner product.  ``factored`` holds it as
    the factor of those rows instead of the dense matrix."""
    n = ground.size
    if rank > n:
        raise dp.DetpermError("rank cannot exceed the ground size")
    w = ground.weights
    raw = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    rows = []
    for i in range(rank):
        v = raw[i].astype(complex)
        for u in rows:
            v = v - ((u.conj() * w) @ v) * u
        nrm = math.sqrt(float((np.abs(v) ** 2 * w).sum()))
        rows.append(v / nrm)
    b = np.array(rows) if rows else np.zeros((0, n), dtype=complex)
    if factored:
        return dp.HermitianKernel.from_factor(b.T, np.ones(rank), ground)
    return dp.HermitianKernel(b.T @ b.conj(), ground)


def kernel_from_spectrum(ground, eigenvalues, rng, factored=False):
    """Kernel with prescribed eigenvalues and a random weighted-orthonormal
    eigenbasis.  ``factored`` holds it as the factor of that basis with the
    zero-padded eigenvalues instead of the dense matrix."""
    lams = np.asarray(eigenvalues, dtype=float)
    n = ground.size
    if len(lams) > n:
        raise dp.DetpermError("more eigenvalues than ground points")
    lams = np.concatenate([lams, np.zeros(n - len(lams))])
    proj = projection_from_rank(ground, n, rng)  # full basis
    basis = dp.spectrum(proj).eigenvectors  # columns orthonormal under weights
    if factored:
        return dp.HermitianKernel.from_factor(basis, lams, ground)
    matrix = (basis * lams) @ basis.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    return dp.HermitianKernel(matrix, ground)


def projection_spectrum(kernel):
    """The spectrum of a projection kernel cut to its eigenfunctions with
    eigenvalue 1 (above 0.5), held with unit eigenvalues."""
    spec = dp.spectrum(kernel)
    keep = spec.eigenvalues > 0.5
    return dp.Spectrum(np.ones(keep.sum()), spec.eigenvectors[:, keep], spec.ground)


def assert_spectra_agree(dense, factored, tol=1e-10, gap=1e-6):
    """A factored spectrum against the dense spectrum of the same kernel:
    the eigenvalues zero-padded to the ground size, and the weighted
    projector onto each cluster of nonzero eigenvalues.  Neighbours closer
    than ``gap`` share a cluster, since their eigenvectors are not
    separately well determined."""
    padded = np.concatenate([factored.eigenvalues, np.zeros(dense.size - factored.size)])
    np.testing.assert_allclose(np.sort(padded), np.sort(dense.eigenvalues), rtol=0, atol=tol)
    s = np.sqrt(dense.ground.weights)[:, None]

    def projector(spec, lo, hi):
        cols = s * spec.eigenvectors[:, (spec.eigenvalues >= lo) & (spec.eigenvalues <= hi)]
        return cols @ cols.conj().T

    vals = factored.eigenvalues[np.abs(factored.eigenvalues) > gap]
    clusters = np.split(vals, np.nonzero(np.abs(np.diff(vals)) > gap)[0] + 1) if vals.size else []
    for cluster in clusters:
        lo, hi = cluster.min() - gap / 2, cluster.max() + gap / 2
        np.testing.assert_allclose(projector(factored, lo, hi), projector(dense, lo, hi),
                                   rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# reference samplers, densities and tests the library's paths are compared
# against

# Three-point kernel whose alpha-determinant 2(4 - alpha)(alpha + 1) goes
# negative for alpha > 4, ruling the process out there.
WITNESS_MATRIX = np.array(
    [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
)


def sample_geometric(mean, rng):
    """Geometric count of failures with the given mean (support 0, 1, 2, ...)."""
    if mean < 0:
        raise ParameterError(f"geometric mean must be non-negative, got {mean}")
    if mean == 0:
        return 0
    # numpy's geometric counts trials (>= 1) at success probability p
    return int(rng.geometric(1.0 / (1.0 + mean))) - 1


def joint_counts_observable(lambda_matrix, rng):
    """One draw of joint counts in r cells for a simultaneously observable
    family, as an independent ball-into-cell assignment.

    Row k of ``lambda_matrix`` holds the per-cell probabilities for ball k;
    the leftover 1 - sum(row) is the probability the ball lands nowhere.
    """
    lm = np.atleast_2d(np.asarray(lambda_matrix, dtype=float))
    if np.any(lm < 0):
        raise DetpermError("cell probabilities must be non-negative")
    r = lm.shape[1]
    counts = np.zeros(r, dtype=np.int64)
    for row in lm:
        s = row.sum()
        if s > 1 + EIGENVALUE_TOL:
            raise DetpermError(f"row sums to {s!r} > 1")
        rest = max(0.0, 1.0 - s)
        cell = sample_categorical(np.concatenate([row, [rest]]), rng)
        if cell < r:
            counts[cell] += 1
    return counts


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


def chi_square_homogeneity(counts_a, counts_b, significance=DEFAULT_SIGNIFICANCE,
                           description="chi-square homogeneity"):
    """Two-sample chi-square: are two empirical count tables draws from
    one distribution?  ``counts_a`` and ``counts_b`` map cell -> count (or
    are aligned arrays)."""
    if isinstance(counts_a, dict) or isinstance(counts_b, dict):
        keys = sorted(set(counts_a) | set(counts_b))
        a = np.array([counts_a.get(k, 0) for k in keys], dtype=float)
        b = np.array([counts_b.get(k, 0) for k in keys], dtype=float)
    else:
        width = max(len(counts_a), len(counts_b))
        a = np.zeros(width)
        a[: len(counts_a)] = counts_a
        b = np.zeros(width)
        b[: len(counts_b)] = counts_b
    na, nb = a.sum(), b.sum()
    if na <= 0 or nb <= 0:
        raise DetpermError("both samples must be non-empty")
    # pool cells whose smaller expected count is below threshold
    min_exp = (a + b) * min(na, nb) / (na + nb)
    order = np.argsort(-min_exp)
    a, b, min_exp = a[order], b[order], min_exp[order]
    keep = max(1, int((min_exp >= MIN_EXPECTED).sum()))
    if keep < len(a):
        a = np.concatenate([a[:keep], [a[keep:].sum()]])
        b = np.concatenate([b[:keep], [b[keep:].sum()]])
        if len(a) > 2 and (a[-1] + b[-1]) * min(na, nb) / (na + nb) < MIN_EXPECTED:
            a[-2] += a[-1]
            b[-2] += b[-1]
            a, b = a[:-1], b[:-1]
    mask = (a + b) > 0
    a, b = a[mask], b[mask]
    if len(a) < 2:
        raise DetpermError("fewer than two cells after merging")
    col = a + b
    ea = col * na / (na + nb)
    eb = col * nb / (na + nb)
    stat = float((((a - ea) ** 2) / ea).sum() + (((b - eb) ** 2) / eb).sum())
    dof = len(a) - 1
    p = chi2_sf(stat, dof)
    return TestReport(description, stat, p, int(na + nb), p > significance,
                      significance, {"dof": dof})


# power_independence_check tests the power sums of orders 1..MAX_MOMENT_ORDER
# and flags a moment more than MOMENT_SIGMAS standard errors off its prediction.
MAX_MOMENT_ORDER = 3
MOMENT_SIGMAS = 4.0


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


def power_independence_check(samples, power):
    """Empirical check that the ``power``-th powers of the points behave
    like independent rotation-invariant draws.

    For each order pair (m, m') up to MAX_MOMENT_ORDER the report carries the
    empirical mixed moment E[S_m conj(S_m')] of the power sums
    S_m = sum_i z_i^(power*m) with Monte Carlo standard errors.  The
    verdict passes iff every off-diagonal (m != m') moment is within
    MOMENT_SIGMAS standard errors of zero.  Diagonal rows additionally
    compare |S_m|^2 against the independence prediction
    sum_i |z_i|^(2*power*m); a deviation beyond MOMENT_SIGMAS standard
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
    orders = range(1, MAX_MOMENT_ORDER + 1)
    sums = {m: np.array([(z ** (power * m)).sum() for z in arrays]) for m in orders}
    rows = []
    passed = True
    for m in orders:
        for m_prime in orders:
            prod = sums[m] * sums[m_prime].conj()
            mean_re, se_re = _mean_se(prod.real)
            mean_im, se_im = _mean_se(prod.imag)
            moment = complex(mean_re, mean_im)
            if m == m_prime:
                diag = np.array([(np.abs(z) ** (2 * power * m)).sum() for z in arrays])
                dev, dev_se = _mean_se(prod.real - diag)
                flagged = abs(dev) > MOMENT_SIGMAS * max(dev_se, 1e-300)
                rows.append(
                    MomentRow(m, m_prime, moment, se_re, se_im, dev, dev_se, flagged)
                )
            else:
                ok = abs(mean_re) <= MOMENT_SIGMAS * max(se_re, 1e-300) and abs(
                    mean_im
                ) <= MOMENT_SIGMAS * max(se_im, 1e-300)
                passed = passed and ok
                rows.append(MomentRow(m, m_prime, moment, se_re, se_im, flagged=not ok))
    return PowerIndependenceReport(int(power), n, tuple(rows), passed)
