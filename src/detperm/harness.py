"""Goodness-of-fit machinery and the named verification checks behind the
``verify`` command.

All checks are deterministic functions of (inputs, seed): statistical
tests never touch hidden randomness, so a report can be reproduced bit
for bit from its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DetpermError,
    ParameterError,
    bernoulli_sum_pmf,
    sample_categorical,
    stream,
)
from .dpp import count_pmf, sample_dpp
from .kernels import HermitianKernel
from .permanental import count_pmf_perm, sample_permanental
from .planar import base_density, bergman_spec, ginibre_spec, sample_radial_moduli
from .ust import Graph, sample_ust, transfer_current_kernel

DEFAULT_SIGNIFICANCE = 1e-3
MIN_EXPECTED = 5.0
# Below this n d^2 the two-sided KS p-value comes from the Pelz-Good
# series; at or above it from twice the exact one-sided tail.
KS_ONE_SIDED_CUT = 2.2


@dataclass(frozen=True)
class TestReport:
    description: str
    statistic: float
    p_value: float | None  # None where the test yields no p-value
    sample_size: int
    passed: bool
    significance: float = DEFAULT_SIGNIFICANCE
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "description": self.description,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "sample_size": self.sample_size,
            "passed": self.passed,
            "significance": self.significance,
            **({"details": self.details} if self.details else {}),
        }


# ---------------------------------------------------------------------------
# closed-form null laws


def chi2_sf(x, dof):
    """P(X >= x) for X chi-square with a positive integer number of degrees
    of freedom, with h = x / 2.  Even dof 2m: the Poisson sum
    e^(-h) sum_{j<m} h^j / j!.  Odd dof 2m + 1: erfc(sqrt(h)) plus
    e^(-h) sum_{j<m} h^(j+1/2) / Gamma(j + 3/2).  Each term is formed in
    log space, so none overflows."""
    if dof < 1 or int(dof) != dof:
        raise ParameterError(f"chi-square dof must be a positive integer, got {dof!r}")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2
    log_h = math.log(h)
    half = (dof % 2) / 2
    head = math.erfc(math.sqrt(h)) if half else 0.0
    tail = sum(math.exp((j + half) * log_h - h - math.lgamma(j + half + 1))
               for j in range(int(dof) // 2))
    return min(head + tail, 1.0)


def _smirnov_sf(d, n):
    """P(D_n^+ >= d) for 0 < d < 1, exactly (Birnbaum and Tingey 1951):
    d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over j < n (1 - d),
    summed in log space.  The term at j = n (1 - d) is 0 and is left out."""
    j = np.arange(int(n * (1 - d)) + 1)
    s = d + j / n
    j, s = j[s < 1], s[s < 1]
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_terms = (log_factorial[n] - log_factorial[j] - log_factorial[n - j]
                 + (n - j) * np.log1p(-s) + (j - 1) * np.log(s))
    top = log_terms.max()
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _pelz_good_cdf(d, n):
    """P(D_n <= d) by the Pelz-Good (1976) series K0 + K1/sqrt(n) + K2/n +
    K3/n^1.5 in z = d sqrt(n), as written by Simard and L'Ecuyer (2011)."""
    z = d * math.sqrt(n)
    pi2 = math.pi**2
    if pi2 / (8 * z * z) > 700:  # every term underflows
        return 0.0
    k = np.arange(1.0, math.ceil(16 * z / math.pi) + 2)
    m2 = (2 * k - 1) ** 2
    odd = np.exp(-m2 * pi2 / (8 * z * z))
    even = np.exp(-k * k * pi2 / (2 * z * z))
    z2, z4, z6 = z**2, z**4, z**6
    root = math.sqrt(2 * math.pi)
    k0 = root / z * odd.sum()
    k1 = root / (6 * z4) * ((pi2 * m2 / 4 - z2) * odd).sum()
    k2 = (root / (72 * z**7) * ((6 * z6 + 2 * z4 + pi2 * (2 * z4 - 5 * z2) * m2 / 4
                                 + pi2**2 * (1 - 2 * z2) * m2**2 / 16) * odd).sum()
          - root * pi2 / (36 * z**3) * (k * k * even).sum())
    k3 = (root / (6480 * z**10) * ((pi2**3 * (5 - 30 * z2) * m2**3 / 64
                                    + pi2**2 * (212 * z4 - 60 * z2) * m2**2 / 16
                                    + pi2 * (135 * z4 - 96 * z6) * m2 / 4
                                    - 30 * z6 - 90 * z**8) * odd).sum()
          + root / (216 * z6) * ((3 * pi2 * k * k * z2 - pi2**2 * k**4) * even).sum())
    return float(k0 + k1 / math.sqrt(n) + k2 / n + k3 / n**1.5)


def ks_sf(d, n):
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov distance D_n of n
    draws from a continuous law.  For n d^2 >= KS_ONE_SIDED_CUT it is
    min(1, 2 P(D_n^+ >= d)) with the exact one-sided tail: the two
    one-sided events then overlap negligibly, and not at all for d >= 1/2.
    Below the cut it is 1 minus the Pelz-Good series.  For n > 140 these
    are the branches of Simard and L'Ecuyer (2011); for smaller n the
    series is an approximation."""
    if d <= 0:
        return 1.0
    if d >= 1:
        return 0.0
    if n * d * d >= KS_ONE_SIDED_CUT:
        return min(1.0, 2 * _smirnov_sf(d, n))
    return min(1.0, max(0.0, 1.0 - _pelz_good_cdf(d, n)))


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """The standard normal CDF, 0.5 erfc(-x / sqrt(2)), with one erfc call
    per distinct value of x: count statistics repeat few values many times."""
    x = np.asarray(x, dtype=float)
    values, inverse = np.unique(x, return_inverse=True)
    return (0.5 * _erfc(-values / math.sqrt(2)).astype(float))[inverse].reshape(x.shape)


def ks_distance(samples, cdf):
    """The two-sided KS distance between the empirical CDF of ``samples``
    and ``cdf``, from the sorted sample: max over i of i/n - F(x_(i)) and
    F(x_(i)) - (i-1)/n."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    values = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - values).max()
    d_minus = (values - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# goodness-of-fit tests


def counts_from_values(values, n_bins=None):
    """Tabulate non-negative integer draws into a counts array."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 0:
        raise DetpermError("values must be non-negative integers")
    length = int(v.max()) + 1 if v.size else 1
    if n_bins is not None:
        length = max(length, n_bins)
    return np.bincount(v, minlength=length)


def _merge_low_bins(observed, expected):
    """Greedily merge adjacent bins until every expected count reaches
    MIN_EXPECTED (classical validity condition for the Pearson statistic)."""
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    i = 0
    while i < len(exp):
        if exp[i] >= MIN_EXPECTED or len(exp) == 1:
            i += 1
            continue
        j = i + 1 if i + 1 < len(exp) else i - 1
        exp[j] += exp[i]
        obs[j] += obs[i]
        del exp[i], obs[i]
        if j < i:
            i = j
    return np.array(obs), np.array(exp)


def chi_square_fit(observed, expected_pmf, significance=DEFAULT_SIGNIFICANCE,
                   tail_bound=0.0, description="chi-square fit"):
    """Pearson chi-square of observed integer counts against an exact pmf.

    ``observed[k]`` is how often the value k occurred.  Mass beyond the
    pmf support (including an explicit tail_bound) is pooled into one
    overflow bin.  Bins with expected count below 5 are merged into a
    neighbor before computing the statistic.
    """
    obs = np.asarray(observed, dtype=float)
    pmf = np.asarray(expected_pmf, dtype=float)
    n = obs.sum()
    if n <= 0:
        raise DetpermError("no observations")
    width = len(pmf)
    obs_full = np.zeros(width + 1)
    obs_full[: min(width, len(obs))] = obs[:width]
    obs_full[width] = obs[width:].sum() if len(obs) > width else 0.0
    exp_full = np.concatenate([pmf * n, [max(tail_bound, 1.0 - pmf.sum()) * n]])
    obs_m, exp_m = _merge_low_bins(obs_full, exp_full)
    if len(exp_m) < 2:
        raise DetpermError("all mass in one bin after merging")
    stat = float(((obs_m - exp_m) ** 2 / exp_m).sum())
    dof = len(exp_m) - 1
    p = chi2_sf(stat, dof)
    return TestReport(description, stat, p, int(n), p > significance, significance,
                      {"dof": dof})


def ks_fit(samples, cdf, significance=DEFAULT_SIGNIFICANCE,
           description="Kolmogorov-Smirnov fit"):
    """One-sample KS test against a continuous law given by its CDF, a
    function of an array.  The p-value is ``ks_sf`` of the distance."""
    x = np.asarray(samples, dtype=float)
    if x.size < 10:
        raise DetpermError(f"need at least 10 samples, got {x.size}")
    if not np.isfinite(x).all():
        raise DetpermError("samples must be finite")
    stat = ks_distance(x, cdf)
    p = ks_sf(stat, x.size)
    return TestReport(description, stat, p, int(x.size), p > significance, significance)


def clt_check(lambda_sequences, samples_per_level, rng):
    """Standardized-count normality across levels of growing variance.

    Each level's counts are sampled as sums of independent Bernoulli
    indicators and standardized with their exact mean and variance.  With
    L levels, each level is tested at significance DEFAULT_SIGNIFICANCE / L
    and must meet two conditions.  Its counts fit the exact Bernoulli
    convolution of its lambdas (chi-square).  Its KS distance to the
    standard normal is at most the Berry-Esseen bound 0.56 sum_i rho_i /
    sigma^3 (Shevtsova 2010), where rho_i = lambda_i (1 - lambda_i)
    (lambda_i^2 + (1 - lambda_i)^2) is the third absolute central moment of
    indicator i, plus the DKW band sqrt(ln(2 L / DEFAULT_SIGNIFICANCE) / (2 n))
    of the empirical CDF of n draws.  ``details["failed"]`` names each
    failed condition and its level.
    """
    seqs = [np.asarray(s, dtype=float) for s in lambda_sequences]
    if len(seqs) < 3:
        raise ParameterError("need at least 3 levels")
    means = [float(s.sum()) for s in seqs]
    variances = [float((s * (1 - s)).sum()) for s in seqs]
    if any(b <= a for a, b in zip(variances, variances[1:])):
        raise ParameterError("level variances must be strictly increasing")
    level_significance = DEFAULT_SIGNIFICANCE / len(seqs)
    band = math.sqrt(math.log(2 / level_significance) / (2 * samples_per_level))
    ks_stats, ks_bounds, chi_square_p, failed = [], [], [], []
    for level, (lams, mu, var) in enumerate(zip(seqs, means, variances)):
        counts = np.empty(samples_per_level, dtype=np.int64)
        block = max(1, int(4_000_000 // max(len(lams), 1)))
        done = 0
        while done < samples_per_level:  # chunked to bound memory
            take = min(block, samples_per_level - done)
            u = rng.random((take, len(lams)))
            counts[done : done + take] = (u < lams).sum(axis=1)
            done += take
        z = (counts - mu) / math.sqrt(var)
        ks_stats.append(ks_distance(z, normal_cdf))
        rho = float((lams * (1 - lams) * (lams**2 + (1 - lams) ** 2)).sum())
        ks_bounds.append(0.56 * rho / var**1.5 + band)
        fit = chi_square_fit(counts_from_values(counts), bernoulli_sum_pmf(lams).pmf,
                             significance=level_significance)
        chi_square_p.append(fit.p_value)
        if not fit.passed:
            failed.append(f"level {level}: counts do not fit the Bernoulli convolution "
                          f"(chi-square p {fit.p_value:.3g} <= {level_significance:.3g})")
        if not ks_stats[-1] <= ks_bounds[-1]:
            failed.append(f"level {level}: KS distance {ks_stats[-1]:.4g} above the "
                          f"Berry-Esseen plus DKW bound {ks_bounds[-1]:.4g}")
    return TestReport(
        "count CLT across increasing-variance levels",
        ks_stats[-1],
        None,
        int(samples_per_level * len(seqs)),
        not failed,
        DEFAULT_SIGNIFICANCE,
        {
            "ks_per_level": ks_stats,
            "variance_per_level": variances,
            "ks_bound_per_level": ks_bounds,
            "chi_square_p_per_level": chi_square_p,
            **({"failed": failed} if failed else {}),
        },
    )


# ---------------------------------------------------------------------------
# named suite checks (the `verify` command)


def _subset_count_fit(draw, subset, law, params, rng, description):
    """Chi-square of the number of drawn points in ``subset`` against its
    exact count law, over ``params["samples"]`` draws of ``draw(rng)``."""
    n = int(params.get("samples", 20000))
    sub = set(int(i) for i in subset)
    counts = [sum(1 for p in draw(rng) if p in sub) for _ in range(n)]
    return [chi_square_fit(counts_from_values(counts), law.pmf, tail_bound=law.tail_bound,
                           description=description)]


def _check_dpp_count_law(params, rng):
    kernel = HermitianKernel.load(params["kernel"])
    subset = params.get("subset", list(range(kernel.size)))
    return _subset_count_fit(lambda r: sample_dpp(kernel, r).points, subset,
                             count_pmf(kernel, subset), params, rng,
                             "determinantal subset counts vs Bernoulli convolution")


def _check_perm_count_law(params, rng):
    kernel = HermitianKernel.load(params["kernel"])
    subset = params.get("subset", list(range(kernel.size)))
    law = count_pmf_perm(kernel, subset, int(params.get("nmax", 80)))
    return _subset_count_fit(lambda r: sample_permanental(kernel, r).points, subset,
                             law, params, rng,
                             "permanental subset counts vs geometric convolution")


def _check_categorical(params, rng):
    w = np.asarray(params["weights"], dtype=float)
    n = int(params.get("samples", 100000))
    draws = [sample_categorical(w, rng) for _ in range(n)]
    return [chi_square_fit(counts_from_values(draws, n_bins=len(w)), w / w.sum(),
                           description="categorical sampler frequencies")]


def _moduli_fits(spec, describe, params, rng):
    """KS fit of each term's squared modulus, over ``params["samples"]``
    draws, against the term's law in the spec's radial base;
    ``describe(k)`` gives the description for term k."""
    n_samples = int(params.get("samples", 100000))
    draws = np.array([sample_radial_moduli(spec, rng) for _ in range(n_samples)])
    cdf_q = base_density(spec.base).cdf_q
    return [ks_fit(draws[:, k], functools.partial(cdf_q, t.degree), description=describe(k))
            for k, t in enumerate(spec.terms)]


def _check_kostlan(params, rng):
    return _moduli_fits(ginibre_spec(int(params["n"])),
                        lambda k: f"modulus^2 #{k + 1} vs gamma({k + 1}, 1)", params, rng)


def _check_gaf(params, rng):
    return _moduli_fits(bergman_spec(int(params["n"])),
                        lambda k: f"modulus^2 term {k} vs beta({k + 1}, 1)", params, rng)


def _check_clt(params, rng):
    if "binomial_levels" in params:
        spec = params["binomial_levels"]
        levels = [[float(spec["p"])] * int(size) for size in spec["sizes"]]
    else:
        levels = params["levels"]
    n = int(params.get("samples", 20000))
    return [clt_check(levels, n, rng)]


def _check_ust_subset_counts(params, rng):
    graph = Graph.load(params["graph"])
    subset = params.get("subset", list(range((graph.n_edges + 1) // 2)))
    law = count_pmf(transfer_current_kernel(graph), subset)
    return _subset_count_fit(lambda r: sample_ust(graph, r), subset, law, params, rng,
                             "spanning tree edge counts vs restricted-kernel law")


_CHECKS = {
    "dpp_count_law": _check_dpp_count_law,
    "perm_count_law": _check_perm_count_law,
    "categorical": _check_categorical,
    "kostlan": _check_kostlan,
    "gaf": _check_gaf,
    "clt": _check_clt,
    "ust_subset_counts": _check_ust_subset_counts,
}


def run_suite(suite, seed):
    """Run every check in a suite description and return the reports.

    ``suite`` is ``{"checks": [{"type": name, ...params}, ...]}``; each
    check consumes an independent split of the master seed, so adding a
    check never perturbs the others.
    """
    checks = suite.get("checks")
    if not isinstance(checks, list) or not checks:
        raise DetpermError("suite must contain a non-empty 'checks' list")
    master = stream(seed)
    streams = master.spawn(len(checks))
    reports = []
    for check, rng in zip(checks, streams):
        kind = check.get("type")
        if kind not in _CHECKS:
            raise DetpermError(f"unknown check type {kind!r}; known: {sorted(_CHECKS)}")
        reports.extend(_CHECKS[kind](check, rng))
    return reports
