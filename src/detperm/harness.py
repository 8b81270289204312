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
    _field,
    bernoulli_sum_pmf,
    require_int,
    require_real,
    sample_categorical,
    stream,
)
from .alphadet import sample_alpha
from .dpp import count_pmf
from .kernels import HermitianKernel
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
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))])
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
    """The standard normal CDF, 0.5 erfc(-x / sqrt(2)), one erfc call per
    entry of x: ``clt_check`` passes each count value once."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2)), dtype=float)


def ks_distance(samples, cdf):
    """The two-sided KS distance between the empirical CDF of ``samples``
    and ``cdf``, from the sorted sample: max over i of i/n - F(x_(i)) and
    F(x_(i)) - (i-1)/n."""
    x = np.sort(np.asarray(samples, dtype=float))
    values = cdf(x)
    grid = np.arange(x.size + 1) / x.size
    return float(max((grid[1:] - values).max(), (values - grid[:-1]).max()))


def ks_distance_of_counts(counts, cdf):
    """``ks_distance`` of the integer sample that holds the value k
    ``counts[k]`` times, read at its distinct values k: within a run of ties
    the distance is largest at its ends, the cumulative count c_k through k
    over n minus F(k), and F(k) minus c_k - counts[k] over n.  Bit for bit
    the same as on the expanded sample."""
    counts = np.asarray(counts)
    k = np.flatnonzero(counts)
    through = counts.cumsum()[k]
    values = cdf(k)
    n = through[-1]
    return float(max((through / n - values).max(), (values - (through - counts[k]) / n).max()))


# ---------------------------------------------------------------------------
# goodness-of-fit tests


def counts_from_values(values):
    """Tabulate non-negative integer draws into a counts array."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 0:
        raise DetpermError("values must be non-negative integers")
    return np.bincount(v, minlength=1)


def _merge_low_bins(observed, expected):
    """Merge adjacent bins until every expected count reaches MIN_EXPECTED
    (classical validity condition for the Pearson statistic), in one pass
    from the left: bins are summed until their expected count reaches it,
    and a remainder still below it at the end joins the last merged bin
    (all of them form one bin if none reaches it)."""
    obs, exp = [], []
    o_run = e_run = 0.0
    for o, e in zip(np.asarray(observed, dtype=float).tolist(),
                    np.asarray(expected, dtype=float).tolist()):
        o_run += o
        e_run += e
        if e_run >= MIN_EXPECTED:
            obs.append(o_run)
            exp.append(e_run)
            o_run = e_run = 0.0
    if exp:
        obs[-1] += o_run
        exp[-1] += e_run
    else:
        obs, exp = [o_run], [e_run]
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

    Each level's counts are sums of independent Bernoulli indicators,
    standardized with their exact mean and variance: uniforms below the lambdas
    that occur once, in row blocks of at most 2^18, then one Binomial(m, lambda)
    per lambda that occurs m >= 2 times, in ascending lambda.  With
    L levels, each level is tested at significance DEFAULT_SIGNIFICANCE / L
    and must meet two conditions.  Its counts fit the exact Bernoulli
    convolution of its lambdas (chi-square).  Its KS distance to the
    standard normal is at most the Berry-Esseen bound 0.56 sum_i rho_i /
    sigma^3 (Shevtsova 2010), where rho_i = lambda_i (1 - lambda_i)
    (lambda_i^2 + (1 - lambda_i)^2) is the third absolute central moment of
    indicator i, plus the DKW band sqrt(ln(2 L / DEFAULT_SIGNIFICANCE) / (2 n))
    of the empirical CDF of n draws.  Both conditions read one histogram of
    the level's counts, the KS distance at its distinct values
    (``ks_distance_of_counts``).  ``details["failed"]`` names each failed
    condition and its level.
    """
    seqs = [np.asarray(s, dtype=float) for s in lambda_sequences]
    if len(seqs) < 3:
        raise ParameterError("need at least 3 levels")
    for level, lams in enumerate(seqs):
        bad = np.flatnonzero(~((lams >= 0) & (lams <= 1)))
        if bad.size:
            raise ParameterError(f"level {level} entry {bad[0]}: lambda "
                                 f"{float(lams[bad[0]])!r} outside [0, 1]")
    means = [float(s.sum()) for s in seqs]
    variances = [float((s * (1 - s)).sum()) for s in seqs]
    if any(b <= a for a, b in zip(variances, variances[1:])):
        raise ParameterError("level variances must be strictly increasing")
    level_significance = DEFAULT_SIGNIFICANCE / len(seqs)
    band = math.sqrt(math.log(2 / level_significance) / (2 * samples_per_level))
    ks_stats, ks_bounds, chi_square_p, failed = [], [], [], []
    for level, (lams, mu, var) in enumerate(zip(seqs, means, variances)):
        values, inverse, repeats = np.unique(lams, return_inverse=True, return_counts=True)
        single = lams[repeats[inverse] == 1]
        rows = max(1, 2**18 // max(single.size, 1))  # bounds the uniforms held at once
        counts = np.concatenate([
            (rng.random((min(rows, samples_per_level - i), single.size)) < single).sum(axis=1)
            for i in range(0, samples_per_level, rows)])
        for lam, m in zip(values[repeats > 1], repeats[repeats > 1]):
            counts += rng.binomial(m, lam, samples_per_level)
        histogram = counts_from_values(counts)
        sigma = math.sqrt(var)
        ks_stats.append(ks_distance_of_counts(histogram,
                                              lambda k: normal_cdf((k - mu) / sigma)))
        rho = float((lams * (1 - lams) * (lams**2 + (1 - lams) ** 2)).sum())
        ks_bounds.append(0.56 * rho / var**1.5 + band)
        fit = chi_square_fit(histogram, bernoulli_sum_pmf(lams).pmf,
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


def _positive(params, key, default=None):
    """``params[key]``, or the default where it is absent, as a positive integer."""
    return require_int(params.get(key, default), f"check parameter {key!r}", 1)


def _path(params, key):
    """``params[key]`` if it is a string: an integer would open a file descriptor."""
    path = _field(params, key, f"{params['type']} check")
    if not isinstance(path, str):
        raise ParameterError(f"check parameter {key!r} must be a path string, got {path!r}")
    return path


def _list(value, name, read):
    """``read(entry, f"{name}[i]")`` of each entry i of the list ``value``."""
    if not isinstance(value, list):
        raise ParameterError(f"{name} must be a list, got {value!r}")
    return [read(entry, f"{name}[{i}]") for i, entry in enumerate(value)]


def _subset_count_fit(draw, law, default_subset, params, rng, description):
    """Chi-square of the number of drawn points in ``params["subset"]``, by
    default ``default_subset``, against its exact count law ``law(subset)``,
    over ``params["samples"]`` draws of ``draw(rng)``."""
    subset = _list(params.get("subset", default_subset), "check parameter 'subset'",
                   functools.partial(require_int, minimum=0))
    law = law(subset)
    n = _positive(params, "samples", 20000)
    sub = set(subset)
    counts = [sum(1 for p in draw(rng) if p in sub) for _ in range(n)]
    return [chi_square_fit(counts_from_values(counts), law.pmf, tail_bound=law.tail_bound,
                           description=description)]


def _check_count_law(alpha, params, rng):
    """Subset counts of the determinantal (alpha = -1) or permanental
    (alpha = +1) process against ``count_pmf`` at that alpha."""
    n_max = _positive(params, "nmax", 80) if alpha > 0 else None
    kernel = HermitianKernel.load(_path(params, "kernel"))
    description = ("determinantal subset counts vs Bernoulli convolution" if alpha < 0
                   else "permanental subset counts vs geometric convolution")
    return _subset_count_fit(lambda r: sample_alpha(kernel, alpha, r).points,
                             lambda subset: count_pmf(kernel, subset, alpha, n_max),
                             list(range(kernel.size)), params, rng, description)


def _check_categorical(params, rng):
    w = np.array(_list(_field(params, "weights", "categorical check"),
                       "check parameter 'weights'", require_real))
    n = _positive(params, "samples", 100000)
    draws = sample_categorical(w, rng, size=n)
    return [chi_square_fit(np.bincount(draws, minlength=len(w)), w / w.sum(),
                           description="categorical sampler frequencies")]


def _check_moduli(make_spec, describe, params, rng):
    """KS fit of each term's squared modulus, over ``params["samples"]``
    draws of ``make_spec(params["n"])``, against the term's law in the
    spec's radial base; ``describe(k)`` gives the description for term k."""
    spec = make_spec(_positive(params, "n"))
    n_samples = _positive(params, "samples", 100000)
    draws = sample_radial_moduli(spec, rng, size=n_samples)
    cdf_q = base_density(spec.base).cdf_q
    return [ks_fit(draws[:, k], functools.partial(cdf_q, t.degree), description=describe(k))
            for k, t in enumerate(spec.terms)]


def _check_clt(params, rng):
    unit = functools.partial(require_real, low=0, high=1)
    if "binomial_levels" in params:
        spec = params["binomial_levels"]
        if not isinstance(spec, dict):
            raise ParameterError(f"'binomial_levels' must be an object, got {spec!r}")
        p = unit(_field(spec, "p", "'binomial_levels'"), "binomial_levels p")
        sizes = _field(spec, "sizes", "'binomial_levels'")
        levels = [[p] * size for size in _list(sizes, "binomial_levels sizes",
                                               functools.partial(require_int, minimum=1))]
    else:
        levels = _list(_field(params, "levels", "clt check"), "check parameter 'levels'",
                       functools.partial(_list, read=unit))
    n = _positive(params, "samples", 20000)
    return [clt_check(levels, n, rng)]


def _check_ust_subset_counts(params, rng):
    graph = Graph.load(_path(params, "graph"))
    return _subset_count_fit(lambda r: sample_ust(graph, r),
                             lambda subset: count_pmf(transfer_current_kernel(graph), subset),
                             list(range((graph.n_edges + 1) // 2)), params, rng,
                             "spanning tree edge counts vs restricted-kernel law")


_CHECKS = {
    "dpp_count_law": functools.partial(_check_count_law, -1.0),
    "perm_count_law": functools.partial(_check_count_law, 1.0),
    "categorical": _check_categorical,
    "kostlan": functools.partial(_check_moduli, ginibre_spec,
                                 lambda k: f"modulus^2 #{k + 1} vs gamma({k + 1}, 1)"),
    "gaf": functools.partial(_check_moduli, bergman_spec,
                             lambda k: f"modulus^2 term {k} vs beta({k + 1}, 1)"),
    "clt": _check_clt,
    "ust_subset_counts": _check_ust_subset_counts,
}


def run_suite(suite, seed):
    """Run every check in a suite description and return the reports.

    ``suite`` is ``{"checks": [{"type": name, ...params}, ...]}``; each
    check consumes an independent split of the master seed, so adding a
    check never perturbs the others.
    """
    checks = suite.get("checks") if isinstance(suite, dict) else None
    if not isinstance(checks, list) or not checks:
        raise DetpermError("suite must be an object with a non-empty 'checks' list")
    if not all(isinstance(check, dict) for check in checks):
        raise DetpermError("each check must be an object")
    master = stream(seed)
    streams = master.spawn(len(checks))
    reports = []
    for check, rng in zip(checks, streams):
        kind = check.get("type")
        if kind not in _CHECKS:
            raise DetpermError(f"unknown check type {kind!r}; known: {sorted(_CHECKS)}")
        reports.extend(_CHECKS[kind](check, rng))
    return reports
