"""Goodness-of-fit machinery and the named verification checks behind the
``verify`` command.

All checks are deterministic functions of (inputs, seed): statistical
tests never touch hidden randomness, so a report can be reproduced bit
for bit from its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .core import DetpermError, ParameterError, bernoulli_sum_pmf, stream

DEFAULT_SIGNIFICANCE = 1e-3
MIN_EXPECTED = 5.0


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


def counts_from_values(values, n_bins=None):
    """Tabulate non-negative integer draws into a counts array."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 0:
        raise DetpermError("values must be non-negative integers")
    length = int(v.max()) + 1 if v.size else 1
    if n_bins is not None:
        length = max(length, n_bins)
    return np.bincount(v, minlength=length)


def _merge_low_bins(observed, expected, min_expected=MIN_EXPECTED):
    """Greedily merge adjacent bins until every expected count reaches the
    threshold (classical validity condition for the Pearson statistic)."""
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    i = 0
    while i < len(exp):
        if exp[i] >= min_expected or len(exp) == 1:
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
    p = float(stats.chi2.sf(stat, dof))
    return TestReport(description, stat, p, int(n), p > significance, significance,
                      {"dof": dof})


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
    p = float(stats.chi2.sf(stat, dof))
    return TestReport(description, stat, p, int(na + nb), p > significance,
                      significance, {"dof": dof})


def ks_fit(samples, cdf, args=(), significance=DEFAULT_SIGNIFICANCE,
           description="Kolmogorov-Smirnov fit"):
    """One-sample KS test against a named scipy distribution or a callable
    CDF, with the asymptotic p-value."""
    x = np.asarray(samples, dtype=float)
    if x.size < 10:
        raise DetpermError(f"need at least 10 samples, got {x.size}")
    stat, p = stats.kstest(x, cdf, args=args)
    return TestReport(description, float(stat), float(p), int(x.size),
                      float(p) > significance, significance)


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
        stat, _ = stats.kstest(z, "norm")
        ks_stats.append(float(stat))
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
    from .dpp import count_pmf, sample_dpp
    from .kernels import HermitianKernel

    kernel = HermitianKernel.load(params["kernel"])
    subset = params.get("subset", list(range(kernel.size)))
    return _subset_count_fit(lambda r: sample_dpp(kernel, r).points, subset,
                             count_pmf(kernel, subset), params, rng,
                             "determinantal subset counts vs Bernoulli convolution")


def _check_perm_count_law(params, rng):
    from .kernels import HermitianKernel
    from .permanental import count_pmf_perm, sample_permanental

    kernel = HermitianKernel.load(params["kernel"])
    subset = params.get("subset", list(range(kernel.size)))
    law = count_pmf_perm(kernel, subset, int(params.get("nmax", 80)))
    return _subset_count_fit(lambda r: sample_permanental(kernel, r).points, subset,
                             law, params, rng,
                             "permanental subset counts vs geometric convolution")


def _check_categorical(params, rng):
    from .core import sample_categorical

    w = np.asarray(params["weights"], dtype=float)
    n = int(params.get("samples", 100000))
    draws = [sample_categorical(w, rng) for _ in range(n)]
    return [chi_square_fit(counts_from_values(draws, n_bins=len(w)), w / w.sum(),
                           description="categorical sampler frequencies")]


def _moduli_fits(spec, law, params, rng):
    """KS fit of each term's squared modulus, over ``params["samples"]``
    draws; ``law(k)`` gives the scipy name, its args and the description
    for term k."""
    from .planar import sample_radial_moduli

    n_samples = int(params.get("samples", 100000))
    draws = np.array([sample_radial_moduli(spec, rng) for _ in range(n_samples)])
    reports = []
    for k in range(len(spec.terms)):
        name, args, description = law(k)
        reports.append(ks_fit(draws[:, k], name, args=args, description=description))
    return reports


def _check_kostlan(params, rng):
    from .planar import ginibre_spec

    return _moduli_fits(ginibre_spec(int(params["n"])),
                        lambda k: ("gamma", (k + 1,), f"modulus^2 #{k + 1} vs gamma({k + 1}, 1)"),
                        params, rng)


def _check_gaf(params, rng):
    from .planar import bergman_spec

    return _moduli_fits(bergman_spec(int(params["n"])),
                        lambda k: ("beta", (k + 1, 1), f"modulus^2 term {k} vs beta({k + 1}, 1)"),
                        params, rng)


def _check_clt(params, rng):
    if "binomial_levels" in params:
        spec = params["binomial_levels"]
        levels = [[float(spec["p"])] * int(size) for size in spec["sizes"]]
    else:
        levels = params["levels"]
    n = int(params.get("samples", 20000))
    return [clt_check(levels, n, rng)]


def _check_ust_subset_counts(params, rng):
    from .dpp import count_pmf
    from .ust import Graph, sample_ust, transfer_current_kernel

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
