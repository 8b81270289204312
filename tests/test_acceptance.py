"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All randomness is seeded, so the suite is deterministic.  Statistical
checks use a family-wise significance of 1e-3, Bonferroni-split across
the N_STAT_TESTS individual goodness-of-fit tests below; direct moment
checks use the 4-standard-error rule they are stated with.
"""

import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import detperm as dp
from detperm.alphadet import WITNESS_MATRIX
from detperm.planar import base_density
from detperm.ust import Graph

from conftest import (
    enumerate_spanning_trees,
    kernel_from_spectrum,
    projection_from_rank,
    projection_spectrum,
    tabulate,
)

FAMILY_SIGNIFICANCE = 1e-3
N_STAT_TESTS = 32  # upper bound on the goodness-of-fit tests run below
ALPHA = FAMILY_SIGNIFICANCE / N_STAT_TESTS
N = 100_000

ANNULI = [(0.0, 1.0), (1.0, 2.0)]


def _report(number, name, checks):
    ok = all(bool(v) for _, v in checks)
    print(f"[acceptance] criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    failed = [label for label, v in checks if not v]
    assert ok, f"criterion {number} failed sub-checks: {failed}"


def chi2_ok(observed, pmf, tail=0.0):
    return dp.chi_square_fit(observed, pmf, significance=ALPHA, tail_bound=tail)


@pytest.fixture(scope="module")
def ginibre_grid():
    kernel, clamp = dp.discretize_radial_kernel(dp.ginibre_spec(3), 0.15, 3.5)
    assert clamp <= 0.05
    return kernel


@pytest.fixture(scope="module")
def ginibre_grid_samples(ginibre_grid):
    rng = dp.stream(906)
    centers = np.array(ginibre_grid.ground.labels)
    return [
        centers[list(dp.sample_dpp(ginibre_grid, rng).points)] for _ in range(N)
    ]


def test_criterion_01_alpha_witness_exact():
    checks = []
    for alpha in (-1.0, 0.0, 1.0, 2.0, 4.0, 5.0):
        expected = 2 * (4 - alpha) * (alpha + 1)
        value = dp.alpha_det(WITNESS_MATRIX, alpha).real
        checks.append((f"alpha={alpha}", abs(value - expected) < 1e-10))
    witness = dp.existence_witness(5.0)
    checks.append(("value at 5 is -12", abs(witness.value + 12.0) < 1e-10))
    checks.append(("negative proves non-existence", witness.verdict == "negative_intensity"))
    _report(1, "alpha-determinant witness", checks)


def test_criterion_02_kernel_validation_round_trip(ginibre_grid):
    checks = []
    for text in ("a b\nb c\nc d\nd a", "a b\nb c\nc d\nd a\na c", "a b\nb c\nc a"):
        kernel = dp.transfer_current_kernel(Graph.from_edge_list(text))
        checks.append((f"transfer current on {text.count(chr(10)) + 1} edges",
                       dp.validate_determinantal(kernel).valid))
    rng = dp.stream(902)
    n = 6
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.8]
    edges += [(i, i + 1) for i in range(n - 1)]
    random_graph = Graph(tuple(range(n)), tuple(edges), rng.uniform(0.5, 2, len(edges)))
    checks.append(("random weighted graph",
                   dp.validate_determinantal(dp.transfer_current_kernel(random_graph)).valid))
    checks.append(("discretized Ginibre grid", dp.validate_determinantal(ginibre_grid).valid))
    bergman_kernel, _ = dp.discretize_radial_kernel(dp.bergman_spec(3), 0.05, 1.0)
    checks.append(("discretized Bergman grid", dp.validate_determinantal(bergman_kernel).valid))
    for name, matrix in (("1.2 I", 1.2 * np.eye(2)),
                         ("[[.5,.6],[.6,.5]]", np.array([[0.5, 0.6], [0.6, 0.5]]))):
        kernel = dp.HermitianKernel(matrix, dp.GroundSet.uniform(2))
        checks.append((f"rejects {name}", not dp.validate_determinantal(kernel).valid))
    _report(2, "kernel admissibility", checks)


def test_criterion_03_projection_sampler_exact_law():
    rng = dp.stream(903)
    ground = dp.GroundSet(tuple("abcd"), np.array([0.5, 1.0, 1.5, 2.0]))
    spec = projection_spectrum(projection_from_rank(ground, 2, rng))
    law = {}
    k = spec.kernel().matrix
    for subset in itertools.combinations(range(4), 2):
        minor = k[np.ix_(subset, subset)]
        law[subset] = float(np.linalg.det(minor).real) * math.prod(
            ground.weights[i] for i in subset
        )
    counts = Counter()
    violations = 0
    for _ in range(N):
        config = dp.sample_projection(spec, rng)
        if len(config) != 2 or len(set(config.points)) != 2:
            violations += 1
        counts[tuple(sorted(config.points))] += 1
    report = chi2_ok(np.array([counts.get(s, 0) for s in law]),
                     np.array(list(law.values())))
    _report(3, "projection sampler on 4 points", [
        ("law sums to one", abs(sum(law.values()) - 1) < 1e-10),
        ("chi-square vs det-minor law", report.passed),
        ("every sample has exactly 2 distinct points", violations == 0),
    ])


def test_criterion_04_bernoulli_count_law():
    rng = dp.stream(904)
    lams = [0.2, 0.5, 0.9]
    kernel = kernel_from_spectrum(dp.GroundSet.uniform(3), lams, rng)
    law = dp.count_pmf(kernel, [0, 1, 2])
    draws = [len(dp.sample_dpp(kernel, rng)) for _ in range(N)]
    report = chi2_ok(tabulate(draws, len(law.pmf)), law.pmf)
    _report(4, "Bernoulli-convolution count law", [
        ("chi-square empirical counts", report.passed),
        ("mean identity", abs(law.mean() - sum(lams)) < 1e-10),
        ("variance identity",
         abs(law.variance() - sum(l * (1 - l) for l in lams)) < 1e-10),
    ])


def test_criterion_05_geometric_count_law():
    rng = dp.stream(905)
    kernel = kernel_from_spectrum(dp.GroundSet.uniform(2), [0.7, 1.5], rng)
    law = dp.count_pmf_perm(kernel, [0, 1], 60)
    draws = []
    pair_products = []
    for _ in range(N):
        config = dp.sample_permanental(kernel, rng)
        draws.append(len(config))
        mult = config.multiplicities()
        pair_products.append(mult.get(0, 0) * mult.get(1, 0))
    report = chi2_ok(tabulate(draws, 61), law.pmf, tail=law.tail_bound)
    k, w = kernel.matrix, kernel.ground.weights
    rho2 = (k[0, 0] * k[1, 1] + abs(k[0, 1]) ** 2).real * w[0] * w[1]
    pair_products = np.array(pair_products, dtype=float)
    se = pair_products.std(ddof=1) / math.sqrt(N)
    _report(5, "geometric-convolution count law", [
        ("chi-square empirical counts", report.passed),
        ("pair intensity via permanent minor",
         abs(pair_products.mean() - rho2) < 4 * se),
    ])


def test_criterion_06_occupancy_three_way_agreement(ginibre_grid, ginibre_grid_samples):
    spec = dp.ginibre_spec(3)
    lam = dp.annuli_lambdas(spec, ANNULI)
    rng = dp.stream(9061)
    occupancy = Counter(tuple(dp.joint_counts_observable(lam, rng)) for _ in range(N))
    rng = dp.stream(9062)
    thresholded = Counter()
    for _ in range(N):
        moduli = dp.sample_radial_moduli(spec, rng)
        thresholded[tuple(
            sum(1 for q in moduli if lo * lo < q <= hi * hi) for lo, hi in ANNULI
        )] += 1
    grid_counts = Counter()
    for zs in ginibre_grid_samples:
        radii = np.abs(zs)
        grid_counts[tuple(
            int(((radii > lo) & (radii <= hi)).sum()) for lo, hi in ANNULI
        )] += 1
    r_ab = dp.chi_square_homogeneity(occupancy, thresholded, significance=ALPHA)
    r_ac = dp.chi_square_homogeneity(occupancy, grid_counts, significance=ALPHA)
    r_bc = dp.chi_square_homogeneity(thresholded, grid_counts, significance=ALPHA)
    _report(6, "occupancy / moduli / grid-sampler agreement", [
        ("occupancy vs thresholded moduli", r_ab.passed),
        ("occupancy vs grid counts", r_ac.passed),
        ("thresholded moduli vs grid counts", r_bc.passed),
    ])


def test_criterion_07_ginibre_moduli():
    rng = dp.stream(907)
    n = 5
    spec = dp.ginibre_spec(n)
    draws = np.array([dp.sample_radial_moduli(spec, rng) for _ in range(N)])
    checks = []
    cdf_q = base_density(spec.base).cdf_q
    for i in range(1, n + 1):
        column = draws[:, i - 1]
        report = dp.ks_fit(column, functools.partial(cdf_q, i - 1), significance=ALPHA)
        checks.append((f"KS gamma({i},1)", report.passed))
        checks.append(
            (f"mean of modulus^2 #{i}", abs(column.mean() - i) < 4 * math.sqrt(i / N))
        )
    _report(7, "Ginibre moduli are independent gammas", checks)


def test_criterion_08_gaf_moduli():
    rng = dp.stream(908)
    n = 4
    spec = dp.bergman_spec(n)
    draws = np.array([dp.sample_radial_moduli(spec, rng) for _ in range(N)])
    checks = []
    cdf_q = base_density(spec.base).cdf_q
    for k in range(n):
        report = dp.ks_fit(draws[:, k], functools.partial(cdf_q, k), significance=ALPHA)
        checks.append((f"KS beta({k + 1},1)", report.passed))
        # equivalently |z_k| behaves like U^(1/(2k+2))
        moduli = np.sqrt(draws[:, k])
        cdf = lambda t, kk=k: np.clip(t, 0, 1) ** (2 * kk + 2)
        checks.append((f"|z_{k}| vs U^(1/{2 * k + 2})",
                       dp.ks_fit(moduli, cdf, significance=ALPHA).passed))
    _report(8, "power-series zero moduli", checks)


def test_criterion_09_geometric_multinomial_split():
    rng = dp.stream(909)
    l1, l2 = 0.8, 0.4
    row = np.array([[l1, l2]])
    p = l1 / (l1 + l2)
    strata = {}
    for _ in range(N):
        counts = dp.joint_counts_observable_perm(row, rng)
        strata.setdefault(int(counts.sum()), []).append(int(counts[0]))
    checks = []
    for total in (1, 2, 3, 4):
        firsts = strata.get(total, [])
        if len(firsts) < 1000:
            continue
        pmf = stats.binom.pmf(np.arange(total + 1), total, p)
        report = chi2_ok(tabulate(firsts, total + 1), pmf)
        checks.append((f"split given total={total}", report.passed))
    checks.append(("at least three strata tested", len(checks) >= 3))
    _report(9, "conditional multinomial split", checks)


def _kernel_from_tree_enumeration(graph, subset):
    """Restricted transfer-current matrix rebuilt purely from the tree
    ensemble: diagonal from edge marginals, off-diagonal magnitudes from
    pair probabilities, the one free sign from the triple probability."""
    trees = enumerate_spanning_trees(graph)
    prob = 1.0 / len(trees)
    m = {e: sum(prob for t in trees if e in t) for e in subset}
    pair = {
        (e, f): sum(prob for t in trees if e in t and f in t)
        for e, f in itertools.combinations(subset, 2)
    }
    triple = sum(prob for t in trees if all(e in t for e in subset))
    a, b, c = subset
    k = np.diag([m[a], m[b], m[c]])
    k[0, 1] = k[1, 0] = math.sqrt(max(m[a] * m[b] - pair[(a, b)], 0.0))
    k[0, 2] = k[2, 0] = math.sqrt(max(m[a] * m[c] - pair[(a, c)], 0.0))
    k12 = math.sqrt(max(m[b] * m[c] - pair[(b, c)], 0.0))
    base = (
        m[a] * m[b] * m[c]
        - m[a] * k12**2
        - m[b] * k[0, 2] ** 2
        - m[c] * k[0, 1] ** 2
    )
    product = k[0, 1] * k[0, 2] * k12
    sign = 1.0
    if product > 1e-15:
        sign = round((triple - base) / (2 * product))
    k[1, 2] = k[2, 1] = sign * k12
    return k


def test_criterion_10_spanning_trees():
    checks = []
    c4 = Graph.from_edge_list("a b\nb c\nc d\nd a")
    rng = dp.stream(910)
    trees4 = enumerate_spanning_trees(c4)
    counts = Counter(dp.sample_ust(c4, rng) for _ in range(N))
    report = chi2_ok(np.array([counts.get(t, 0) for t in trees4]),
                     np.full(len(trees4), 1 / len(trees4)))
    checks.append(("4-cycle trees uniform", report.passed and len(trees4) == 4))

    chord = Graph.from_edge_list("a b\nb c\nc d\nd a\na c")
    trees8 = enumerate_spanning_trees(chord)
    counts = Counter(dp.sample_ust(chord, rng) for _ in range(N))
    report = chi2_ok(np.array([counts.get(t, 0) for t in trees8]),
                     np.full(len(trees8), 1 / len(trees8)))
    checks.append(("square-plus-chord trees uniform", report.passed and len(trees8) == 8))

    derived = _kernel_from_tree_enumeration(chord, (0, 1, 2))
    eigs = np.sort(np.linalg.eigvalsh(derived))[::-1]
    expected = np.array([1.0, (7 + math.sqrt(17)) / 16, (7 - math.sqrt(17)) / 16])
    checks.append(("enumeration-derived eigenvalues", np.abs(eigs - expected).max() < 1e-8))
    kernel = dp.transfer_current_kernel(chord)
    direct = np.sort(dp.spectrum(dp.restrict(kernel, [0, 1, 2])).eigenvalues)[::-1]
    checks.append(("transfer-current eigenvalues", np.abs(direct - expected).max() < 1e-8))

    law = dp.count_pmf(kernel, [0, 1, 2])
    eighths = law.pmf * 8
    checks.append(("edge-count pmf in exact eighths",
                   np.abs(eighths - np.round(eighths)).max() < 1e-9 and law.pmf[0] < 1e-12))
    _report(10, "uniform spanning trees", checks)


def test_criterion_11_count_clt():
    rng = dp.stream(911)
    levels = [[0.5] * 16, [0.5] * 128, [0.5] * 1024]
    report = dp.clt_check(levels, N, rng)
    ks = report.details["ks_per_level"]
    _report(11, "central limit of counts", [
        ("KS decreasing across levels", all(b < a for a, b in zip(ks, ks[1:]))),
        ("final variance at least 50", report.details["variance_per_level"][-1] >= 50),
        ("final KS below 0.02", ks[-1] < 0.02),
        ("clt_check verdict", report.passed),
    ])


def test_criterion_12_power_independence(ginibre_grid_samples):
    poly = dp.LaurentPoly({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, 1)  # degree d = 1
    checks = []
    exact_zero = all(
        dp.torus_moment(poly, (k * (m - mp),)) == 0.0
        for k in (2, 3, 4)
        for m in (1, 2, 3)
        for mp in (1, 2, 3)
        if m != mp
    )
    checks.append(("torus cross-moments exactly zero beyond the degree", exact_zero))
    report = dp.power_independence_check(ginibre_grid_samples, power=2, degree=2)
    checks.append(("empirical check at power 2 on 1e5 grid samples", report.passed))
    _report(12, "high-power angular independence", checks)


def test_criterion_13_property_suites():
    rng = dp.stream(913)
    cb_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        direct = np.linalg.det(a @ b)
        expansion = sum(
            np.linalg.det(a[:, cols]) * np.linalg.det(b[list(cols), :])
            for cols in itertools.combinations(range(n), m)
        )
        cb_ok &= abs(direct - expansion) < 1e-8 * (1 + abs(direct))

    marg_ok = True
    for _ in range(100):
        size = int(rng.integers(2, 6))
        n = int(rng.integers(1, min(4, size) + 1))
        kk = int(rng.integers(1, n + 1))
        ground = dp.GroundSet(tuple(range(size)), rng.uniform(0.3, 1.5, size=size))
        proj = projection_from_rank(ground, n, rng)
        pts = rng.integers(0, size, size=kk).tolist()
        w = ground.weights
        integrated = 0.0
        for rest in itertools.product(range(size), repeat=n - kk):
            integrated += dp.joint_intensity(proj, pts + list(rest)) * math.prod(
                w[j] for j in rest
            )
        integrated /= math.factorial(n - kk)
        direct = dp.joint_intensity(proj, pts)
        marg_ok &= abs(integrated - direct) < 1e-8 * (1 + abs(direct))

    tc_ok = True
    for _ in range(20):
        nv = int(rng.integers(2, 9))
        edges = [e for e in itertools.combinations(range(nv), 2) if rng.random() < 0.6]
        order = rng.permutation(nv).tolist()
        edges += [tuple(sorted((order[i], order[i + 1]))) for i in range(nv - 1)]
        graph = Graph(tuple(range(nv)), tuple(edges), rng.uniform(0.5, 2, len(edges)))
        k = dp.transfer_current_kernel(graph).matrix
        tc_ok &= bool(np.abs(k @ k - k).max() < 1e-8)
        tc_ok &= abs(np.trace(k).real - (nv - 1)) < 1e-8

    _report(13, "algebraic property suites", [
        ("determinant product expansion, 100 instances", cb_ok),
        ("intensity marginalization, 100 instances", marg_ok),
        ("transfer-current idempotence and trace, 20 graphs", tc_ok),
    ])
