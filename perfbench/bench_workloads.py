"""The four workloads, written against detperm's public API.

Each workload builds its input in ``setup`` (the input files come from
prepare.py), draws one operation with ``draw``, checks that operation's
structure with ``valid`` and reduces it with ``observe`` to the counts its
exact laws speak about.  ``laws`` computes those laws with the program,
and ``check`` tests the pooled counts against them.

Imported only after ``import detperm``: this module imports nothing the
program does not import itself.
"""

import contextlib
import io
import json
import math
import time

import numpy as np

import detperm as dp
from detperm import cli, ust

# Family-wise significance of the benchmark's own exact-law tests in one
# run, split evenly over the tests of that run.  Small, so a chance
# rejection over hundreds of runs stays unlikely while a wrong sampler
# still fails on a few hundred draws.
FAMILY_SIGNIFICANCE = 1e-5
PERM_N_MAX = 200


def chi_square(name, counts, law, significance):
    """One exact-law test of observed counts, as ``(name, passed, p_value)``."""
    report = dp.chi_square_fit(dp.harness.counts_from_values(counts), law.pmf,
                               significance=significance, tail_bound=law.tail_bound,
                               description=name)
    return name, bool(report.passed), report.p_value


def in_range(points, n, max_multiplicity):
    """Every point is an atom index below n, none repeated more often than allowed."""
    seen = {}
    for p in points:
        if not 0 <= p < n:
            return False
        seen[p] = seen.get(p, 0) + 1
    return max(seen.values(), default=0) <= max_multiplicity


class Workload:
    draw_share = 1.0      # share of the process's steady phase spent drawing
    tests = ()            # names of the exact-law tests

    def __init__(self, ctx):
        self.ctx = ctx

    def check(self, observations, laws, significance):
        return [chi_square(name, observations[name], laws[name], significance)
                for name in self.tests]

    @staticmethod
    def digest(sample):
        return hash(sample)


class RadialCloud(Workload):
    """Mirrors `detperm radial cloud`: the independent / determinantal /
    permanental trio on a discretized Ginibre kernel."""

    tests = ("dpp_disk", "perm_disk")
    terms = 12

    def setup(self):
        h = 0.5 if self.ctx["smoke"] else 0.2
        self.kernel, _ = dp.discretize_radial_kernel(dp.ginibre_spec(self.terms), h, 4.5)
        self.n = self.kernel.size
        self.means = np.real(np.diag(self.kernel.matrix)) * self.kernel.ground.weights
        self.disk = [i for i, z in enumerate(self.kernel.ground.labels) if abs(z) <= 2.0]
        self.in_disk = np.zeros(self.n, dtype=bool)
        self.in_disk[self.disk] = True

    def draw(self, rng):
        return (rng.poisson(self.means), dp.sample_dpp(self.kernel, rng).points,
                dp.sample_permanental(self.kernel, rng).points)

    def valid(self, sample):
        poisson, det, perm = sample
        return (poisson.shape == (self.n,) and poisson.min() >= 0 and len(det) <= self.terms
                and in_range(det, self.n, 1) and in_range(perm, self.n, len(perm)))

    def observe(self, sample):
        _, det, perm = sample
        return {"dpp_disk": int(self.in_disk[list(det)].sum()),
                "perm_disk": int(self.in_disk[list(perm)].sum())}

    @staticmethod
    def digest(sample):
        poisson, det, perm = sample
        return hash((tuple(poisson.tolist()), det, perm))

    def laws(self):
        return {"dpp_disk": dp.count_pmf(self.kernel, self.disk),
                "perm_disk": dp.count_pmf_perm(self.kernel, self.disk, PERM_N_MAX)}


class DenseKernel(Workload):
    """Mirrors `detperm sample dpp|alpha|perm --kernel k.json` on a dense
    complex kernel file."""

    tests = ("dpp_half", "alpha_half", "perm_half")
    alpha = -0.5

    def setup(self):
        with open(self.ctx["inputs"] + "/kernel.meta.json") as fh:
            self.rank = json.load(fh)["rank"]
        self.kernel = dp.HermitianKernel.load(self.ctx["inputs"] + "/kernel.json")
        self.n = self.kernel.size
        self.half = list(range(self.n // 2))

    def draw(self, rng):
        return (dp.sample_dpp(self.kernel, rng).points,
                dp.sample_alpha(self.kernel, self.alpha, rng).points,
                dp.sample_permanental(self.kernel, rng).points)

    def valid(self, sample):
        det, alpha, perm = sample
        copies = round(-1 / self.alpha)
        return (len(det) <= self.rank and in_range(det, self.n, 1)
                and len(alpha) <= copies * self.rank and in_range(alpha, self.n, copies)
                and in_range(perm, self.n, len(perm)))

    def observe(self, sample):
        half = len(self.half)
        return {name: sum(1 for p in points if p < half)
                for name, points in zip(self.tests, sample)}

    def laws(self):
        return {"dpp_half": dp.count_pmf(self.kernel, self.half),
                "alpha_half": dp.alpha_count_pmf(self.kernel, self.alpha, self.half),
                "perm_half": dp.count_pmf_perm(self.kernel, self.half, PERM_N_MAX)}


class UstGrid(Workload):
    """Mirrors `detperm ust sample` on a grid with seeded conductances."""

    tests = ("tree_half",)

    def setup(self):
        self.graph = dp.Graph.load(self.ctx["inputs"] + "/grid.txt")
        self.kernel = dp.transfer_current_kernel(self.graph)
        self.half = self.graph.n_edges // 2

    def draw(self, rng):
        return dp.sample_ust(self.graph, rng)

    def valid(self, sample):
        return ust.is_spanning_tree(self.graph, sample)

    def observe(self, sample):
        return {"tree_half": sum(1 for e in sample if e < self.half)}

    def laws(self):
        return {"tree_half": dp.count_pmf(self.kernel, range(self.half))}


def gamma_cdf(shape, q):
    """P(X <= q) for X ~ Gamma(shape, 1) with a positive integer shape."""
    return 1.0 - math.exp(-q) * sum(q**j / math.factorial(j) for j in range(shape))


class VerifySuite(Workload):
    """Runs `detperm verify --suite <suite>` in process through cli.main.

    run_suite draws internally, so the per-operation latency is taken on
    single draws of the suite's own samplers with the suite's parameters:
    one operation is one draw each of the categorical, Ginibre-moduli and
    Bergman-moduli samplers.  Those draws get exact-law tests of the
    benchmark's own, because the suite's reports are only tallied: the
    categorical indices against the normalised weights, and
    the number of squared moduli at most KOSTLAN_Q (Ginibre, term k is
    Gamma(k + 1, 1)) and at most GAF_Q (Bergman, term k is Beta(k + 1, 1),
    whose distribution function is q^(k + 1)).
    """

    # the rest of the steady phase runs `detperm verify`; a second of
    # draws spans many of the machine's fast and slow spells
    draw_share = 0.25
    tests = ("categorical", "kostlan_below", "gaf_below")
    KOSTLAN_Q = 2.0
    GAF_Q = 0.5

    def setup(self):
        self.suite_path = self.ctx["suite"]
        with open(self.suite_path) as fh:
            suite = json.load(fh)["checks"]
        checks = {c["type"]: c for c in suite}
        self.weights = np.asarray(checks["categorical"]["weights"], dtype=float)
        self.kostlan = dp.ginibre_spec(int(checks["kostlan"]["n"]))
        self.gaf = dp.bergman_spec(int(checks["gaf"]["n"]))
        # categorical, clt and the count-law checks emit one report each;
        # kostlan and gaf one per term
        self.expected_lines = sum(int(c["n"]) if c["type"] in ("kostlan", "gaf") else 1
                                  for c in suite)

    def draw(self, rng):
        return (dp.sample_categorical(self.weights, rng),
                tuple(dp.sample_radial_moduli(self.kostlan, rng)),
                tuple(dp.sample_radial_moduli(self.gaf, rng)))

    def valid(self, sample):
        index, kostlan, gaf = sample
        return (0 <= index < len(self.weights)
                and len(kostlan) <= len(self.kostlan.terms)
                and all(math.isfinite(q) and q > 0 for q in kostlan)
                and len(gaf) <= len(self.gaf.terms) and all(0 < q <= 1 for q in gaf))

    def observe(self, sample):
        index, kostlan, gaf = sample
        return {"categorical": index,
                "kostlan_below": sum(1 for q in kostlan if q <= self.KOSTLAN_Q),
                "gaf_below": sum(1 for q in gaf if q <= self.GAF_Q)}

    def laws(self):
        return {"categorical": dp.CountDistribution(self.weights / self.weights.sum()),
                "kostlan_below": dp.bernoulli_sum_pmf(
                    [t.weight * gamma_cdf(t.degree + 1, self.KOSTLAN_Q) for t in self.kostlan.terms]),
                "gaf_below": dp.bernoulli_sum_pmf(
                    [t.weight * self.GAF_Q ** (t.degree + 1) for t in self.gaf.terms])}

    def suite_call(self, seed):
        """One `detperm verify` call; returns its wall time, stdout bytes, a
        tally of its report lines and whether the output is well formed:
        the expected number of reports, each with a sample size and a
        verdict, and an exit code that agrees with the verdicts.  Lines that
        are not strict JSON and reports that reject are tallied, not
        failed: the first are a defect of the program's output (today the
        CLT report's NaN p-value), the second chance rejections of the
        suite's own tests."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", self.suite_path, "--seed", str(seed)])
        seconds = time.perf_counter() - start
        text = out.getvalue()
        lines = text.splitlines()
        tally = {"lines": len(lines), "rejected": 0, "not_strict_json": 0, "sample_size": 0}
        well_formed = len(lines) == self.expected_lines
        for line in lines:
            try:
                json.loads(line, parse_constant=_reject_constant)
                strict = True
            except ValueError:
                strict = False
                tally["not_strict_json"] += 1
            try:
                report = json.loads(line)
                size, passed = report["sample_size"], report["passed"]
            except (ValueError, KeyError, TypeError):
                size, passed = None, None
            if not isinstance(size, int) or size < 1 or not isinstance(passed, bool):
                well_formed = False
                continue
            tally["sample_size"] += size
            tally["rejected"] += not passed
        well_formed = well_formed and code == (1 if tally["rejected"] else 0)
        return seconds, len(text.encode()), tally, well_formed


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


WORKLOADS = {"radial_cloud": RadialCloud, "dense_kernel": DenseKernel,
             "ust_grid": UstGrid, "verify_suite": VerifySuite}
