#!/usr/bin/env python3
"""Empirically confirm the closed-form modulus laws of the two radial
model families: truncated exponential-kernel moduli against gamma(i, 1),
and unit-disk power-series zero moduli against beta(k+1, 1).  Each law is
the CDF of the kernel's radial base, ``cdf_q``.

Prints one KS report line per modulus.
"""

import argparse
import functools

import numpy as np

import detperm as dp
from detperm.planar import base_density


def run(spec, law_name, rng, n_samples):
    """KS-test each term's squared modulus against its law in the spec's
    base; ``law_name(k)`` names the law of the degree-k term."""
    draws = np.array([dp.sample_radial_moduli(spec, rng) for _ in range(n_samples)])
    cdf_q = base_density(spec.base).cdf_q
    for i, term in enumerate(spec.terms):
        report = dp.ks_fit(draws[:, i], functools.partial(cdf_q, term.degree),
                           description=f"modulus^2 term {i} vs {law_name(term.degree)}")
        flag = "ok " if report.passed else "FAIL"
        print(f"[{flag}] {report.description}: ks={report.statistic:.5f} "
              f"p={report.p_value:.3g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="number of kernel terms")
    parser.add_argument("--samples", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    rng = dp.stream(args.seed)
    print(f"== gaussian base, {args.n} terms ==")
    run(dp.ginibre_spec(args.n), lambda k: f"gamma({k + 1}, 1)", rng, args.samples)
    print(f"== unit-disk base, {args.n} terms ==")
    run(dp.bergman_spec(args.n), lambda k: f"beta({k + 1}, 1)", rng, args.samples)


if __name__ == "__main__":
    main()
