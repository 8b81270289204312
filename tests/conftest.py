"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately avoid the library's own computation paths:
spanning trees come from brute-force subset enumeration, occupancy laws
from enumerating every ball placement, count laws from enumerating every
indicator outcome.  The random kernel builders give tests projections and
kernels with a prescribed spectrum.
"""

import itertools
import math

import numpy as np
import pytest

import detperm as dp


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
