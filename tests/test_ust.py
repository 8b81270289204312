import itertools
import math
from collections import Counter

import numpy as np
import pytest

import detperm as dp
from detperm.core import GraphError
from detperm.ust import Graph, is_spanning_tree

from conftest import (
    assert_spectra_agree,
    chi_square_homogeneity,
    enumerate_spanning_trees,
    projection_spectrum,
    tabulate,
)

ALPHA = 1e-3
N_SAMPLES = 10000

C4_TEXT = "a b\nb c\nc d\nd a"
# square a-b-c-d plus the diagonal a-c; 8 spanning trees
SQUARE_CHORD_TEXT = "a b\nb c\nc d\nd a\na c"


@pytest.fixture
def c4():
    return Graph.from_edge_list(C4_TEXT)


@pytest.fixture
def square_chord():
    return Graph.from_edge_list(SQUARE_CHORD_TEXT)


def grid_graph(side, rng):
    """The side x side grid with conductances uniform on [0.5, 2]."""
    edges = [((r, c), (r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(side - 1) for c in range(side)]
    vertices = tuple((r, c) for r in range(side) for c in range(side))
    return Graph(vertices, tuple(edges), rng.uniform(0.5, 2.0, size=len(edges)))


def tree_law(graph):
    """Exact tree distribution from brute-force enumeration, weighted by
    conductance products."""
    trees = enumerate_spanning_trees(graph)
    weights = np.array(
        [math.prod(graph.conductances[e] for e in t) for t in trees]
    )
    return trees, weights / weights.sum()


class TestGraph:
    def test_parsing_with_conductances_and_comments(self):
        g = Graph.from_edge_list("# triangle\nx y 2.0\ny z\nz x 0.5\n")
        assert g.n_vertices == 3 and g.n_edges == 3
        np.testing.assert_allclose(g.conductances, [2.0, 1.0, 0.5])

    def test_invalid_graphs(self):
        with pytest.raises(GraphError):
            Graph.from_edge_list("a a")  # self-loop
        with pytest.raises(GraphError):
            Graph.from_edge_list("a b\nc d")  # disconnected
        with pytest.raises(GraphError):
            Graph.from_edge_list("a b -1.0")  # bad conductance

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_conductance_rejected(self, bad):
        with pytest.raises(GraphError, match="finite and strictly positive"):
            Graph.from_edge_list(f"a b\nb c {bad}")

    def test_parallel_edges_allowed(self):
        g = Graph.from_edge_list("a b\na b\nb c")
        assert g.n_edges == 3
        assert len(set(g.edge_labels())) == 3


class TestTransferCurrentKernel:
    def test_four_cycle_diagonal_and_trace(self, c4):
        k = dp.transfer_current_kernel(c4)
        np.testing.assert_allclose(np.diag(k.matrix).real, [0.75] * 4, atol=1e-10)
        assert abs(np.trace(k.matrix).real - 3.0) < 1e-8

    def test_single_edge(self):
        g = Graph.from_edge_list("a b")
        k = dp.transfer_current_kernel(g)
        np.testing.assert_allclose(k.matrix, [[1.0]], atol=1e-12)

    def test_idempotent_projection_on_random_graphs(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 9))
            edges = list(itertools.combinations(range(n), 2))
            keep = [e for e in edges if rng.random() < 0.7]
            # force connectivity with a random spanning path
            order = rng.permutation(n).tolist()
            keep += [tuple(sorted((order[i], order[i + 1]))) for i in range(n - 1)]
            cond = rng.uniform(0.5, 2.0, size=len(keep))
            g = Graph(tuple(range(n)), tuple(keep), cond)
            k = dp.transfer_current_kernel(g).matrix
            w = np.ones(len(keep))
            np.testing.assert_allclose((k * w) @ k, k, atol=1e-8)
            assert abs(np.trace(k).real - (n - 1)) < 1e-8
            assert dp.validate_determinantal(dp.transfer_current_kernel(g)).valid

    def test_marginals_match_enumeration(self, square_chord):
        trees, probs = tree_law(square_chord)
        k = dp.transfer_current_kernel(square_chord).matrix.real
        for e in range(square_chord.n_edges):
            marginal = sum(p for t, p in zip(trees, probs) if e in t)
            assert abs(k[e, e] - marginal) < 1e-10
        for e, f in itertools.combinations(range(square_chord.n_edges), 2):
            pair = sum(p for t, p in zip(trees, probs) if e in t and f in t)
            det = k[e, e] * k[f, f] - k[e, f] ** 2
            assert abs(det - pair) < 1e-10

    def test_square_chord_restricted_eigenvalues(self, square_chord):
        k = dp.transfer_current_kernel(square_chord)
        sub = dp.restrict(k, [0, 1, 2])
        eigs = np.sort(dp.spectrum(sub).eigenvalues)[::-1]
        expected = [1.0, (7 + math.sqrt(17)) / 16, (7 - math.sqrt(17)) / 16]
        np.testing.assert_allclose(eigs, expected, atol=1e-8)

    @pytest.mark.parametrize("side", [3, 10])
    def test_grid_kernel_is_a_rank_v_minus_one_factor(self, side, rng, monkeypatch):
        g = grid_graph(side, rng)
        k = dp.transfer_current_kernel(g)
        assert k.factor.shape == (g.n_edges, g.n_vertices - 1)
        # reference: the dense |E| x |E| kernel C^(1/2) B L^+ B^T C^(1/2)
        b = np.zeros((g.n_edges, g.n_vertices))
        for e, (u, v) in enumerate(g._index_pairs()):
            b[e, u], b[e, v] = 1.0, -1.0
        cb = np.sqrt(g.conductances)[:, None] * b
        dense = dp.HermitianKernel(cb @ np.linalg.pinv(cb.T @ cb) @ cb.T, k.ground)
        assert_spectra_agree(dp.spectrum(dense), dp.spectrum(k))

        dense_reads, eigh_orders = [], []
        matrix = dp.HermitianKernel.matrix

        def read_matrix(kernel):
            dense_reads.append(kernel)
            return matrix.fget(kernel)

        def counted(solver):  # the order of every Hermitian eigensolver call
            def call(a, *args, **kwargs):
                eigh_orders.append(len(a))
                return solver(a, *args, **kwargs)
            return call

        monkeypatch.setattr(dp.HermitianKernel, "matrix", property(read_matrix))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        half = range(g.n_edges // 2)
        law = dp.count_pmf(dp.transfer_current_kernel(g), half)
        assert dense_reads == []
        assert eigh_orders and max(eigh_orders) <= len(half)
        for _ in range(5):
            assert is_spanning_tree(g, dp.sample_ust(g, rng))
        assert dense_reads == []
        monkeypatch.undo()
        np.testing.assert_allclose(law.pmf, dp.count_pmf(dense, half).pmf, rtol=0, atol=1e-10)


class TestEffectiveResistance:
    """The voltage across an edge under a unit current along it: the
    transfer current's diagonal entry, P(e in tree), over the conductance."""

    def test_bridge(self):
        g = Graph.from_edge_list("a b\nb c")
        resistance = dp.transfer_current_kernel(g).diagonal() / g.conductances
        assert abs(resistance[0] - 1.0) < 1e-10

    def test_triangle(self):
        g = Graph.from_edge_list("a b\nb c\nc a")
        resistance = dp.transfer_current_kernel(g).diagonal() / g.conductances
        assert abs(resistance[0] - 2.0 / 3.0) < 1e-10  # edge a-b

    def test_four_cycle(self, c4):
        resistance = dp.transfer_current_kernel(c4).diagonal() / c4.conductances
        assert abs(resistance[2] - 0.75) < 1e-10


class TestSampleUst:
    def test_tree_input_returns_all_edges(self, rng):
        g = Graph.from_edge_list("r a\nr b\nb c\nb d")
        for _ in range(10):
            assert dp.sample_ust(g, rng) == (0, 1, 2, 3)

    def test_every_sample_is_a_spanning_tree(self, square_chord, rng):
        for _ in range(500):
            assert is_spanning_tree(square_chord, dp.sample_ust(square_chord, rng))

    def test_four_cycle_uniform(self, c4, rng):
        trees, probs = tree_law(c4)
        assert len(trees) == 4
        counts = Counter(dp.sample_ust(c4, rng) for _ in range(N_SAMPLES))
        report = dp.chi_square_fit(
            np.array([counts.get(t, 0) for t in trees]), probs
        )
        assert report.p_value > ALPHA, report

    def test_square_chord_eight_trees_uniform(self, square_chord, rng):
        trees, probs = tree_law(square_chord)
        assert len(trees) == 8
        np.testing.assert_allclose(probs, 1.0 / 8, atol=1e-12)
        counts = Counter(dp.sample_ust(square_chord, rng) for _ in range(N_SAMPLES))
        report = dp.chi_square_fit(
            np.array([counts.get(t, 0) for t in trees]), probs
        )
        assert report.p_value > ALPHA, report

    def test_three_by_three_grid_tree_law(self, rng):
        g = grid_graph(3, rng)
        trees, probs = tree_law(g)
        assert len(trees) == 192
        counts = Counter(dp.sample_ust(g, rng) for _ in range(2 * N_SAMPLES))
        assert set(counts) <= set(trees)
        report = dp.chi_square_fit(np.array([counts.get(t, 0) for t in trees]), probs)
        assert report.p_value > ALPHA, report

    def test_weighted_tree_law(self, rng):
        g = Graph.from_edge_list("a b 2.0\nb c\nc a 0.5")
        trees, probs = tree_law(g)
        counts = Counter(dp.sample_ust(g, rng) for _ in range(N_SAMPLES))
        report = dp.chi_square_fit(np.array([counts.get(t, 0) for t in trees]), probs)
        assert report.p_value > ALPHA, report

    def test_edge_marginals_match_kernel_diagonal(self, square_chord, rng):
        k = dp.transfer_current_kernel(square_chord).matrix.real
        hits = np.zeros(square_chord.n_edges)
        n = 10000
        for _ in range(n):
            for e in dp.sample_ust(square_chord, rng):
                hits[e] += 1
        for e in range(square_chord.n_edges):
            freq = hits[e] / n
            se = math.sqrt(k[e, e] * (1 - k[e, e]) / n)
            assert abs(freq - k[e, e]) < 4 * se

    def test_agreement_with_projection_sampler(self, square_chord, rng):
        spec = projection_spectrum(dp.transfer_current_kernel(square_chord))
        a = Counter(dp.sample_ust(square_chord, rng) for _ in range(N_SAMPLES))
        b = Counter(
            tuple(sorted(dp.sample_projection(spec, rng).points))
            for _ in range(N_SAMPLES)
        )
        report = chi_square_homogeneity(a, b)
        assert report.p_value > ALPHA, report


class TestCountLawAcrossModules:
    def test_edge_triple_count_pmf_in_eighths(self, square_chord):
        # all events of the 8-tree ensemble have probabilities k/8
        kernel = dp.transfer_current_kernel(square_chord)
        law = dp.count_pmf(kernel, [0, 1, 2])
        trees, probs = tree_law(square_chord)
        expected = np.zeros(4)
        for t, p in zip(trees, probs):
            expected[len(set(t) & {0, 1, 2})] += p
        np.testing.assert_allclose(law.pmf, expected, atol=1e-10)
        assert abs(law.pmf[0]) < 1e-12  # supported on {1, 2, 3}
        eighths = law.pmf * 8
        np.testing.assert_allclose(eighths, np.round(eighths), atol=1e-9)

    def test_sampled_subset_counts_match_restricted_law(self, square_chord, rng):
        kernel = dp.transfer_current_kernel(square_chord)
        law = dp.count_pmf(kernel, [0, 1, 2])
        draws = [
            len(set(dp.sample_ust(square_chord, rng)) & {0, 1, 2})
            for _ in range(N_SAMPLES)
        ]
        report = dp.chi_square_fit(tabulate(draws, len(law.pmf)), law.pmf)
        assert report.p_value > ALPHA, report
