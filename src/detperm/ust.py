"""Random spanning trees through transfer currents.

The edge set of a (conductance-weighted) uniform spanning tree is a
determinantal process whose kernel is the transfer-current matrix: entry
(e, f) is the current through f when a unit current is driven across e
(Burton-Pemantle).  It is the orthogonal projection onto the column space
of C^(1/2) B, with B the signed edge-vertex incidence matrix and C the
conductances, and it has rank |V| - 1.

Grounding one vertex leaves B with full column rank, so a thin QR of
C^(1/2) B gives a real orthonormal basis of that column space: the
eigenfunctions of the kernel, each with eigenvalue 1.  That spectrum is
computed once per graph and cached on it; the kernel's factor is the same
real Q, and the tree sampler runs on it in real arithmetic.  A tree is one draw of the chain-rule projection
sampler of ``dpp`` on that spectrum, at O(|E| |V|^2) per tree and with
no pseudoinverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import GraphError, GroundSet, NumericalDegeneracyError
from .dpp import sample_projection
from .kernels import Spectrum


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph with a reference orientation per edge."""

    vertices: tuple
    edges: tuple            # (u, v) pairs, oriented u -> v
    conductances: np.ndarray

    def __post_init__(self):
        vertices = tuple(self.vertices)
        edges = tuple((u, v) for u, v in self.edges)
        cond = np.asarray(self.conductances, dtype=float)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "conductances", cond)
        if len(set(vertices)) != len(vertices):
            raise GraphError("vertex labels must be distinct")
        if cond.shape != (len(edges),):
            raise GraphError("one conductance per edge required")
        if not np.all((cond > 0) & np.isfinite(cond)):
            raise GraphError("conductances must be finite and strictly positive")
        vset = set(vertices)
        for u, v in edges:
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u}, {v}) uses an unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at {u} is not allowed")
        if not _connected(len(vertices), self._index_pairs()):
            raise GraphError("graph must be connected")

    @functools.cached_property
    def tree_spectrum(self):
        """The spectrum of the transfer-current kernel over the edges (unit
        masses): the columns of Q in a thin QR of C^(1/2) B with vertex 0
        grounded, each with eigenvalue 1."""
        b = _incidence(self.n_vertices, self._index_pairs())[:, 1:]
        q, _ = np.linalg.qr(np.sqrt(self.conductances)[:, None] * b)
        ground = GroundSet(self.edge_labels(), np.ones(self.n_edges))
        spec = Spectrum(np.ones(q.shape[1]), q, ground)
        # Checked now, at set-up, so no tree or count law pays for the check
        # or allocates alongside its temporaries.
        spec.weighted
        return spec

    def _index_pairs(self):
        pos = {v: i for i, v in enumerate(self.vertices)}
        return [(pos[u], pos[v]) for u, v in self.edges]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_labels(self):
        return tuple(f"e{i}:{u}-{v}" for i, (u, v) in enumerate(self.edges))

    @staticmethod
    def from_edge_list(text):
        """Parse 'u v [conductance]' lines (blank lines and # comments ok)."""
        vertices, edges, conds = [], [], []
        seen = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"line {lineno}: expected 'u v [conductance]'")
            u, v = parts[0], parts[1]
            for x in (u, v):
                if x not in seen:
                    seen.add(x)
                    vertices.append(x)
            edges.append((u, v))
            try:
                conds.append(float(parts[2]) if len(parts) == 3 else 1.0)
            except ValueError:
                raise GraphError(
                    f"line {lineno}: conductance {parts[2]!r} is not a number") from None
        return Graph(tuple(vertices), tuple(edges), np.array(conds))

    @staticmethod
    def load(path):
        with open(path) as fh:
            return Graph.from_edge_list(fh.read())


def _connected(n_vertices, index_pairs):
    if n_vertices == 0:
        return False
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in index_pairs:
        parent[find(u)] = find(v)
    return len({find(i) for i in range(n_vertices)}) == 1


def _incidence(n_vertices, index_pairs):
    b = np.zeros((len(index_pairs), n_vertices))
    for e, (u, v) in enumerate(index_pairs):
        b[e, u] += 1.0
        b[e, v] -= 1.0
    return b


def transfer_current_kernel(graph):
    """Determinantal kernel of the weighted spanning tree on the edge set
    (counting measure): C^(1/2) B L^+ B^T C^(1/2), an orthogonal
    projection of rank |V| - 1 with diagonal c_e R(e) = P(e in tree),
    held as the factor of the graph's tree spectrum."""
    return graph.tree_spectrum.kernel()


def sample_ust(graph, rng):
    """Draw one spanning tree (edge indices), distributed proportionally
    to the product of its conductances: one projection-process draw on
    the transfer-current spectrum."""
    if graph.n_vertices == 1:
        return ()
    try:
        config = sample_projection(graph.tree_spectrum, rng)
    except NumericalDegeneracyError as exc:
        raise GraphError(f"spanning-tree sampler degenerated: {exc}") from exc
    return tuple(sorted(config.points))


def is_spanning_tree(graph, edge_indices):
    """Check |V| - 1 edges that connect every vertex (hence acyclic)."""
    idx = list(edge_indices)
    if len(idx) != graph.n_vertices - 1 or len(set(idx)) != len(idx):
        return False
    pairs = graph._index_pairs()
    return _connected(graph.n_vertices, [pairs[i] for i in idx])
