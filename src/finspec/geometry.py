"""Discrete geometries: weighted graphs, their geodesic metric, and the
canonical spectral triples built from the incidence operator.

The triple of a graph lives on vertices (+) edges; the Dirac matrix is
D = [[0, B], [B*, 0]] with B the weighted incidence operator (entries
+-1/length per edge).  Each edge direction is assigned to the character of
the edge's first endpoint, so the algebra acts diagonally on the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from . import numerics
from .algebra import FiniteCommutativeAlgebra
from .errors import NonpositiveLength, ShapeMismatch, TooFewPoints
from .metric import distance_matrix
from .triple import AntiunitaryOperator, SpectralTriple


@dataclass(frozen=True)
class DiscreteGeometry:
    labels: tuple
    edges: tuple  # (i, j, length) with 0-based vertex indices

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        edges = tuple((int(i), int(j), float(l)) for i, j, l in self.edges)
        k = len(labels)
        for i, j, l in edges:
            if not 0 < l < math.inf:     # NaN fails too
                raise NonpositiveLength(
                    f"edge ({i},{j}) has length {l}; lengths are finite and > 0")
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"bad edge ({i},{j}) for {k} vertices")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)

    @property
    def k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GeometryMap:
    source: DiscreteGeometry
    target: DiscreteGeometry
    vertex_map: tuple

    def __post_init__(self):
        vm = tuple(int(v) for v in self.vertex_map)
        if len(vm) != self.source.k:
            raise ValueError("vertex map must cover every source vertex")
        if len(set(vm)) != len(vm):
            raise ValueError("vertex map must be injective")
        if any(v < 0 or v >= self.target.k for v in vm):
            raise ValueError("vertex map index out of range")
        object.__setattr__(self, "vertex_map", vm)


def geodesic_matrix(g: DiscreteGeometry) -> np.ndarray:
    """All-pairs shortest-path lengths; inf across components.  Of parallel
    edges the shortest counts (a sparse matrix would add their lengths)."""
    k = g.k
    shortest = {}
    for i, j, l in g.edges:
        key = (min(i, j), max(i, j))
        shortest[key] = min(l, shortest.get(key, math.inf))
    rows, cols, data = [], [], []
    for (i, j), l in shortest.items():
        rows += [i, j]
        cols += [j, i]
        data += [l, l]
    graph = csr_matrix((data, (rows, cols)), shape=(k, k))
    return shortest_path(graph, method="D", directed=False)


def graph_components(g: DiscreteGeometry):
    """Vertex sets of the connected components, as sorted lists ordered by
    smallest member."""
    rows = [i for i, _, _ in g.edges]
    cols = [j for _, j, _ in g.edges]
    adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.k, g.k))
    return numerics.connected_parts(adjacency)


def graph_triple(g: DiscreteGeometry) -> SpectralTriple:
    """Even real spectral triple on vertices (+) edges with the incidence Dirac."""
    k = g.k
    n_e = len(g.edges)
    dim = k + n_e
    b = np.zeros((k, n_e), dtype=complex)
    for e, (i, j, l) in enumerate(g.edges):
        b[i, e] = 1.0 / l
        b[j, e] = -1.0 / l
    dirac = np.zeros((dim, dim), dtype=complex)
    dirac[:k, k:] = b
    dirac[k:, :k] = b.conj().T

    projections = []
    for v in range(k):
        p = np.zeros((dim, dim), dtype=complex)
        p[v, v] = 1.0
        for e, (i, j, l) in enumerate(g.edges):
            if i == v:  # edge directions ride with their first endpoint
                p[k + e, k + e] = 1.0
        projections.append(p)
    algebra = FiniteCommutativeAlgebra(tuple(projections), g.labels)

    grading = np.diag(np.concatenate([np.ones(k), -np.ones(n_e)])).astype(complex)
    real = AntiunitaryOperator(np.eye(dim, dtype=complex))
    return SpectralTriple(algebra, dirac, grading, real, "even")


def two_point_geometry(length: float):
    """The smallest example: two points at the given distance."""
    if length <= 0:
        raise NonpositiveLength(f"length must be positive, got {length}")
    geom = DiscreteGeometry(("p1", "p2"), ((0, 1, length),))
    lam = 1.0 / length
    algebra = FiniteCommutativeAlgebra(
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        ("p1", "p2"),
    )
    dirac = np.array([[0.0, lam], [lam, 0.0]], dtype=complex)
    grading = np.diag([1.0, -1.0]).astype(complex)
    real = AntiunitaryOperator(np.eye(2, dtype=complex))
    return geom, SpectralTriple(algebra, dirac, grading, real, "even")


def lattice_circle(n: int, radius: float):
    """n equispaced points on a circle of the given radius; odd triple."""
    if n < 3:
        raise TooFewPoints("a lattice circle needs at least 3 points")
    if radius <= 0:
        raise NonpositiveLength("radius must be positive")
    eps = 2.0 * math.pi * radius / n
    labels = tuple(f"v{i + 1}" for i in range(n))
    edges = tuple((i, (i + 1) % n, eps) for i in range(n))
    geom = DiscreteGeometry(labels, edges)
    even = graph_triple(geom)
    triple = SpectralTriple(even.algebra, even.dirac, None,
                            even.real_structure, "odd")
    return geom, triple


def lattice_interval(n: int, length: float):
    """Path of n points of total length; n=2 reduces to the two-point triple."""
    if n < 2:
        raise TooFewPoints("an interval needs at least 2 points")
    if length <= 0:
        raise NonpositiveLength("length must be positive")
    eps = length / (n - 1)
    if n == 2:
        return two_point_geometry(eps)
    labels = tuple(f"v{i + 1}" for i in range(n))
    edges = tuple((i, i + 1, eps) for i in range(n - 1))
    geom = DiscreteGeometry(labels, edges)
    return geom, graph_triple(geom)


def disjoint_union(g1: DiscreteGeometry, g2: DiscreteGeometry) -> DiscreteGeometry:
    labels = tuple(f"L.{s}" for s in g1.labels) + tuple(f"R.{s}" for s in g2.labels)
    edges = g1.edges + tuple((i + g1.k, j + g1.k, l) for i, j, l in g2.edges)
    return DiscreteGeometry(labels, edges)


@dataclass(frozen=True)
class ComparisonReport:
    ratio: np.ndarray               # spectral / geodesic, nan where undefined
    max_relative_deviation: float
    mean_relative_deviation: float
    infinite_pattern_match: bool

    @property
    def passed(self) -> bool:
        return self.infinite_pattern_match

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "ratio": [[None if not np.isfinite(v) else float(v) for v in row]
                      for row in self.ratio],
            "max_relative_deviation": float(self.max_relative_deviation),
            "mean_relative_deviation": float(self.mean_relative_deviation),
            "infinite_pattern_match": self.infinite_pattern_match,
        }


def compare_metrics(g: DiscreteGeometry, t: SpectralTriple,
                    seed: int = 0) -> ComparisonReport:
    """Entrywise comparison of spectral and geodesic distances.

    The two need not agree at finite resolution; the report quantifies the
    gap, while the infinity pattern (component structure) must match exactly.
    """
    if t.algebra.k != g.k:
        raise ShapeMismatch("triple characters do not match graph vertices")
    geo = geodesic_matrix(g)
    spec = distance_matrix(t, seed=seed).values
    k = g.k
    ratio = np.full((k, k), np.nan)
    devs = []
    pattern_ok = True
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            gi, si = geo[i, j], spec[i, j]
            if np.isinf(gi) != np.isinf(si):
                pattern_ok = False
                continue
            if np.isinf(gi):
                continue
            ratio[i, j] = si / gi
            devs.append(abs(si - gi) / gi)
    max_dev = max(devs) if devs else 0.0
    mean_dev = float(np.mean(devs)) if devs else 0.0
    return ComparisonReport(ratio, max_dev, mean_dev, pattern_ok)


# --- randomized builders (tests and experiment scripts) ---------------------

def random_connected_geometry(rng: np.random.Generator, k: int,
                              extra_edges: int = 1) -> DiscreteGeometry:
    """Random spanning tree plus a few extra edges, lengths in [0.5, 2]."""
    labels = tuple(f"v{i + 1}" for i in range(k))
    edges = []
    seen = {0}
    for v in range(1, k):
        u = int(rng.choice(sorted(seen)))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
        seen.add(v)
    existing = {(min(i, j), max(i, j)) for i, j, _ in edges}
    attempts = 0
    while extra_edges > 0 and attempts < 50 and k > 2:
        i, j = rng.choice(k, size=2, replace=False)
        key = (min(int(i), int(j)), max(int(i), int(j)))
        attempts += 1
        if key in existing:
            continue
        existing.add(key)
        edges.append((key[0], key[1], float(rng.uniform(0.5, 2.0))))
        extra_edges -= 1
    return DiscreteGeometry(labels, tuple(edges))


# --- JSON codecs -----------------------------------------------------------

def geometry_to_json(g: DiscreteGeometry) -> dict:
    # 1-based vertex indices on the wire
    return {
        "vertices": list(g.labels),
        "edges": [[i + 1, j + 1, l] for i, j, l in g.edges],
    }


def geometry_from_json(obj) -> DiscreteGeometry:
    labels = tuple(obj["vertices"])
    edges = tuple((int(i) - 1, int(j) - 1, float(l)) for i, j, l in obj["edges"])
    return DiscreteGeometry(labels, edges)
