import math

import numpy as np
import pytest

import finspec as fs
from finspec import geometry
from finspec.errors import NonpositiveLength, TooFewPoints

from conftest import random_disconnected_geometry


def test_two_point_geometry_construction():
    g, t = fs.two_point_geometry(0.5)
    assert g.k == 2
    assert np.allclose(t.dirac, [[0, 2.0], [2.0, 0]])
    assert fs.validate_triple(t).passed


def test_two_point_nonpositive_length():
    with pytest.raises(NonpositiveLength):
        fs.two_point_geometry(0.0)


def test_lattice_circle_too_few_points():
    with pytest.raises(TooFewPoints):
        fs.lattice_circle(2, 1.0)


def test_lattice_interval_too_few_points():
    with pytest.raises(TooFewPoints):
        fs.lattice_interval(1, 1.0)


def test_geodesic_matrix_path():
    g, _ = fs.lattice_interval(4, 3.0)
    geo = fs.geodesic_matrix(g)
    assert geo[0, 3] == pytest.approx(3.0)
    assert geo[0, 1] == pytest.approx(1.0)


def test_geodesic_infinite_between_components():
    g1, _ = fs.lattice_interval(2, 1.0)
    g2, _ = fs.lattice_interval(2, 1.0)
    g = geometry.disjoint_union(g1, g2)
    geo = fs.geodesic_matrix(g)
    assert math.isinf(geo[0, 2])
    assert geo[0, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("second", [(0, 1, 2.0), (1, 0, 2.0), (1, 0, 0.5)])
def test_geodesic_takes_the_shortest_parallel_edge(second):
    g = geometry.DiscreteGeometry(("a", "b", "c"), ((0, 1, 1.0), second,
                                                    (1, 2, 1.0)))
    geo = fs.geodesic_matrix(g)
    shortest = min(1.0, second[2])
    assert geo[0, 1] == geo[1, 0] == shortest
    assert geo[0, 2] == shortest + 1.0


def test_graph_components():
    g = random_disconnected_geometry(np.random.default_rng(3), 3, 2)
    comps = geometry.graph_components(g)
    assert sorted(len(c) for c in comps) == [2, 3]


def test_graph_components_without_geodesics(monkeypatch):
    g = geometry.disjoint_union(
        geometry.disjoint_union(fs.lattice_interval(3, 1.0)[0],
                                fs.lattice_circle(3, 1.0)[0]),
        fs.lattice_interval(2, 1.0)[0])
    expected = [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert [sorted(np.flatnonzero(np.isfinite(row)).tolist())
            for row in fs.geodesic_matrix(g)[[0, 3, 6]]] == expected

    def forbidden(*args):
        raise AssertionError("graph_components ran all-pairs shortest paths")

    monkeypatch.setattr(geometry, "geodesic_matrix", forbidden)
    assert geometry.graph_components(g) == expected


def test_interval_spectral_equals_geodesic():
    g, t = fs.lattice_interval(4, 3.0)
    report = geometry.compare_metrics(g, t)
    assert report.passed
    assert report.max_relative_deviation <= 1e-8


def test_circle_spectral_equals_geodesic():
    g, t = fs.lattice_circle(5, 1.0)
    report = geometry.compare_metrics(g, t)
    assert report.passed
    assert report.max_relative_deviation <= 1e-8


def test_circle_rotation_symmetry():
    _, t = fs.lattice_circle(3, 1.0)
    dm = fs.distance_matrix(t).values
    vals = [dm[0, 1], dm[1, 2], dm[2, 0]]
    assert max(vals) - min(vals) <= 1e-8


def test_circle_adjacent_scaling():
    """Adjacent-vertex distance tracks the lattice spacing."""
    _, t8 = fs.lattice_circle(8, 1.0)
    _, t16 = fs.lattice_circle(16, 1.0)
    d8 = fs.connes_distance(t8, t8.algebra.pure_state(0),
                            t8.algebra.pure_state(1)).value
    d16 = fs.connes_distance(t16, t16.algebra.pure_state(0),
                             t16.algebra.pure_state(1)).value
    assert d8 == pytest.approx(2 * math.pi / 8, rel=1e-6)
    assert abs(d8 / d16 - 2.0) <= 0.2


def test_circle_is_odd_interval_is_even():
    _, tc = fs.lattice_circle(3, 1.0)
    _, ti = fs.lattice_interval(3, 1.0)
    assert tc.parity == "odd"
    assert ti.parity == "even"
    assert fs.validate_triple(tc).passed
    assert fs.validate_triple(ti).passed


def test_interval_n2_matches_two_point():
    g, t = fs.lattice_interval(2, 1.0)
    assert t.rep_dim == 2
    d = fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(1))
    assert d.value == pytest.approx(1.0, rel=1e-8)


def test_random_connected_geometry_is_connected(rng):
    for k in range(2, 7):
        g = geometry.random_connected_geometry(rng, k)
        assert len(geometry.graph_components(g)) == 1
        assert all(l > 0 for _, _, l in g.edges)


def test_infinite_pattern_matches_components(rng):
    g = random_disconnected_geometry(rng, 3, 3)
    t = fs.graph_triple(g)
    report = geometry.compare_metrics(g, t)
    assert report.infinite_pattern_match


def test_geometry_json_roundtrip():
    g, _ = fs.lattice_circle(4, 2.0)
    doc = geometry.geometry_to_json(g)
    assert doc["edges"][0][0] == 1  # serialized 1-based
    back = geometry.geometry_from_json(doc)
    assert back.labels == g.labels
    assert np.allclose(fs.geodesic_matrix(back), fs.geodesic_matrix(g))
