import numpy as np
import pytest

import finspec as fs
from finspec import category
from finspec.algebra import AlgebraHom
from finspec.errors import (EndpointMismatch, KindMismatch, NotIsometric,
                            NotOntoComponents)
from finspec.geometry import GeometryMap, disjoint_union, graph_triple

from conftest import random_disconnected_geometry


def split_geometry(rng=None, k1=2, k2=3):
    g1, _ = fs.lattice_interval(k1, 1.0)
    g2, _ = fs.lattice_interval(k2, 1.5)
    g = disjoint_union(g1, g2)
    return g1, g2, g


def test_identity_metric_morphism_passes():
    t = fs.lattice_interval(3, 1.0)[1]
    m = category.identity_metric_morphism(t)
    report = category.check_metric_morphism(m.source, m.target, m.hom)
    assert report.passed


def test_identity_sf_morphism_passes():
    t = fs.lattice_interval(3, 1.0)[1]
    m = category.identity_sf_morphism(t, real=True, even=True, isometric=True)
    report = category.check_sf_morphism(m.source, m.target, m)
    assert report.passed


def test_sf_morphism_rejects_wrong_phi(rng):
    t = fs.lattice_interval(3, 1.0)[1]
    m = category.identity_sf_morphism(t)
    z = rng.standard_normal((t.rep_dim, t.rep_dim))
    q, _ = np.linalg.qr(z)
    skew = category.SfMorphism(t, t, m.hom, q,
                               real=False, even=False, isometric=False)
    report = category.check_sf_morphism(t, t, skew)
    assert not report.passed


def test_sf_morphism_nonisometric_scaling_allowed():
    t = fs.lattice_interval(3, 1.0)[1]
    m = category.identity_sf_morphism(t)
    scaled = category.SfMorphism(t, t, m.hom, np.eye(t.rep_dim) * 1.1,
                                 real=False, even=False, isometric=False)
    assert category.check_sf_morphism(t, t, scaled).passed
    claimed = category.SfMorphism(t, t, m.hom, np.eye(t.rep_dim) * 1.1,
                                  real=False, even=False, isometric=True)
    assert not category.check_sf_morphism(t, t, claimed).passed


def test_restriction_morphism_requires_component_union():
    _, _, g = split_geometry()
    t = graph_triple(g)
    with pytest.raises(NotOntoComponents):
        category.restriction_morphism(t, [0])  # half of the first interval


def test_restriction_morphism_full_checks():
    _, _, g = split_geometry()
    t = graph_triple(g)
    sub, m = category.restriction_morphism(t, [0, 1])
    assert m.real and m.even and m.isometric
    assert category.check_sf_morphism(t, sub, m).passed
    assert category.check_metric_morphism(t, sub, m.hom).passed
    assert fs.validate_triple(sub).passed


def test_restriction_contraction():
    _, _, g = split_geometry()
    t = graph_triple(g)
    sub, m = category.restriction_morphism(t, [2, 3, 4])
    report = category.check_pullback_contraction(t, sub, m, seed=3)
    assert report.passed
    assert report.max_violation <= 1e-6


def test_crv_pullback_requires_isometry():
    g1 = fs.lattice_interval(2, 1.0)[0]
    g2 = fs.lattice_interval(2, 2.0)[0]
    g = disjoint_union(g1, g2)
    f = GeometryMap(g1, g, (2, 3))  # lands on the stretched copy
    with pytest.raises(NotIsometric):
        category.crv_pullback(f)


def test_crv_pullback_requires_component_image():
    g1 = fs.lattice_interval(2, 1.0)[0]
    g2 = fs.lattice_interval(3, 2.0)[0]
    g = disjoint_union(g1, g2)
    f = GeometryMap(g1, g, (2, 3))  # proper subset of the second component
    with pytest.raises(NotOntoComponents):
        category.crv_pullback(f)


def test_crv_pullback_valid_metric_morphism():
    g1, _, g = split_geometry()
    f = GeometryMap(g1, g, (0, 1))
    m = category.crv_pullback(f)
    report = category.check_metric_morphism(m.source, m.target, m.hom)
    assert report.passed


def test_crv_pullback_contravariant_functoriality():
    """Cg(g o f) = Cg(f) o Cg(g), fieldwise."""
    a = fs.lattice_interval(2, 1.0)[0]
    b = disjoint_union(a, fs.lattice_interval(3, 2.0)[0])
    c = disjoint_union(b, fs.lattice_circle(3, 1.0)[0])
    f = GeometryMap(a, b, (0, 1))
    g = GeometryMap(b, c, tuple(range(b.k)))
    gf = GeometryMap(a, c, tuple(g.vertex_map[v] for v in f.vertex_map))
    direct = category.crv_pullback(gf)
    composed = category.compose(category.crv_pullback(g),
                                category.crv_pullback(f))
    assert direct.hom.character_map == composed.hom.character_map
    assert np.allclose(direct.source.dirac, composed.source.dirac)
    assert np.allclose(direct.target.dirac, composed.target.dirac)


def test_compose_rejects_kind_mismatch():
    t = fs.lattice_interval(3, 1.0)[1]
    m1 = category.identity_metric_morphism(t)
    m2 = category.identity_sf_morphism(t)
    with pytest.raises(KindMismatch):
        category.compose(m1, m2)


def test_compose_rejects_endpoint_mismatch():
    t1 = fs.lattice_interval(3, 1.0)[1]
    t2 = fs.lattice_interval(4, 1.0)[1]
    with pytest.raises(EndpointMismatch):
        category.compose(category.identity_metric_morphism(t1),
                         category.identity_metric_morphism(t2))


def test_compose_sf_multiplies_phi():
    _, _, g = split_geometry()
    t = graph_triple(g)
    sub, m = category.restriction_morphism(t, [0, 1])
    sub2, m2 = category.restriction_morphism(sub, [0, 1])
    comp = category.compose(m, m2)
    assert np.allclose(comp.phi, m2.phi @ m.phi)
    assert comp.real and comp.even and comp.isometric
    report = category.check_sf_morphism(t, sub2, comp)
    assert report.passed


def test_metric_morphism_rejects_non_epimorphism():
    t = fs.lattice_interval(3, 1.0)[1]
    collapse = AlgebraHom(t.algebra, t.algebra, (0, 0, 1))
    report = category.check_metric_morphism(t, t, collapse)
    assert not report.passed


def test_morphism_json_roundtrip():
    _, _, g = split_geometry()
    t = graph_triple(g)
    sub, m = category.restriction_morphism(t, [0, 1])
    doc = category.morphism_to_json(m)
    assert doc["kind"] == "sf"
    back = category.morphism_from_json(t, sub, doc)
    assert np.allclose(back.phi, m.phi)
    assert back.hom.character_map == m.hom.character_map
    assert (back.real, back.even, back.isometric) == (True, True, True)


def test_reports_share_one_class():
    assert fs.MorphismReport is fs.ValidationReport
    t = fs.lattice_interval(3, 1.0)[1]
    m = category.identity_sf_morphism(t, real=True, even=True, isometric=True)
    report = category.check_sf_morphism(t, t, m)
    assert isinstance(report, fs.ValidationReport)
    assert report["coisometry"].passed
    doc = report.to_json()
    assert list(doc) == ["pass", "checks"]
    assert doc["checks"][0] == {"name": "algebra_intertwining", "pass": True,
                                "residual": report.checks[0].residual}
