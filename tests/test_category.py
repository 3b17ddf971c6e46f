import numpy as np
import pytest

import finspec as fs
from finspec import category, numerics
from finspec.algebra import AlgebraHom
from finspec.errors import (EndpointMismatch, KindMismatch, NotIsometric,
                            NotOntoComponents)
from finspec.geometry import GeometryMap, disjoint_union, graph_triple
from finspec.numerics import operator_norm
from finspec.triple import SpectralTriple

from conftest import (builtin_gallery, haar_unitary, identity_witness,
                      random_disconnected_geometry, reassembly_witness,
                      scrambled_sum)


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
    with pytest.raises(NotOntoComponents):
        category.restriction_morphism(t, [])


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


def reference_unitary_equivalence(t1, t2, witness, tol=1e-8):
    """The unitary-equivalence check as a separate copy of every
    intertwining relation, kept as the reference for the sf-morphism form."""
    phi, big_phi = witness
    big_phi = numerics.as_matrix(big_phi)
    if big_phi.shape != (t2.rep_dim, t1.rep_dim):
        return False
    if t1.rep_dim != t2.rep_dim or not numerics.is_unitary(big_phi, tol):
        return False
    if phi.source.k != t1.algebra.k or phi.target.k != t2.algebra.k:
        return False
    if len(set(phi.character_map)) != phi.source.k or phi.source.k != phi.target.k:
        return False

    for i in range(t1.algebra.k):
        x = t1.algebra.basis_element(i)
        lhs = phi.apply(x).represent() @ big_phi
        rhs = big_phi @ x.represent()
        if operator_norm(lhs - rhs) > tol:
            return False

    scale = max(1.0, operator_norm(t1.dirac))
    if operator_norm(big_phi @ t1.dirac - t2.dirac @ big_phi) > tol * scale:
        return False

    if (t1.grading is None) != (t2.grading is None):
        return False
    if t1.grading is not None:
        if operator_norm(big_phi @ t1.grading - t2.grading @ big_phi) > tol:
            return False

    if (t1.real_structure is None) != (t2.real_structure is None):
        return False
    if t1.real_structure is not None:
        u1 = t1.real_structure.unitary_part
        u2 = t2.real_structure.unitary_part
        if operator_norm(big_phi @ u1 - u2 @ np.conj(big_phi)) > tol:
            return False
    return True


def _equivalence_cases():
    """(label, t1, t2, witness): the witnesses of acceptance criteria 5 and
    8, conjugated KO triples, and broken variants of an interval witness."""
    cases = []
    rng = np.random.default_rng(55)  # criterion 5
    gallery = builtin_gallery()
    for trial in range(20):
        _, _, t = gallery[trial % len(gallery)]
        w = haar_unitary(rng, t.rep_dim)
        t2 = fs.conjugate_triple(t, w)
        cases.append((f"c5_{trial}", t, t2, identity_witness(t, t2, w)))
    rng = np.random.default_rng(88)  # criterion 8
    pool = [t for _, _, t in builtin_gallery() if t.parity == "even"]
    for trial in range(20):
        picks = [pool[int(i)] for i in rng.integers(0, len(pool),
                                                    size=int(rng.integers(2, 4)))]
        scrambled, _ = scrambled_sum(rng, picks)
        total, _, _, witness = reassembly_witness(scrambled)
        cases.append((f"c8_{trial}", total, scrambled, witness))
    rng = np.random.default_rng(5)
    for n in range(8):
        t = fs.standard_ko_triple(n)
        w = haar_unitary(rng, t.rep_dim)
        t2 = fs.conjugate_triple(t, w)
        cases.append((f"ko_{n}", t, t2, identity_witness(t, t2, w)))

    t = fs.lattice_interval(3, 1.5)[1]
    w = haar_unitary(rng, t.rep_dim)
    t2 = fs.conjugate_triple(t, w)
    hom, _ = identity_witness(t, t2, w)
    back, _ = identity_witness(t2, t, w.conj().T)
    odd = SpectralTriple(t2.algebra, t2.dirac, None, t2.real_structure, "odd")
    no_j = SpectralTriple(t2.algebra, t2.dirac, t2.grading, None, "even")
    flipped = SpectralTriple(t2.algebra, t2.dirac, -t2.grading,
                             t2.real_structure, "even")
    collapse = AlgebraHom(t.algebra, t2.algebra, (0, 0, 1))
    n = t.rep_dim
    cases += [
        ("interval", t, t2, (hom, w)),
        ("scaled", t, t2, (hom, w * (1 + 1e-7))),
        ("wrong_phi", t, t2, (hom, np.eye(n))),
        ("grading_one_side", t, odd, (hom, w)),
        ("grading_other_side", odd, t, (back, w.conj().T)),
        ("j_one_side", t, no_j, (hom, w)),
        ("j_other_side", no_j, t, (back, w.conj().T)),
        ("wrong_grading", t, flipped, (hom, w)),
        ("not_bijective", t, t2, (collapse, w)),
        ("wrong_shape", t, t2, (hom, np.eye(n + 1))),
    ]
    return cases


def test_unitary_equivalence_agrees_with_reference():
    verdicts = {}
    for label, t1, t2, witness in _equivalence_cases():
        expected = reference_unitary_equivalence(t1, t2, witness)
        assert category.check_unitary_equivalence(t1, t2, witness) == expected, label
        verdicts[label] = expected
    assert all(verdicts[f"c5_{i}"] and verdicts[f"c8_{i}"] for i in range(20))
    assert all(verdicts[f"ko_{n}"] for n in range(8)) and verdicts["interval"]
    assert not any(verdicts[label] for label in (
        "scaled", "wrong_phi", "grading_one_side", "grading_other_side",
        "j_one_side", "j_other_side", "wrong_grading", "not_bijective",
        "wrong_shape"))


def test_unitary_equivalence_rejects_a_rectangular_phi():
    """The reference raises ValueError on a non-square Phi; it is no
    equivalence."""
    t = fs.lattice_interval(3, 1.5)[1]
    hom, _ = identity_witness(t, t, np.eye(t.rep_dim))
    assert not fs.check_unitary_equivalence(t, t, (hom, np.eye(t.rep_dim)[:-1]))
