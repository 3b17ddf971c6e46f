import numpy as np
import pytest

import finspec as fs
from finspec import numerics, triple as triple_mod
from finspec.algebra import AlgebraHom, function_algebra
from finspec.errors import (AlgebraMismatch, DegreeZero, NoRealStructure,
                            ParityMismatch)
from finspec.geometry import disjoint_union, graph_triple
from finspec.triple import (HochschildChain, check_orientability,
                            hochschild_boundary, represent_chain)

from conftest import (builtin_gallery, haar_unitary, identity_witness,
                      random_disconnected_geometry, random_graph_triple,
                      scrambled_sum)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def two_point(length=1.0):
    return fs.two_point_geometry(length)[1]


def test_validate_two_point_passes():
    report = fs.validate_triple(two_point())
    assert report.passed
    for name in ("dirac_selfadjoint", "representation_projections",
                 "grading_involutive", "grading_anticommutes_D"):
        assert report[name].passed


def test_validate_rejects_bad_grading():
    t = two_point()
    bad = triple_mod.SpectralTriple(t.algebra, t.dirac, np.eye(2),
                                    t.real_structure, "even")
    report = fs.validate_triple(bad)
    assert not report.passed
    assert not report["grading_anticommutes_D"].passed


def test_validate_rejects_nonhermitian_dirac():
    t = two_point()
    d = t.dirac.copy()
    d[0, 1] = 2.0
    bad = triple_mod.SpectralTriple(t.algebra, d, t.grading,
                                    t.real_structure, "even")
    report = fs.validate_triple(bad)
    assert not report.passed
    assert not report["dirac_selfadjoint"].passed


def test_real_structure_requires_j():
    t = two_point()
    stripped = triple_mod.SpectralTriple(t.algebra, t.dirac, t.grading,
                                         None, "even")
    with pytest.raises(NoRealStructure):
        fs.check_real_structure(stripped)


def test_two_point_first_order_fails_honestly():
    """The diagonal two-point representation admits no first-order real
    structure; the check must say so rather than pass vacuously."""
    report = fs.check_real_structure(two_point())
    assert not report["first_order_condition"].passed
    assert report["commutant_condition"].passed
    assert report.signs == (1, "commute", "commute")


def test_ko_dimension_columns():
    assert fs.ko_dimension((1, "commute", "commute")) == {0}
    assert fs.ko_dimension((1, "anticommute", None)) == {1}
    assert fs.ko_dimension((-1, "commute", "anticommute")) == {2}
    assert fs.ko_dimension((-1, "commute", None)) == {3}
    assert fs.ko_dimension((-1, "commute", "commute")) == {4}
    assert fs.ko_dimension((-1, "anticommute", None)) == {5}
    assert fs.ko_dimension((1, "commute", "anticommute")) == {6}
    assert fs.ko_dimension((1, "commute", None)) == {7}
    assert fs.ko_dimension((1, "anticommute", "commute")) == set()


def test_standard_ko_triples_pass_everything():
    for n in range(8):
        t = triple_mod.standard_ko_triple(n)
        assert fs.validate_triple(t).passed
        report = fs.check_real_structure(t)
        assert report.passed, f"n={n}: {report.signs}"
        assert fs.ko_dimension(report.signs) == {n}


def test_omega_basis_two_point():
    t = two_point()
    deg0 = fs.omega_basis(t, 0)
    assert len(deg0) == 2
    deg1 = fs.omega_basis(t, 1)
    assert len(deg1) == 4  # the 2x2 matrix algebra is exhausted at degree 1


def test_hochschild_boundary_hand_expansion():
    """b(a0 (x) a1) = a0 a1 - a1 a0 = 0 in a commutative algebra, checked
    against the explicit formula on a two-term chain."""
    a = two_point().algebra
    x = a.element([1.0, 2.0])
    y = a.element([3.0, -1.0])
    c = HochschildChain(1, ((x, y),))
    b = hochschild_boundary(c)
    assert b.degree == 0
    assert b.norm() <= 1e-12


def test_hochschild_boundary_degree_two():
    a = two_point().algebra
    x = a.element([1.0, 0.0])
    y = a.element([0.0, 1.0])
    z = a.element([2.0, 5.0])
    c = HochschildChain(2, ((x, y, z),))
    b = hochschild_boundary(c)
    # b(x(x)y(x)z) = xy (x) z - x (x) yz + zx (x) y, componentwise products
    expect = (
        np.einsum("i,j->ij", (x * y).values, z.values)
        - np.einsum("i,j->ij", x.values, (y * z).values)
        + np.einsum("i,j->ij", (z * x).values, y.values)
    )
    assert np.allclose(b.tensor(), expect, atol=1e-12)


def test_hochschild_boundary_squares_to_zero(rng):
    a = fs.lattice_interval(3, 1.0)[1].algebra
    for _ in range(10):
        terms = []
        for _ in range(3):
            terms.append(tuple(a.element(rng.standard_normal(a.k))
                               for _ in range(4)))
        c = HochschildChain(3, tuple(terms))
        bb = hochschild_boundary(hochschild_boundary(c))
        assert bb.norm() <= 1e-10


def test_hochschild_boundary_degree_zero_raises():
    a = two_point().algebra
    c = HochschildChain(0, ((a.element([1.0, -1.0]),),))
    with pytest.raises(DegreeZero):
        hochschild_boundary(c)


def test_orientability_two_point_cycle():
    t = two_point()
    a = t.algebra
    good = HochschildChain(0, ((a.element([1.0, -1.0]),),))
    report = check_orientability(t, good, 0)
    assert report.passed
    perturbed = HochschildChain(0, ((a.element([1.0, -0.9]),),))
    report = check_orientability(t, perturbed, 0)
    assert not report.matches_grading
    assert not report.passed


def test_represent_chain_matches_products():
    t = two_point()
    a = t.algebra
    x = a.element([1.0, -1.0])
    y = a.element([0.5, 2.0])
    c = HochschildChain(1, ((x, y),))
    m = represent_chain(t, c)
    expect = x.represent() @ (t.dirac @ y.represent() - y.represent() @ t.dirac)
    assert np.allclose(m, expect, atol=1e-12)


def test_direct_sum_and_decompose():
    t1 = two_point(1.0)
    t2 = two_point(2.0)
    s = fs.direct_sum(t1, t2)
    assert s.algebra.k == 4
    assert fs.validate_triple(s).passed
    parts = fs.decompose(s)
    assert len(parts) == 2
    assert all(p.algebra.k == 2 for p in parts)


@pytest.mark.parametrize("part", ["dirac", "grading", "real"])
def test_triple_rejects_operators_of_the_wrong_size(part):
    t = two_point()
    ops = {"dirac": t.dirac, "grading": t.grading,
           "real": t.real_structure.unitary_part}
    ops[part] = np.eye(3, dtype=complex)
    with pytest.raises(AlgebraMismatch, match="does not act on the rep space"):
        fs.SpectralTriple(t.algebra, ops["dirac"], ops["grading"],
                          triple_mod.AntiunitaryOperator(ops["real"]), "even")


def test_direct_sum_parity_mismatch():
    t_even = two_point()
    t_odd = fs.lattice_circle(3, 1.0)[1]
    with pytest.raises(ParityMismatch):
        fs.direct_sum(t_even, t_odd)


def test_conjugation_equivalence(rng):
    t = fs.lattice_interval(3, 1.5)[1]
    w = haar_unitary(rng, t.rep_dim)
    t2 = fs.conjugate_triple(t, w)
    assert fs.validate_triple(t2).passed
    assert fs.check_unitary_equivalence(t, t2, identity_witness(t, t2, w))


def test_equivalence_rejects_wrong_witness(rng):
    t = two_point()
    t2 = fs.conjugate_triple(t, haar_unitary(rng, 2))
    bad = identity_witness(t, t2, np.eye(2))
    assert not fs.check_unitary_equivalence(t, t2, bad)


def test_equivalence_distinguishes_scales():
    t1 = two_point(1.0)
    t2 = two_point(2.0)
    assert not fs.check_unitary_equivalence(t1, t2, identity_witness(t1, t2, np.eye(2)))


def test_triple_json_roundtrip():
    t = fs.lattice_interval(3, 1.0)[1]
    doc = triple_mod.triple_to_json(t)
    back = triple_mod.triple_from_json(doc)
    assert np.allclose(back.dirac, t.dirac)
    assert back.parity == t.parity
    assert fs.check_unitary_equivalence(
        t, back, identity_witness(t, back, np.eye(t.rep_dim))
    )


def pairwise_coupling_components(t, tol=triple_mod.ALGEBRAIC_TOL):
    """Reference: one spectral norm per character pair and operator, then a
    depth-first search over the coupling graph."""
    k = t.algebra.k
    ops = [t.dirac]
    if t.grading is not None:
        ops.append(t.grading)
    scale = [max(1.0, numerics.operator_norm(op)) for op in ops]

    adj = [[False] * k for _ in range(k)]
    proj = t.algebra.projections
    for i in range(k):
        for j in range(i + 1, k):
            coupled = any(
                numerics.operator_norm(proj[i] @ op @ proj[j]) > tol * s
                for op, s in zip(ops, scale)
            )
            if not coupled and t.real_structure is not None:
                u = t.real_structure.unitary_part
                coupled = numerics.operator_norm(proj[i] @ u @ np.conj(proj[j])) > tol
            adj[i][j] = adj[j][i] = coupled

    seen = [False] * k
    components = []
    for start in range(k):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(k):
                if adj[v][w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(comp))
    return components


def _coupled_by_one_operator():
    """Two characters on C^2 joined by J alone, then by the grading alone."""
    a = function_algebra(2, 2, [[0], [1]])
    zero = np.zeros((2, 2))
    by_j = triple_mod.SpectralTriple(a, zero, None,
                                     triple_mod.AntiunitaryOperator(SX), "odd")
    by_grading = triple_mod.SpectralTriple(a, zero, SX, None, "even")
    return [by_j, by_grading]


def sum_of_fifteen():
    """Five disjoint circles and intervals, 15 characters in all."""
    parts = [fs.lattice_circle(3, 1.0)[0], fs.lattice_circle(4, 1.5)[0],
             fs.lattice_interval(3, 2.0)[0], fs.lattice_interval(2, 0.5)[0],
             fs.lattice_circle(3, 0.7)[0]]
    g = parts[0]
    for part in parts[1:]:
        g = disjoint_union(g, part)
    return graph_triple(g)


def test_coupling_components_match_pairwise_reference(rng):
    gallery = [t for _, _, t in builtin_gallery()]
    cases = gallery + _coupled_by_one_operator() + [sum_of_fifteen()]
    cases += [triple_mod.standard_ko_triple(n) for n in range(8)]
    for _ in range(10):
        cases.append(random_graph_triple(rng, int(rng.integers(2, 7)),
                                         int(rng.integers(0, 3)))[1])
        cases.append(graph_triple(random_disconnected_geometry(
            rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))))
    pools = [[t for t in gallery if t.parity == parity]
             for parity in ("even", "odd")]
    for trial in range(20):
        pool = pools[trial % 2]
        picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=3)]
        scrambled, _ = scrambled_sum(rng, picks)
        cases.append(scrambled)
        cases.append(fs.conjugate_triple(
            scrambled, haar_unitary(rng, scrambled.rep_dim)))
    for t in cases:
        assert triple_mod.coupling_components(t) == pairwise_coupling_components(t)


def test_coupling_components_take_few_operator_norms(monkeypatch):
    calls = []
    original = numerics.operator_norm

    def counting(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(numerics, "operator_norm", counting)
    monkeypatch.setattr(triple_mod, "operator_norm", counting)
    t = sum_of_fifteen()
    assert len(triple_mod.coupling_components(t)) == 5
    assert len(calls) <= 2
