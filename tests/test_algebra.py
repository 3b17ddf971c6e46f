import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspec import algebra
from finspec.errors import AlgebraMismatch, EmptyFiber


def diag_algebra(assignment, k):
    """Build C^k acting diagonally; assignment maps direction -> character."""
    fibers = [[d for d, c in enumerate(assignment) if c == i] for i in range(k)]
    return algebra.function_algebra(k, len(assignment), fibers)


def test_function_algebra_projections():
    a = diag_algebra([0, 0, 1, 2], 3)
    assert a.k == 3
    assert a.rep_dim == 4
    assert a.is_valid()
    total = sum(a.projections)
    assert np.allclose(total, np.eye(4))


def test_character_basis_resolves_the_projections(rng):
    a = diag_algebra([0, 2, 1, 0, 2], 3)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w, _ = np.linalg.qr(z)
    a = algebra.FiniteCommutativeAlgebra(
        tuple(w @ p @ w.conj().T for p in a.projections), a.labels)
    v, owner = a.character_basis
    assert a.character_basis[0] is v
    assert not v.flags.writeable and not owner.flags.writeable
    assert list(owner) == [0, 0, 1, 2, 2]
    assert np.allclose(v.conj().T @ v, np.eye(5))
    for i, p in enumerate(a.projections):
        assert np.allclose(p @ v, v * (owner == i))


def _overlapping(ps):
    return (ps[0] + ps[1],) + ps[1:]


def _incomplete(ps):
    return (np.zeros_like(ps[0]),) + ps[1:]


def _not_selfadjoint(ps):
    p = ps[0].copy()
    p[0, 1] = 0.5
    return (p,) + ps[1:]


@pytest.mark.parametrize("corrupt", [_overlapping, _incomplete, _not_selfadjoint])
def test_character_basis_rejects_invalid_families(corrupt):
    a = diag_algebra([0, 1, 1, 2], 3)
    bad = algebra.FiniteCommutativeAlgebra(corrupt(a.projections), a.labels)
    assert not bad.is_valid()
    with pytest.raises(AlgebraMismatch):
        bad.character_basis


def test_function_algebra_empty_fiber():
    with pytest.raises(EmptyFiber):
        diag_algebra([0, 0, 2], 3)


def test_represent_and_element_product():
    a = diag_algebra([0, 1, 1], 2)
    x = a.element([2.0, -1.0])
    y = a.element([0.5, 3.0])
    assert np.allclose((x * y).values, [1.0, -3.0])
    assert np.allclose(x.represent(), np.diag([2.0, -1.0, -1.0]))


def test_state_normalization_and_purity():
    a = diag_algebra([0, 1], 2)
    w = algebra.State(a, (0.25, 0.75))
    assert not w.is_pure
    assert a.pure_state(1).is_pure
    x = a.element([1.0, 3.0])
    assert w(x) == pytest.approx(2.5)
    with pytest.raises(Exception):
        algebra.State(a, (0.5, 0.6))
    for i in (-1, 2):
        with pytest.raises(AlgebraMismatch):
            a.pure_state(i)
        with pytest.raises(AlgebraMismatch):
            a.basis_element(i)


def test_gelfand_spectrum_recovers_assignment(rng):
    assignment = [0, 1, 0, 2, 1]
    a = diag_algebra(assignment, 3)
    values = rng.standard_normal(3)
    gen = a.represent(values)
    b = algebra.gelfand_spectrum([gen, np.eye(5)])
    assert b.k == 3
    # the recovered projections partition the space identically, up to order
    got = sorted(tuple(np.flatnonzero(np.real(np.diag(p)) > 0.5)) for p in b.projections)
    want = sorted(
        tuple(i for i, c in enumerate(assignment) if c == j) for j in range(3)
    )
    assert got == want


def test_hom_apply_and_composition():
    a = diag_algebra([0, 1], 2)          # two characters
    b = diag_algebra([0, 1, 2], 3)       # three characters
    # phi: a -> b dually given by b-characters -> a-characters
    phi = algebra.AlgebraHom(a, b, (0, 0, 1))
    x = a.element([5.0, 7.0])
    assert np.allclose(phi.apply(x).values, [5.0, 5.0, 7.0])
    psi = algebra.AlgebraHom(b, b, (2, 1, 0))
    comp = algebra.compose_homs(phi, psi)
    assert comp.character_map == (1, 0, 0)
    assert np.allclose(comp.apply(x).values, psi.apply(phi.apply(x)).values)


def test_epimorphism_detection():
    a = diag_algebra([0, 1], 2)
    b = diag_algebra([0, 1, 2], 3)
    onto = algebra.AlgebraHom(b, a, (0, 2))
    assert algebra.check_epimorphism(onto)
    diagonal = algebra.AlgebraHom(a, a, (1, 1))
    assert not algebra.check_epimorphism(diagonal)


def test_pullback_state_mass_transport():
    a = diag_algebra([0, 1], 2)
    b = diag_algebra([0, 1, 2], 3)
    phi = algebra.AlgebraHom(a, b, (0, 0, 1))
    w = algebra.State(b, (0.2, 0.3, 0.5))
    back = algebra.pullback_state(phi, w)
    assert np.allclose(back.weights, [0.5, 0.5])
    x = a.element([1.0, -2.0])
    assert back(x) == pytest.approx(w(phi.apply(x)))


def test_identity_hom_neutral():
    a = diag_algebra([0, 1, 2], 3)
    e = algebra.identity_hom(a)
    x = a.element([1.0, 2.0, 3.0])
    assert np.allclose(e.apply(x).values, x.values)


def test_hom_json_roundtrip():
    a = diag_algebra([0, 1], 2)
    b = diag_algebra([0, 1, 2], 3)
    phi = algebra.AlgebraHom(a, b, (0, 0, 1))
    doc = algebra.hom_to_json(phi)
    assert doc["character_map"] == [1, 1, 2]
    back = algebra.hom_from_json(a, b, doc)
    assert back.character_map == phi.character_map


def test_algebra_json_roundtrip():
    a = diag_algebra([0, 1, 1, 2], 3)
    doc = algebra.algebra_to_json(a)
    back = algebra.algebra_from_json(doc)
    assert algebra.same_algebra(a, back)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=8)
       .filter(lambda xs: set(xs) == {0, 1, 2}),
       st.integers(min_value=0, max_value=2**30))
def test_pullback_functoriality(assignment, seed):
    """(psi . phi)* omega == phi* (psi* omega) on random states."""
    rng = np.random.default_rng(seed)
    b = diag_algebra(assignment, 3)
    a = diag_algebra([0, 1], 2)
    phi = algebra.AlgebraHom(a, b, tuple(int(c > 0) for c in range(3)))
    psi = algebra.AlgebraHom(b, b, (2, 0, 1))
    w = algebra.State(b, tuple(rng.dirichlet(np.ones(3))))
    comp = algebra.compose_homs(phi, psi)
    lhs = algebra.pullback_state(comp, w)
    rhs = algebra.pullback_state(phi, algebra.pullback_state(psi, w))
    assert np.allclose(lhs.weights, rhs.weights, atol=1e-12)
