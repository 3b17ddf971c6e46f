"""Finite-dimensional commutative algebras C^k presented by their characters.

An algebra is stored as k orthogonal projections (the spectral projections of
the represented algebra) summing to the identity of the representation space.
Pure states are the characters; homomorphisms are stored dually as maps of
characters, which makes pullbacks and composition exact combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import AlgebraMismatch, EmptyFiber


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteCommutativeAlgebra:
    """Functions on k points, faithfully represented by commuting projections."""

    projections: tuple
    labels: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "projections",
            tuple(_readonly(numerics.as_matrix(p)) for p in self.projections),
        )
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) != len(self.projections):
            raise ValueError("one label per character required")
        if not self.projections:
            raise ValueError("need at least one character")

    @property
    def k(self) -> int:
        return len(self.projections)

    @property
    def rep_dim(self) -> int:
        return self.projections[0].shape[0]

    def represent(self, values) -> np.ndarray:
        """pi(x) = sum_i x_i P_i for a function x given by its k values."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.k,):
            raise AlgebraMismatch(f"expected {self.k} values, got {values.shape}")
        out = np.zeros((self.rep_dim, self.rep_dim), dtype=complex)
        for x, p in zip(values, self.projections):
            out += x * p
        return out

    def element(self, values) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(values, dtype=complex))

    def unit(self) -> "AlgebraElement":
        return self.element(np.ones(self.k))

    def _indicator(self, i: int) -> np.ndarray:
        """The function equal to 1 on character i and 0 elsewhere."""
        if not 0 <= i < self.k:
            raise AlgebraMismatch(f"character index {i} outside 0..{self.k - 1}")
        e = np.zeros(self.k)
        e[i] = 1.0
        return e

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element(self._indicator(i))

    def pure_state(self, i: int) -> "State":
        return State(self, self._indicator(i))

    def projection_residuals(self):
        """Residuals of the projection-family axioms, as (name, value) pairs."""
        out = []
        total = np.zeros((self.rep_dim, self.rep_dim), dtype=complex)
        for i, p in enumerate(self.projections):
            out.append((f"idempotent_{i}", numerics.operator_norm(p @ p - p)))
            out.append((f"selfadjoint_{i}", numerics.operator_norm(p - p.conj().T)))
            total += p
            for j in range(i + 1, self.k):
                out.append(
                    (f"orthogonal_{i}_{j}",
                     numerics.operator_norm(p @ self.projections[j]))
                )
        out.append(("unital", numerics.operator_norm(total - np.eye(self.rep_dim))))
        return out

    def is_valid(self, tol: float = numerics.ATOL) -> bool:
        return all(r <= tol for _, r in self.projection_residuals())

    @cached_property
    def character_basis(self):
        """(V, owner): a read-only unitary V whose column c lies in the
        range of P_owner[c], owner ascending, from one eigendecomposition of
        sum_i (i + 1) P_i.

        Raises AlgebraMismatch unless every P_i V equals V masked to
        owner == i (to numerics.ATOL in Frobenius norm, checked as
        P_i = V_i V_i* for the columns V_i owned by i; V_i V_i* is Hermitian,
        so this also covers the triangle of the sum that eigh does not read).
        """
        weighted = sum((i + 1) * p for i, p in enumerate(self.projections))
        w, v = np.linalg.eigh(weighted)
        owner = np.rint(w).astype(int) - 1
        valid = owner.min() >= 0 and owner.max() < self.k and all(
            np.linalg.norm(p - v[:, owner == i] @ v[:, owner == i].conj().T)
            <= numerics.ATOL
            for i, p in enumerate(self.projections)
        )
        if not valid:
            raise AlgebraMismatch(
                "the projections are not an orthogonal resolution of the identity"
            )
        return _readonly(v), _readonly(owner)


def same_algebra(a: FiniteCommutativeAlgebra, b: FiniteCommutativeAlgebra,
                 tol: float = numerics.ATOL) -> bool:
    if a is b:
        return True
    if a.k != b.k or a.rep_dim != b.rep_dim:
        return False
    return all(
        numerics.operator_norm(p - q) <= tol
        for p, q in zip(a.projections, b.projections)
    )


@dataclass(frozen=True)
class AlgebraElement:
    algebra: FiniteCommutativeAlgebra
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.algebra.k,):
            raise AlgebraMismatch("value vector does not match the algebra")
        object.__setattr__(self, "values", _readonly(v))

    def represent(self) -> np.ndarray:
        return self.algebra.represent(self.values)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not same_algebra(self.algebra, other.algebra):
            raise AlgebraMismatch("elements of different algebras")
        return AlgebraElement(self.algebra, self.values * other.values)


@dataclass(frozen=True)
class State:
    """Probability weights over the characters; pure states are vertices."""

    algebra: FiniteCommutativeAlgebra
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.algebra.k,):
            raise AlgebraMismatch("weight vector does not match the algebra")
        if w.min() < -numerics.WEIGHT_TOL or abs(w.sum() - 1.0) > numerics.WEIGHT_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def is_pure(self) -> bool:
        return bool(np.max(self.weights) >= 1.0 - numerics.WEIGHT_TOL)

    def __call__(self, x: AlgebraElement) -> complex:
        return complex(np.dot(self.weights, x.values))


@dataclass(frozen=True)
class AlgebraHom:
    """Unital *-homomorphism phi: source -> target, stored dually.

    character_map[j] = m(j) is the source character underlying the j-th
    target character, so phi(x)_j = x_{m(j)}.
    """

    source: FiniteCommutativeAlgebra
    target: FiniteCommutativeAlgebra
    character_map: tuple

    def __post_init__(self):
        cm = tuple(int(i) for i in self.character_map)
        if len(cm) != self.target.k:
            raise AlgebraMismatch("character map must index every target character")
        if any(i < 0 or i >= self.source.k for i in cm):
            raise AlgebraMismatch("character map index out of range")
        object.__setattr__(self, "character_map", cm)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if not same_algebra(x.algebra, self.source):
            raise AlgebraMismatch("element does not live in the source algebra")
        return AlgebraElement(self.target, x.values[list(self.character_map)])


def identity_hom(a: FiniteCommutativeAlgebra) -> AlgebraHom:
    return AlgebraHom(a, a, tuple(range(a.k)))


def compose_homs(phi: AlgebraHom, psi: AlgebraHom) -> AlgebraHom:
    """psi . phi for phi: A1 -> A2 and psi: A2 -> A3."""
    if not same_algebra(phi.target, psi.source):
        raise AlgebraMismatch("homs are not composable")
    cm = tuple(phi.character_map[j] for j in psi.character_map)
    return AlgebraHom(phi.source, psi.target, cm)


def check_epimorphism(phi: AlgebraHom) -> bool:
    """phi is surjective on function values iff its character map is injective."""
    return len(set(phi.character_map)) == phi.target.k


def pullback_state(phi: AlgebraHom, omega: State) -> State:
    """phi^bullet(omega) = omega . phi, a state on the source algebra."""
    if not same_algebra(omega.algebra, phi.target):
        raise AlgebraMismatch("state does not live on the target algebra")
    w = np.zeros(phi.source.k)
    for j, i in enumerate(phi.character_map):
        w[i] += omega.weights[j]
    return State(phi.source, w)


def function_algebra(k: int, rep_dim: int, assignment) -> FiniteCommutativeAlgebra:
    """The algebra C^k acting by coordinate projections.

    assignment maps each character index 0..k-1 to the basis directions of
    its fiber; the fibers must partition range(rep_dim) and be nonempty.
    """
    fibers = [sorted(int(d) for d in assignment[i]) for i in range(k)]
    seen = [d for f in fibers for d in f]
    if sorted(seen) != list(range(rep_dim)):
        raise ValueError("fibers must partition the basis directions")
    projections = []
    for i, fiber in enumerate(fibers):
        if not fiber:
            raise EmptyFiber(f"character {i} has no basis direction")
        p = np.zeros((rep_dim, rep_dim), dtype=complex)
        p[fiber, fiber] = 1.0
        projections.append(p)
    return FiniteCommutativeAlgebra(
        tuple(projections), tuple(f"chi{i + 1}" for i in range(k))
    )


def gelfand_spectrum(generators,
                     tol: float = numerics.MORPHISM_TOL) -> FiniteCommutativeAlgebra:
    """Algebra generated by commuting normal matrices.

    Characters are the distinct joint eigenvalue tuples; the projections are
    the corresponding joint eigenprojections.
    """
    generators = [numerics.as_matrix(g) for g in generators]
    basis, diagonals = numerics.simultaneous_diagonalize(generators, tol=tol)
    n = basis.shape[0]
    scales = [max(1.0, float(np.abs(d).max())) for d in diagonals]

    groups: list = []  # list of (representative tuple, [column indices])
    for col in range(n):
        tup = np.array([d[col] for d in diagonals])
        for rep, cols in groups:
            if all(
                abs(tup[m] - rep[m]) <= numerics.DEGENERACY_THRESHOLD * scales[m]
                for m in range(len(diagonals))
            ):
                cols.append(col)
                break
        else:
            groups.append((tup, [col]))

    projections = []
    labels = []
    for idx, (rep, cols) in enumerate(groups):
        v = basis[:, cols]
        projections.append(v @ v.conj().T)
        labels.append(f"chi{idx + 1}")
    return FiniteCommutativeAlgebra(tuple(projections), tuple(labels))


# --- JSON codecs -----------------------------------------------------------

def algebra_to_json(a: FiniteCommutativeAlgebra) -> dict:
    return {
        "k": a.k,
        "rep_dim": a.rep_dim,
        "projections": [numerics.matrix_to_json(p) for p in a.projections],
        "labels": list(a.labels),
    }


def algebra_from_json(obj) -> FiniteCommutativeAlgebra:
    projections = tuple(numerics.matrix_from_json(p) for p in obj["projections"])
    labels = tuple(obj.get("labels") or [f"chi{i + 1}" for i in range(len(projections))])
    a = FiniteCommutativeAlgebra(projections, labels)
    if "k" in obj and int(obj["k"]) != a.k:
        raise ValueError("declared k does not match the projection count")
    if "rep_dim" in obj and int(obj["rep_dim"]) != a.rep_dim:
        raise ValueError("declared rep_dim does not match the projections")
    return a


def state_to_json(s: State) -> dict:
    return {"weights": [float(w) for w in s.weights]}


def state_from_json(a: FiniteCommutativeAlgebra, obj) -> State:
    return State(a, np.asarray(obj["weights"], dtype=float))


def hom_to_json(phi: AlgebraHom) -> dict:
    # 1-based indices on the wire
    return {"character_map": [i + 1 for i in phi.character_map]}


def hom_from_json(source: FiniteCommutativeAlgebra,
                  target: FiniteCommutativeAlgebra, obj) -> AlgebraHom:
    return AlgebraHom(source, target, tuple(int(i) - 1 for i in obj["character_map"]))
