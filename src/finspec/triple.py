"""Spectral triples as matrix data.

Covers validation of the axioms (grading, real structure, first-order
condition), KO-dimension signs, the differential-form span, Hochschild
chains and orientability, direct sums and irreducible decomposition.
Unitary equivalence is checked in category.py, as an invertible sf morphism.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .algebra import (AlgebraElement, FiniteCommutativeAlgebra,
                      algebra_from_json, algebra_to_json, same_algebra)
from .errors import (AlgebraMismatch, DegreeZero, NoRealStructure,
                     NotHermitian, ParityMismatch, RealStructureMismatch)
from .numerics import anticommutator, commutator, operator_norm

ALGEBRAIC_TOL = numerics.ATOL


@dataclass(frozen=True)
class AntiunitaryOperator:
    """Antilinear operator v -> U conj(v), stored by its unitary part U."""

    unitary_part: np.ndarray

    def __post_init__(self):
        u = numerics.as_matrix(self.unitary_part)
        u.setflags(write=False)
        object.__setattr__(self, "unitary_part", u)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.unitary_part @ np.conj(v)

    def squared(self) -> np.ndarray:
        """J^2 as a linear operator: U conj(U)."""
        u = self.unitary_part
        return u @ np.conj(u)

    def conjugate(self, a: np.ndarray) -> np.ndarray:
        """J a J^{-1} for a linear operator a."""
        u = self.unitary_part
        return u @ np.conj(a) @ u.conj().T


@dataclass(frozen=True)
class SpectralTriple:
    algebra: FiniteCommutativeAlgebra
    dirac: np.ndarray
    grading: np.ndarray | None = None
    real_structure: AntiunitaryOperator | None = None
    parity: str = "odd"

    def __post_init__(self):
        d = numerics.as_matrix(self.dirac)
        d.setflags(write=False)
        object.__setattr__(self, "dirac", d)
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if self.parity == "even" and self.grading is None:
            raise ValueError("even triples carry a grading")
        if self.parity == "odd" and self.grading is not None:
            raise ValueError("odd triples carry no grading")
        if self.grading is not None:
            g = numerics.as_matrix(self.grading)
            g.setflags(write=False)
            object.__setattr__(self, "grading", g)
        j = self.real_structure
        for name, m in (("Dirac matrix", d), ("grading", self.grading),
                        ("unitary part of J", j.unitary_part if j else None)):
            if m is not None and m.shape[0] != self.algebra.rep_dim:
                raise AlgebraMismatch(f"{name} does not act on the rep space")

    @property
    def rep_dim(self) -> int:
        return self.algebra.rep_dim

    @property
    def is_even(self) -> bool:
        return self.parity == "even"

    def grading_or_identity(self) -> np.ndarray:
        """The grading, or the identity in the odd case."""
        if self.grading is not None:
            return np.asarray(self.grading)
        return np.eye(self.rep_dim, dtype=complex)

    def represent(self, values) -> np.ndarray:
        return self.algebra.represent(values)

    # The triple is frozen and its arrays are write-locked, so data derived
    # from it is computed on first use and kept for its lifetime.

    @cached_property
    def commutators(self) -> np.ndarray:
        """Read-only tensor of the commutators [D, P_i], shape (k, n, n).

        Every distance and oracle path reads it, so a Dirac operator that is
        not Hermitian (NotHermitian) and a projection family that is not an
        orthogonal resolution of the identity (AlgebraMismatch) are rejected
        here, once per triple.
        """
        d = self.dirac
        if not numerics.is_hermitian(d):
            raise NotHermitian("the Dirac operator is not Hermitian")
        self.algebra.character_basis  # raises AlgebraMismatch on a bad family
        k_mats = np.stack([d @ p - p @ d for p in self.algebra.projections])
        k_mats.setflags(write=False)
        return k_mats

    @cached_property
    def components(self) -> tuple:
        """coupling_components, as tuples."""
        return tuple(tuple(comp) for comp in coupling_components(self))

    @cached_property
    def difference_edges(self):
        """difference_edges: (u, v, w) read-only arrays, or None."""
        return difference_edges(self)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed,
                "residual": float(self.residual)}


@dataclass(frozen=True)
class CheckReport:
    """A named list of checks; it passes when every check passes.  Triple
    validation and morphism checks both report with it."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"pass": self.passed, "checks": [c.to_json() for c in self.checks]}


ValidationReport = CheckReport


def validate_triple(t: SpectralTriple, tol: float = ALGEBRAIC_TOL) -> ValidationReport:
    """Run every defining axiom of the triple and report residuals."""
    checks = []
    d = t.dirac
    checks.append(
        CheckResult("dirac_selfadjoint",
                    operator_norm(d - d.conj().T) <= tol * max(1.0, operator_norm(d)),
                    operator_norm(d - d.conj().T))
    )

    proj_resid = max(r for _, r in t.algebra.projection_residuals())
    checks.append(CheckResult("representation_projections", proj_resid <= tol,
                              proj_resid))

    # Commutators with D are always bounded at finite dimension; the residual
    # records the largest one so callers can see the Lipschitz scale.
    comm = max(
        operator_norm(commutator(d, p)) for p in t.algebra.projections
    )
    checks.append(CheckResult("bounded_commutators", True, comm))

    if t.is_even:
        g = t.grading
        eye = np.eye(t.rep_dim)
        checks.append(CheckResult("grading_involutive",
                                  operator_norm(g @ g - eye) <= tol,
                                  operator_norm(g @ g - eye)))
        checks.append(CheckResult("grading_selfadjoint",
                                  operator_norm(g - g.conj().T) <= tol,
                                  operator_norm(g - g.conj().T)))
        resid = max(operator_norm(commutator(g, p)) for p in t.algebra.projections)
        checks.append(CheckResult("grading_commutes_algebra", resid <= tol, resid))
        resid = operator_norm(anticommutator(g, d))
        checks.append(CheckResult("grading_anticommutes_D",
                                  resid <= tol * max(1.0, operator_norm(d)), resid))
    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class RealReport(CheckReport):
    j_squared_sign: int          # +1 or -1
    jd_sign: str | None          # "commute" | "anticommute" | None
    jgamma_sign: str | None      # "commute" | "anticommute" | None (odd: None)

    @property
    def signs(self):
        return (self.j_squared_sign, self.jd_sign, self.jgamma_sign)

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "signs": {
                "j_squared": self.j_squared_sign,
                "jd": self.jd_sign,
                "jgamma": self.jgamma_sign,
            },
        }


def check_real_structure(t: SpectralTriple, tol: float = ALGEBRAIC_TOL) -> RealReport:
    """Verify the commutant and first-order conditions and record the signs
    (J^2 = +-1, [J,D] commute/anticommute, [J,Gamma] likewise when even)."""
    if t.real_structure is None:
        raise NoRealStructure("triple has no real structure")
    j = t.real_structure
    u = j.unitary_part
    if not numerics.is_unitary(u, tol):
        raise NoRealStructure("unitary part of J fails unitarity")

    checks = [CheckResult("antiunitary", True,
                          operator_norm(u @ u.conj().T - np.eye(t.rep_dim)))]

    eye = np.eye(t.rep_dim)
    j2 = j.squared()
    plus_resid = operator_norm(j2 - eye)
    minus_resid = operator_norm(j2 + eye)
    if plus_resid <= tol:
        j_squared, j2_resid = 1, plus_resid
    elif minus_resid <= tol:
        j_squared, j2_resid = -1, minus_resid
    else:
        j_squared, j2_resid = 0, min(plus_resid, minus_resid)
    checks.append(CheckResult("j_squared_sign", j_squared != 0, j2_resid))

    # Commutant and first-order conditions over all pairs of basis elements.
    k = t.algebra.k
    reps = [t.algebra.basis_element(i).represent() for i in range(k)]
    opp = [j.conjugate(r.conj().T) for r in reps]  # J pi(b*) J^{-1}
    commutant = max(
        operator_norm(commutator(reps[a], opp[b]))
        for a in range(k) for b in range(k)
    )
    checks.append(CheckResult("commutant_condition", commutant <= tol, commutant))

    d_comms = [commutator(t.dirac, r) for r in reps]
    first_order = max(
        operator_norm(commutator(d_comms[a], opp[b]))
        for a in range(k) for b in range(k)
    )
    scale = max(1.0, operator_norm(t.dirac))
    checks.append(CheckResult("first_order_condition",
                              first_order <= tol * scale, first_order))

    # [J, D] sign: J D = +- D J translates to U conj(D) = +- D U.
    jd_sign, jd_resid = _commutation_sign_antilinear(u, t.dirac, tol)
    checks.append(CheckResult("jd_sign", jd_sign is not None, jd_resid))

    jgamma_sign = None
    if t.is_even:
        jgamma_sign, jg_resid = _commutation_sign_antilinear(u, t.grading, tol)
        checks.append(CheckResult("jgamma_sign", jgamma_sign is not None, jg_resid))

    return RealReport(tuple(checks), j_squared, jd_sign, jgamma_sign)


def _commutation_sign_antilinear(u: np.ndarray, x: np.ndarray, tol: float):
    """Sign of [J, x] for the antilinear J = U conj: compares U conj(x) to +- x U."""
    scale = max(1.0, operator_norm(x))
    lhs = u @ np.conj(x)
    minus = operator_norm(lhs - x @ u)
    plus = operator_norm(lhs + x @ u)
    if minus <= tol * scale:
        return "commute", minus
    if plus <= tol * scale:
        return "anticommute", plus
    return None, min(minus, plus)


# KO-dimension sign table, indexed by n mod 8.  Entries are
# (sign of J^2, [J,D] behaviour, [J,Gamma] behaviour or None for odd n).
KO_TABLE = {
    0: (1, "commute", "commute"),
    1: (1, "anticommute", None),
    2: (-1, "commute", "anticommute"),
    3: (-1, "commute", None),
    4: (-1, "commute", "commute"),
    5: (-1, "anticommute", None),
    6: (1, "commute", "anticommute"),
    7: (1, "commute", None),
}


def ko_dimension(signs) -> set:
    """All n in 0..7 whose sign column matches (j_squared, jd, jgamma).

    jgamma must be None exactly for odd candidates; an empty set means the
    signs match no KO-dimension.
    """
    j_squared, jd, jgamma = signs
    return {n for n, col in KO_TABLE.items() if col == (j_squared, jd, jgamma)}


def omega_basis(t: SpectralTriple, max_degree: int, tol: float = ALGEBRAIC_TOL):
    """Linearly independent spanning set of
    { pi(a0)[D,pi(a1)]...[D,pi(an)] : n <= max_degree } over basis elements."""
    if max_degree < 0 or max_degree > 4:
        raise ValueError("max_degree must be between 0 and 4")
    k = t.algebra.k
    reps = [t.algebra.basis_element(i).represent() for i in range(k)]
    d_comms = [commutator(t.dirac, r) for r in reps]

    basis = []          # selected matrices
    ortho = []          # orthonormalized flattened copies
    for degree in range(max_degree + 1):
        for combo in itertools.product(range(k), repeat=degree + 1):
            m = reps[combo[0]].copy()
            for i in combo[1:]:
                m = m @ d_comms[i]
            v = m.reshape(-1)
            norm = np.linalg.norm(v)
            if norm <= tol:
                continue
            w = v.copy()
            for q in ortho:
                w -= np.vdot(q, w) * q
            if np.linalg.norm(w) > tol * max(1.0, norm):
                ortho.append(w / np.linalg.norm(w))
                basis.append(m)
    return basis


@dataclass(frozen=True)
class HochschildChain:
    """Sum of elementary tensors a0 (x) ... (x) an over the triple's algebra."""

    degree: int
    terms: tuple  # tuple of (degree+1)-tuples of AlgebraElement

    def __post_init__(self):
        terms = tuple(tuple(term) for term in self.terms)
        for term in terms:
            if len(term) != self.degree + 1:
                raise ValueError("each term needs degree+1 tensor factors")
        object.__setattr__(self, "terms", terms)

    @property
    def algebra(self) -> FiniteCommutativeAlgebra:
        return self.terms[0][0].algebra

    def tensor(self) -> np.ndarray:
        """Coefficient tensor in (C^k)^{(x)(degree+1)}; the canonical linear
        coordinates of the chain, used for norms and antisymmetrization."""
        k = self.algebra.k
        out = np.zeros((k,) * (self.degree + 1), dtype=complex)
        for term in self.terms:
            acc = np.asarray(term[0].values)
            for el in term[1:]:
                acc = np.multiply.outer(acc, np.asarray(el.values))
            out += acc
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor()))


def hochschild_boundary(c: HochschildChain) -> HochschildChain:
    """Standard Hochschild boundary with cyclic last term, extended linearly."""
    if c.degree < 1:
        raise DegreeZero("boundary of a degree-0 chain is undefined")
    a = c.algebra
    out_terms = []
    for term in c.terms:
        n = c.degree
        for i in range(n):
            merged = term[i] * term[i + 1]
            sign = (-1) ** i
            new = list(term[:i]) + [merged] + list(term[i + 2:])
            if sign < 0:
                new[0] = AlgebraElement(a, -np.asarray(new[0].values))
            out_terms.append(tuple(new))
        cyc = term[n] * term[0]
        sign = (-1) ** n
        new = [cyc] + list(term[1:n])
        if sign < 0:
            new[0] = AlgebraElement(a, -np.asarray(new[0].values))
        out_terms.append(tuple(new))
    return HochschildChain(c.degree - 1, tuple(out_terms))


def represent_chain(t: SpectralTriple, c: HochschildChain) -> np.ndarray:
    """pi(c) = sum_j pi(a0)[D,pi(a1)]...[D,pi(an)]."""
    if not same_algebra(c.algebra, t.algebra):
        raise AlgebraMismatch("chain is not over the triple's algebra")
    out = np.zeros((t.rep_dim, t.rep_dim), dtype=complex)
    for term in c.terms:
        m = term[0].represent()
        for el in term[1:]:
            m = m @ commutator(t.dirac, el.represent())
        out += m
    return out


def _antisymmetrize_last(tensor: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetrization over the last n axes of a (n+1)-tensor."""
    if n <= 1:
        return tensor
    out = np.zeros_like(tensor)
    axes = list(range(1, n + 1))
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        order = [0] + [axes[p] for p in perm]
        out += sign * np.transpose(tensor, order)
    return out / math.factorial(n)


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class OrientabilityReport:
    is_cycle: bool
    cycle_residual: float
    antisymmetric_last_n: bool
    antisymmetry_residual: float
    matches_grading: bool
    grading_residual: float

    @property
    def passed(self) -> bool:
        return self.is_cycle and self.antisymmetric_last_n and self.matches_grading

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "is_cycle": self.is_cycle,
            "cycle_residual": float(self.cycle_residual),
            "antisymmetric_last_n": self.antisymmetric_last_n,
            "antisymmetry_residual": float(self.antisymmetry_residual),
            "matches_grading": self.matches_grading,
            "grading_residual": float(self.grading_residual),
        }


def check_orientability(t: SpectralTriple, c: HochschildChain,
                        n: int) -> OrientabilityReport:
    """Is c a Hochschild cycle, antisymmetric in its last n slots, with
    pi(c) equal to the grading (or the identity when odd)?"""
    if c.degree != n:
        raise ValueError("chain degree does not match the requested degree")
    if n >= 1:
        cycle_residual = hochschild_boundary(c).norm()
    else:
        cycle_residual = 0.0
    tensor = c.tensor()
    anti_residual = float(np.linalg.norm(tensor - _antisymmetrize_last(tensor, n)))
    grading_residual = operator_norm(represent_chain(t, c) - t.grading_or_identity())
    return OrientabilityReport(
        is_cycle=cycle_residual <= ALGEBRAIC_TOL,
        cycle_residual=cycle_residual,
        antisymmetric_last_n=anti_residual <= ALGEBRAIC_TOL,
        antisymmetry_residual=anti_residual,
        matches_grading=grading_residual <= numerics.MORPHISM_TOL,
        grading_residual=grading_residual,
    )


def direct_sum(t1: SpectralTriple, t2: SpectralTriple) -> SpectralTriple:
    """Block-diagonal sum; characters of t1 come first."""
    if t1.parity != t2.parity:
        raise ParityMismatch("summands have different parity")
    if (t1.real_structure is None) != (t2.real_structure is None):
        raise RealStructureMismatch("either both or neither summand carries J")
    n1, n2 = t1.rep_dim, t2.rep_dim

    def embed1(m):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[:n1, :n1] = m
        return out

    def embed2(m):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[n1:, n1:] = m
        return out

    projections = tuple(embed1(p) for p in t1.algebra.projections) + tuple(
        embed2(p) for p in t2.algebra.projections
    )
    labels = tuple(f"L.{s}" for s in t1.algebra.labels) + tuple(
        f"R.{s}" for s in t2.algebra.labels
    )
    alg = FiniteCommutativeAlgebra(projections, labels)

    dirac = embed1(t1.dirac) + embed2(t2.dirac)
    grading = None
    if t1.is_even:
        grading = embed1(t1.grading) + embed2(t2.grading)
    real = None
    if t1.real_structure is not None:
        real = AntiunitaryOperator(
            embed1(t1.real_structure.unitary_part)
            + embed2(t2.real_structure.unitary_part)
        )
    return SpectralTriple(alg, dirac, grading, real, t1.parity)


def conjugate_triple(t: SpectralTriple, w: np.ndarray) -> SpectralTriple:
    """Transport every structure along the unitary w: P -> wPw*, D -> wDw*,
    Gamma -> w Gamma w*, and J -> wJw^-1 (so U -> w U w^T)."""
    w = numerics.as_matrix(w)
    if not numerics.is_unitary(w):
        raise ValueError("conjugation witness must be unitary")
    projections = tuple(w @ p @ w.conj().T for p in t.algebra.projections)
    alg = FiniteCommutativeAlgebra(projections, t.algebra.labels)
    grading = None
    if t.is_even:
        grading = w @ t.grading @ w.conj().T
    real = None
    if t.real_structure is not None:
        real = AntiunitaryOperator(w @ t.real_structure.unitary_part @ w.T)
    return SpectralTriple(alg, w @ t.dirac @ w.conj().T, grading, real, t.parity)


def coupling_components(t: SpectralTriple):
    """Connected components of the character-coupling graph, as sorted lists
    ordered by smallest member.

    Characters i < j are coupled when D, the grading, or the unitary part U
    of J, read in the algebra's character basis V (U as V* U conj(V)), has an
    (i, j) block whose Frobenius norm exceeds ALGEBRAIC_TOL times the
    operator's scale.
    """
    v, owner = t.algebra.character_basis
    onehot = (owner[:, None] == np.arange(t.algebra.k)).astype(float)
    ops = [(v.conj().T @ op @ v, max(1.0, operator_norm(op)))
           for op in (t.dirac, t.grading) if op is not None]
    if t.real_structure is not None:
        ops.append((v.conj().T @ t.real_structure.unitary_part @ np.conj(v), 1.0))
    coupled = np.zeros((t.algebra.k, t.algebra.k), dtype=bool)
    for m, scale in ops:
        # Squared block norms summed entrywise: a trace identity would cancel
        # to ~1e-16, above ALGEBRAIC_TOL**2.
        coupled |= onehot.T @ (np.abs(m) ** 2) @ onehot > (ALGEBRAIC_TOL * scale) ** 2
    return numerics.connected_parts(np.triu(coupled, 1))


def difference_edges(t: SpectralTriple):
    """The edges (u, v, w) along which ||[D, pi(x)]|| = max_e w_e |x_u - x_v|
    for every real x, or None when the commutator has no such form.

    In the character basis V, d = V* D V and pi(x) = diag(x_owner), so
    [D, pi(x)] has the entries d_ra (x_owner[a] - x_owner[r]); only the
    entries with owner[r] != owner[a] can be nonzero.  When each row and
    each column of d keeps at most one such entry that is not exactly zero
    (an exact test, so no tolerance enters), the commutator is a scaled
    partial permutation and its norm is the largest |entry|: one edge
    (owner[r], owner[a], |d_ra|) per kept entry.  A graph triple has this
    form when every vertex is the second endpoint of at most one edge
    (paths, circles, trees).  None also when no entry is kept, since then
    every commutator vanishes.
    """
    v, owner = t.algebra.character_basis
    d = v.conj().T @ t.dirac @ v
    keep = (d != 0) & (owner[:, None] != owner[None, :])
    if not keep.any() or keep.sum(axis=0).max() > 1 or keep.sum(axis=1).max() > 1:
        return None
    rows, cols = np.nonzero(keep)
    edges = (owner[rows], owner[cols], np.abs(d[rows, cols]))
    for a in edges:
        a.setflags(write=False)
    return edges


def _component_isometry(t: SpectralTriple, chars) -> np.ndarray:
    """The columns of the character basis owned by chars: an orthonormal
    basis of the sum of their subspaces."""
    v, owner = t.algebra.character_basis
    return v[:, np.isin(owner, chars)]


def _compress(t: SpectralTriple, chars):
    """The triple cut down to chars, and the isometry embedding it in t."""
    v = _component_isometry(t, chars)
    alg = FiniteCommutativeAlgebra(
        tuple(v.conj().T @ t.algebra.projections[i] @ v for i in chars),
        tuple(t.algebra.labels[i] for i in chars),
    )
    dirac = v.conj().T @ t.dirac @ v
    grading = v.conj().T @ t.grading @ v if t.grading is not None else None
    real = None
    if t.real_structure is not None:
        real = AntiunitaryOperator(
            v.conj().T @ t.real_structure.unitary_part @ np.conj(v)
        )
    return SpectralTriple(alg, dirac, grading, real, t.parity), v


def decompose(t: SpectralTriple):
    """Irreducible components, one per coupling-graph component."""
    return [_compress(t, chars)[0] for chars in coupling_components(t)]


def decompose_detailed(t: SpectralTriple):
    """Components plus the data needed to reassemble: the character partition
    and the isometries embedding each component back into t's space."""
    parts = coupling_components(t)
    compressed = [_compress(t, chars) for chars in parts]
    return ([c for c, _ in compressed], parts, [v for _, v in compressed])


# --- reference triples for the eight KO sign columns -----------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_OM = np.array([[0, -1], [1, 0]], dtype=complex)  # squares to -1


def _scalar_algebra(rep_dim: int) -> FiniteCommutativeAlgebra:
    return FiniteCommutativeAlgebra(
        (np.eye(rep_dim, dtype=complex),), ("chi1",)
    )


def standard_ko_triple(n: int) -> SpectralTriple:
    """A real triple over the scalar algebra realizing the sign column n.

    The algebra is C acting on a 2- or 4-dimensional space, so the commutant
    and first-order conditions hold trivially and only the signs matter.
    """
    eye2 = np.eye(2, dtype=complex)
    if n == 0:
        d, g, u, dim = _SX, _SZ, eye2, 2
    elif n == 1:
        d, g, u, dim = _SY, None, eye2, 2
    elif n == 2:
        d, g, u, dim = np.kron(_SX, eye2), np.kron(_SZ, eye2), np.kron(_SX, _OM), 4
    elif n == 3:
        d, g, u, dim = np.kron(_SX, eye2), None, np.kron(_SX, _OM), 4
    elif n == 4:
        d, g, u, dim = np.kron(_SX, eye2), np.kron(_SZ, eye2), np.kron(eye2, _OM), 4
    elif n == 5:
        d, g, u, dim = _SY, None, _OM, 2
    elif n == 6:
        d, g, u, dim = _SX, _SZ, _SX, 2
    elif n == 7:
        d, g, u, dim = _SX, None, eye2, 2
    else:
        raise ValueError("n must be in 0..7")
    parity = "odd" if g is None else "even"
    return SpectralTriple(_scalar_algebra(dim), d, g, AntiunitaryOperator(u), parity)


# --- JSON codecs -----------------------------------------------------------

def triple_to_json(t: SpectralTriple) -> dict:
    return {
        "algebra": algebra_to_json(t.algebra),
        "dirac": numerics.matrix_to_json(t.dirac),
        "grading": numerics.matrix_to_json(t.grading) if t.grading is not None else None,
        "real_unitary_part": (
            numerics.matrix_to_json(t.real_structure.unitary_part)
            if t.real_structure is not None else None
        ),
        "parity": t.parity,
    }


def triple_from_json(obj) -> SpectralTriple:
    alg = algebra_from_json(obj["algebra"])
    dirac = numerics.matrix_from_json(obj["dirac"])
    grading = None
    if obj.get("grading") is not None:
        grading = numerics.matrix_from_json(obj["grading"])
    real = None
    if obj.get("real_unitary_part") is not None:
        real = AntiunitaryOperator(numerics.matrix_from_json(obj["real_unitary_part"]))
    return SpectralTriple(alg, dirac, grading, real, obj.get("parity", "odd"))


def chain_to_json(c: HochschildChain) -> dict:
    return {
        "degree": c.degree,
        "terms": [
            [[[float(z.real), float(z.imag)] for z in el.values] for el in term]
            for term in c.terms
        ],
    }


def chain_from_json(a: FiniteCommutativeAlgebra, obj) -> HochschildChain:
    terms = tuple(
        tuple(
            AlgebraElement(a, np.array([complex(re, im) for re, im in vals]))
            for vals in term
        )
        for term in obj["terms"]
    )
    return HochschildChain(int(obj["degree"]), terms)
