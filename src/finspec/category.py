"""Morphism calculus for spectral triples.

Two kinds of morphisms are handled: metric morphisms (algebra epimorphisms
whose state pullback preserves the spectral distance) and intertwiner pairs
(phi, Phi) acting on both the algebra and the representation space, with
optional real/even/isometric flags.  A unitary equivalence is an isometric
pair with a bijective phi and a square Phi.  The pullback of an isometric
graph embedding gives a metric morphism; the coisometric case contracts
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .algebra import (AlgebraHom, State, check_epimorphism, compose_homs,
                      hom_from_json, hom_to_json, identity_hom, pullback_state,
                      same_algebra)
from .errors import (AlgebraMismatch, EndpointMismatch, InvalidMorphism,
                     KindMismatch, NotIsometric, NotOntoComponents,
                     ShapeMismatch)
from .geometry import (GeometryMap, geodesic_matrix, graph_components,
                       graph_triple)
from .metric import connes_distance, distance_matrix
from .numerics import ATOL, DISTANCE_TOL, MORPHISM_TOL, operator_norm
from .triple import CheckReport, CheckResult, SpectralTriple, _compress

MIXED_PAIRS = 8  # random mixed-state pairs of the pullback contraction check


@dataclass(frozen=True)
class MetricMorphism:
    source: SpectralTriple
    target: SpectralTriple
    hom: AlgebraHom


@dataclass(frozen=True)
class SfMorphism:
    source: SpectralTriple
    target: SpectralTriple
    hom: AlgebraHom
    phi: np.ndarray  # rep-space map H_source -> H_target, possibly rectangular
    real: bool = False
    even: bool = False
    isometric: bool = False

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=complex)
        if p.shape != (self.target.rep_dim, self.source.rep_dim):
            raise ShapeMismatch(
                f"phi has shape {p.shape}, expected "
                f"({self.target.rep_dim}, {self.source.rep_dim})"
            )
        p.setflags(write=False)
        object.__setattr__(self, "phi", p)


MorphismReport = CheckReport


def _triples_compatible(t1: SpectralTriple, t2: SpectralTriple) -> bool:
    return (
        same_algebra(t1.algebra, t2.algebra)
        and operator_norm(t1.dirac - t2.dirac) <= ATOL
    )


def check_metric_morphism(t1: SpectralTriple, t2: SpectralTriple,
                          phi: AlgebraHom, tol: float = DISTANCE_TOL,
                          seed: int = 0) -> MorphismReport:
    """Is phi: A1 -> A2 an epimorphism whose pure-state pullback is an
    isometry for the spectral distances?  Infinite distances must match
    infinite distances exactly."""
    if not same_algebra(phi.source, t1.algebra) or not same_algebra(
        phi.target, t2.algebra
    ):
        raise AlgebraMismatch("hom endpoints do not match the triples")
    checks = [CheckResult("epimorphism", check_epimorphism(phi), 0.0)]

    d1 = distance_matrix(t1, seed=seed).values
    d2 = distance_matrix(t2, seed=seed).values
    m = phi.character_map
    worst = 0.0
    pattern_ok = True
    for i in range(t2.algebra.k):
        for j in range(i + 1, t2.algebra.k):
            lhs = d1[m[i], m[j]]
            rhs = d2[i, j]
            if math.isinf(lhs) != math.isinf(rhs):
                pattern_ok = False
            elif not math.isinf(lhs):
                worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult("infinite_pattern", pattern_ok,
                              0.0 if pattern_ok else math.inf))
    checks.append(CheckResult("pullback_isometry", worst <= tol, worst))
    return MorphismReport(tuple(checks))


def check_sf_morphism(t1: SpectralTriple, t2: SpectralTriple,
                      m: SfMorphism, tol: float = MORPHISM_TOL) -> MorphismReport:
    """Verify the intertwining relations of the pair (phi, Phi), plus the
    real/even/coisometry conditions demanded by its flags."""
    if not same_algebra(m.hom.source, t1.algebra) or not same_algebra(
        m.hom.target, t2.algebra
    ):
        raise AlgebraMismatch("hom endpoints do not match the triples")
    p = np.asarray(m.phi)
    if p.shape != (t2.rep_dim, t1.rep_dim):
        raise ShapeMismatch("phi does not map H_1 to H_2")

    checks = []
    resid = max(
        operator_norm(
            m.hom.apply(t1.algebra.basis_element(i)).represent() @ p
            - p @ t1.algebra.basis_element(i).represent()
        )
        for i in range(t1.algebra.k)
    )
    checks.append(CheckResult("algebra_intertwining", resid <= tol, resid))

    scale = max(1.0, operator_norm(t1.dirac), operator_norm(t2.dirac))
    resid = operator_norm(t2.dirac @ p - p @ t1.dirac)
    checks.append(CheckResult("dirac_intertwining", resid <= tol * scale, resid))

    if m.real:
        if t1.real_structure is None or t2.real_structure is None:
            checks.append(CheckResult("real_intertwining", False, math.inf))
        else:
            u1 = t1.real_structure.unitary_part
            u2 = t2.real_structure.unitary_part
            resid = operator_norm(p @ u1 - u2 @ np.conj(p))
            checks.append(CheckResult("real_intertwining", resid <= tol, resid))
    if m.even:
        if t1.grading is None or t2.grading is None:
            checks.append(CheckResult("even_intertwining", False, math.inf))
        else:
            resid = operator_norm(p @ t1.grading - t2.grading @ p)
            checks.append(CheckResult("even_intertwining", resid <= tol, resid))
    if m.isometric:
        checks.append(CheckResult("algebra_surjective", check_epimorphism(m.hom), 0.0))
        resid = operator_norm(p @ p.conj().T - np.eye(t2.rep_dim))
        checks.append(CheckResult("coisometry", resid <= tol, resid))
    return MorphismReport(tuple(checks))


def check_unitary_equivalence(t1: SpectralTriple, t2: SpectralTriple,
                              witness, tol: float = MORPHISM_TOL) -> bool:
    """Is the witness (phi: A1 -> A2, Phi: H1 -> H2) a unitary equivalence?

    It is one when phi is bijective, Phi is square, and (phi, Phi) passes
    check_sf_morphism as an isometric pair that also intertwines the
    gradings and the real structures: a grading or J present on one side
    only fails.
    """
    phi, big_phi = witness
    big_phi = np.asarray(big_phi, dtype=complex)
    n1, n2, k1, k2 = t1.rep_dim, t2.rep_dim, t1.algebra.k, t2.algebra.k
    if big_phi.shape != (n2, n1) or n1 != n2:
        return False
    if not phi.source.k == k1 == phi.target.k == k2:
        return False
    real = t1.real_structure is not None or t2.real_structure is not None
    m = SfMorphism(t1, t2, phi, big_phi, real=real,
                   even=t1.is_even or t2.is_even, isometric=True)
    return check_sf_morphism(t1, t2, m, tol).passed


def identity_metric_morphism(t: SpectralTriple) -> MetricMorphism:
    return MetricMorphism(t, t, identity_hom(t.algebra))


def identity_sf_morphism(t: SpectralTriple, real: bool = False,
                         even: bool = False, isometric: bool = True) -> SfMorphism:
    return SfMorphism(t, t, identity_hom(t.algebra),
                      np.eye(t.rep_dim, dtype=complex),
                      real=real, even=even, isometric=isometric)


def compose(m1, m2):
    """Composite morphism t1 -> t3 of m1: t1 -> t2 and m2: t2 -> t3."""
    if isinstance(m1, MetricMorphism) and isinstance(m2, MetricMorphism):
        if not _triples_compatible(m1.target, m2.source):
            raise EndpointMismatch("metric morphisms are not composable")
        return MetricMorphism(m1.source, m2.target,
                              compose_homs(m1.hom, m2.hom))
    if isinstance(m1, SfMorphism) and isinstance(m2, SfMorphism):
        if not _triples_compatible(m1.target, m2.source):
            raise EndpointMismatch("sf morphisms are not composable")
        return SfMorphism(
            m1.source, m2.target, compose_homs(m1.hom, m2.hom),
            np.asarray(m2.phi) @ np.asarray(m1.phi),
            real=m1.real and m2.real,
            even=m1.even and m2.even,
            isometric=m1.isometric and m2.isometric,
        )
    raise KindMismatch("cannot compose morphisms of different kinds")


@dataclass(frozen=True)
class ContractionReport:
    max_violation: float
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= DISTANCE_TOL

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "max_violation": float(self.max_violation),
            "pairs_checked": self.pairs_checked,
        }


def check_pullback_contraction(t1: SpectralTriple, t2: SpectralTriple,
                               m: SfMorphism,
                               seed: int = 0) -> ContractionReport:
    """For a coisometric morphism, state pullback can only shrink distances:
    d_1(w1 . phi, w2 . phi) <= d_2(w1, w2) for all states of A2."""
    if not m.isometric:
        raise InvalidMorphism("contraction requires the isometric flag")
    report = check_sf_morphism(t1, t2, m)
    if not report.passed:
        raise InvalidMorphism("morphism fails its intertwining checks")

    k2 = t2.algebra.k
    pairs = [
        (t2.algebra.pure_state(i), t2.algebra.pure_state(j))
        for i in range(k2) for j in range(i + 1, k2)
    ]
    rng = np.random.default_rng(seed)
    for _ in range(MIXED_PAIRS):
        w1 = rng.dirichlet(np.ones(k2))
        w2 = rng.dirichlet(np.ones(k2))
        pairs.append((State(t2.algebra, w1), State(t2.algebra, w2)))

    worst = 0.0
    for w1, w2 in pairs:
        d2 = connes_distance(t2, w1, w2, seed=seed)
        if d2.is_infinite:
            continue  # +inf on the right always satisfies the bound
        p1 = pullback_state(m.hom, w1)
        p2 = pullback_state(m.hom, w2)
        d1 = connes_distance(t1, p1, p2, seed=seed)
        if d1.is_infinite:
            worst = math.inf
        else:
            worst = max(worst, d1.value - d2.value)
    return ContractionReport(worst, len(pairs))


def restriction_morphism(t: SpectralTriple, characters):
    """The pair (rho, P) restricting t onto a union of coupling components.

    Returns (sub_triple, SfMorphism) where rho is the character-restriction
    epimorphism and P the orthogonal projection onto the retained block.
    Flags are set from the structure actually present on t.
    """
    characters = sorted(int(c) for c in characters)
    allowed = set()
    for comp in t.components:
        if any(c in characters for c in comp):
            allowed.update(comp)
    if not characters or allowed != set(characters):
        raise NotOntoComponents(
            "characters must form a non-empty union of coupling components"
        )
    sub, v = _compress(t, characters)
    hom = AlgebraHom(t.algebra, sub.algebra, tuple(characters))
    return sub, SfMorphism(
        t, sub, hom, v.conj().T,
        real=t.real_structure is not None,
        even=t.is_even,
        isometric=True,
    )


def crv_pullback(f: GeometryMap) -> MetricMorphism:
    """Contravariant pullback of an isometric graph embedding whose image is
    a union of connected components: a metric morphism between the incidence
    triples T(target) -> T(source)."""
    src_d = geodesic_matrix(f.source)
    tgt_d = geodesic_matrix(f.target)
    vm = f.vertex_map
    for p in range(f.source.k):
        for q in range(p + 1, f.source.k):
            a, b = src_d[p, q], tgt_d[vm[p], vm[q]]
            if math.isinf(a) != math.isinf(b):
                raise NotIsometric(f"pair ({p},{q}) changes connectivity")
            if not math.isinf(a) and abs(a - b) > ATOL:
                raise NotIsometric(f"pair ({p},{q}) distance distorted")

    image = set(vm)
    for comp in graph_components(f.target):
        hit = image.intersection(comp)
        if hit and hit != set(comp):
            raise NotOntoComponents(
                "image must be a union of connected components"
            )

    t_src = graph_triple(f.source)
    t_tgt = graph_triple(f.target)
    hom = AlgebraHom(t_tgt.algebra, t_src.algebra, vm)
    return MetricMorphism(t_tgt, t_src, hom)


# --- JSON codec --------------------------------------------------------------

def morphism_to_json(m) -> dict:
    if isinstance(m, MetricMorphism):
        return {
            "kind": "metric",
            "character_map": hom_to_json(m.hom)["character_map"],
            "phi_matrix": None,
            "flags": {"real": False, "even": False, "isometric": False},
        }
    return {
        "kind": "sf",
        "character_map": hom_to_json(m.hom)["character_map"],
        "phi_matrix": numerics.matrix_to_json(m.phi),
        "flags": {"real": m.real, "even": m.even, "isometric": m.isometric},
    }


def morphism_from_json(t1: SpectralTriple, t2: SpectralTriple, obj):
    hom = hom_from_json(t1.algebra, t2.algebra,
                        {"character_map": obj["character_map"]})
    if obj.get("kind", "metric") == "metric":
        return MetricMorphism(t1, t2, hom)
    pm = obj["phi_matrix"]
    if pm is None:
        raise ValueError("sf morphism requires a phi matrix")
    phi = numerics.matrix_from_json(pm)
    flags = obj.get("flags", {})
    return SfMorphism(
        t1, t2, hom, phi,
        real=bool(flags.get("real", False)),
        even=bool(flags.get("even", False)),
        isometric=bool(flags.get("isometric", False)),
    )
