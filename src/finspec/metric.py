"""Spectral distance on states.

The distance d(w1, w2) = sup{ |w1(x) - w2(x)| : ||[D, pi(x)]|| <= 1 } is
computed through its dual form

    d = 1 / min{ ||[D, pi(x)]|| : c . x = 1 },   c = w1 - w2,

a convex problem over real-valued functions x.  The minimizer doubles as the
certificate: x / ||[D, pi(x)]|| attains the sup.  Infinite distances are
detected combinatorially from the character-coupling graph before any
optimization runs.

Two paths solve it, chosen from the operator data.  When each row and each
column of D, read in the character basis, has at most one nonzero entry
between different characters (SpectralTriple.difference_edges), [D, pi(x)]
is a scaled partial permutation with entries d_ra (x_owner[a] - x_owner[r]),
so its norm is exactly max_e w_e |x_u - x_v|.  connes_distance then
answers a pair of states, pure or mixed, with one LP over free x, with no
search box (_difference_lp), and distance_matrix answers all pairs of pure
states with one LP per source character (_source_distances): the
shortest-path potential from the source, the greatest element of a system
of difference constraints, attains every distance from it at once.  Graph
triples in which every vertex is the second endpoint of at most one edge
(paths, circles, trees) have this form, and their distance is the geodesic
one.  The form depends on edge orientation: on the path a - b - c with
lengths l, d(a, c) = 2 l for a -> b -> c but sqrt(2) l for a -> b <- c.
Every other triple takes the dense path (_minimize_slice), one pair at a
time: a smoothing polish, then Kelley cutting planes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog, minimize, nnls

from .algebra import AlgebraElement, State, same_algebra
from .errors import AlgebraMismatch, TooManyCharacters
from .numerics import (ATOL, EQUAL_STATES_TOL, INFINITE_THRESHOLD,
                       connected_parts)
from .triple import SpectralTriple

KELLEY_MAX_CUTS = 200     # LP points before Kelley stops
KELLEY_REL_GAP = 1e-10    # gap, relative to the best value, at which it stops
# HiGHS options for Kelley's LPs.  A cut added near the optimum is violated
# by less than scipy's default feasibility tolerance (1e-7), so at that
# tolerance the LP returns its previous point again; 1e-10 is the smallest
# value HiGHS accepts.  An LP vertex that is only dual feasible to 1e-7 can
# report an objective above the LP minimum, which would be no lower bound.
# scipy checks every option on every call; switching presolve off, which
# these small dense LPs do not need, pays for the two tolerances.
KELLEY_LP_OPTIONS = {"presolve": False,
                     "primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10}
GRID_CHUNK = 65536        # grid points the oracle screens per batch
GRID_BLOCK = 4096         # a chunk's candidates go in blocks of 4096 to 8191
GRID_SLACK = 1e-9         # the oracle accepts ||M(x)|| <= 1 + GRID_SLACK
GRID_MARGIN = 1e-15       # a candidate must beat the incumbent by this

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistanceValue:
    value: float                      # math.inf for decoupled states
    certificate: AlgebraElement | None
    solver_residual: float

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def to_json(self) -> dict:
        return {
            "value": "inf" if self.is_infinite else float(self.value),
            "solver_residual": float(self.solver_residual),
        }


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple
    values: np.ndarray               # k x k floats, inf across components

    @property
    def k(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [
                ["inf" if math.isinf(v) else float(v) for v in row]
                for row in self.values
            ],
        }


def _commutator_generators(t: SpectralTriple) -> np.ndarray:
    """The tensor K with K[i] = [D, P_i], shape (k, n, n); built once per
    triple and shared read-only."""
    return t.commutators


def _component_masks(t: SpectralTriple):
    masks = np.zeros((len(t.components), t.algebra.k))
    for row, comp in enumerate(t.components):
        masks[row, comp] = 1.0
    return masks


def detect_infinite(t: SpectralTriple, i: int, j: int) -> bool:
    """True iff characters i and j lie in different coupling components."""
    k = t.algebra.k
    if not (0 <= i < k and 0 <= j < k):
        raise AlgebraMismatch(f"character indices ({i}, {j}) outside 0..{k - 1}")
    return not any(i in comp and j in comp for comp in t.components)


def _check_states(t: SpectralTriple, *states: State):
    for s in states:
        if not same_algebra(s.algebra, t.algebra):
            raise AlgebraMismatch("state does not live on the triple's algebra")


def _embedded(k_mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M(x) = sum_i x_i K_i."""
    return (x @ k_mats.reshape(len(x), -1)).reshape(k_mats.shape[1:])


def _singular_pair_grad(k_mats: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Re(u* K_i v) for every i: the gradient of Re(u* M(x) v) in x."""
    return np.real((k_mats @ v) @ np.conj(u))


def _top_cuts(k_mats: np.ndarray, x: np.ndarray):
    """||M(x)|| and the gradients g_a = Re(u_a* K v_a) of the top singular
    pairs of M(x), one row each, from one SVD.  Each row gives the cut
    g_a . y <= ||M(y)||, valid for every y, with equality at x."""
    u, s, vh = np.linalg.svd(_embedded(k_mats, x))
    # The right singular vectors are the rows of vh, conjugated.
    top = np.count_nonzero(s >= s[0] - 1e-8 * max(s[0], 1.0))
    grads = [_singular_pair_grad(k_mats, u[:, a], np.conj(vh[a]))
             for a in range(top)]
    return float(s[0]), np.array(grads)


def _spectral_value_subgrad(k_mats: np.ndarray, x: np.ndarray):
    f, grads = _top_cuts(k_mats, x)
    return f, grads[0]


def _spectral_norm(k_mats: np.ndarray, x: np.ndarray) -> float:
    """||M(x)|| alone, from the singular values."""
    return float(np.linalg.svd(_embedded(k_mats, x), compute_uv=False)[0])


def _smoothed_value_grad(k_mats: np.ndarray, x: np.ndarray, mu: float):
    """Softmax smoothing mu * log sum_i (e^{s_i/mu} + e^{-s_i/mu}) of the
    spectral norm, with its gradient.

    The terms +-s_i are the eigenvalues of the Hermitian dilation
    [[0, M], [M*, 0]], read off an SVD M = U diag(s) Vh.  Since
    d s_i / d x_k = Re(u_i* K_k v_i), the gradient is
    Re <K_k, conj(U diag(c) Vh)>, where c_i is the softmax weight of +s_i
    minus that of -s_i.  U diag(c) Vh does not depend on the basis chosen
    inside a degenerate singular subspace, and neither does the gradient.
    """
    u, s, vh = np.linalg.svd(_embedded(k_mats, x))
    # Shift by the largest term, s_0, so that no exponential overflows.
    plus = np.exp((s - s[0]) / mu)
    minus = np.exp((-s - s[0]) / mu)
    total = plus.sum() + minus.sum()
    c = (plus - minus) / total
    grad = np.real(k_mats.reshape(len(x), -1) @ np.conj((u * c) @ vh).reshape(-1))
    return float(s[0] + mu * math.log(total)), grad


def _minimize_slice(k_mats: np.ndarray, c: np.ndarray, masks: np.ndarray):
    """min ||sum_i x_i K_i|| over the affine slice {c.x = 1}.

    Per-component constant shifts leave both objective and constraint value
    unchanged, so the search is restricted to per-component zero-sum vectors
    x = x0 + basis z, where x0 is the least-norm point of the slice.  Two
    phases run, both deterministic: a softmax-smoothing polish minimized with
    L-BFGS from z = 0 while the smoothing width shrinks, then Kelley cutting
    planes, which bound the remaining gap.
    """
    a_rows = np.vstack([c[None, :], masks])
    rhs = np.zeros(a_rows.shape[0])
    rhs[0] = 1.0
    x0, *_ = np.linalg.lstsq(a_rows, rhs, rcond=None)
    basis = null_space(a_rows)
    best_x = x0
    best_f = _spectral_norm(k_mats, x0)
    if not basis.size:
        return best_x, best_f, 0.0

    z = np.zeros(basis.shape[1])
    mu = max(best_f, 1e-9) / 10.0
    mu_floor = max(best_f, 1e-9) * 1e-8
    while True:
        res = minimize(
            lambda zz: _reduce_grad(k_mats, x0, basis, zz, mu),
            z, jac=True, method="L-BFGS-B",
            options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12},
        )
        z = res.x
        x = x0 + basis @ z
        f = _spectral_norm(k_mats, x)
        if f < best_f:
            best_f, best_x = f, x
        if mu <= mu_floor:
            break
        mu = max(mu / 20.0, mu_floor)

    return _cutting_plane_refine(k_mats, x0, basis, best_x, best_f)


def _one_point_bound(h: np.ndarray, c: np.ndarray, radius: float) -> float:
    """Lower bound on min f over the box |z| <= radius, from the cuts
    f(z) >= c_a + h_a . z taken at one point.

    For lam >= 0 with sum 1, W = sum_a lam_a u_a v_a* has nuclear norm at
    most 1, so f(z) >= lam . c + (H lam) . z >= lam . c - |H lam|_1 radius.
    The bound holds for every such lam; nnls picks one with H lam close to
    0, which exists when the point is stationary, and then the box enters
    only through that residual.
    """
    a = np.vstack([h.T, np.ones(len(c))])
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    try:
        lam, _ = nnls(a, b)
    except RuntimeError:        # iteration cap: no certificate, LPs decide
        return -math.inf
    # The row of ones in a makes lam = 0 suboptimal, so the sum is positive.
    lam /= lam.sum()
    return float(lam @ c - np.abs(lam @ h).sum() * radius)


def _cutting_plane_refine(k_mats, x0, basis, best_x, best_f):
    """Kelley refinement of min ||M(x)|| over the slice x = x0 + basis z.

    Every visited point contributes the cuts Re(u* M(x) v) <= s of its top
    singular pairs, which underestimate the spectral norm everywhere.  If
    the cuts at the starting point already close the gap
    (`_one_point_bound`), no LP runs.  Otherwise each LP minimizes the cut
    model and its solution adds cuts, until the gap closes, an LP returns
    its previous point again (its cuts are in the model, so no later LP
    can move), the cut cap is reached or an LP fails.
    The LP runs over the box |z| <= radius, whose size is a heuristic, so
    its value bounds the minimum from below only when the minimizer lies
    inside the box.  The cuts enter divided by the starting value, and the
    LP's t is multiplied by it again, so that HiGHS's absolute tolerances
    act as relative ones whatever the scale of D.  The returned gap, best
    value minus the bound, is in norm units (1/d) and carries the box's
    condition.
    """
    dim = basis.shape[1]
    scale = max(best_f, 1e-12)
    z = np.linalg.lstsq(basis, best_x - x0, rcond=None)[0]
    radius = 10.0 * (np.max(np.abs(z)) + np.max(np.abs(x0)) + 1.0)
    bounds = [(-radius, radius)] * dim + [(0.0, None)]
    cost = np.zeros(dim + 1)
    cost[-1] = 1.0
    rows, rhs = [], []

    def add_cuts(point) -> float:
        """Add the cuts of point's top singular pairs; return its value."""
        f, grads = _top_cuts(k_mats, point)
        for w in grads / scale:
            row = np.empty(dim + 1)
            row[:dim] = w @ basis
            row[-1] = -1.0
            rows.append(row)
            rhs.append(-float(w @ x0))
        return f

    def closed() -> bool:
        return best_f - lower <= KELLEY_REL_GAP * max(best_f, 1e-12)

    add_cuts(best_x)
    lower = max(0.0, scale * _one_point_bound(np.asarray(rows)[:, :dim],
                                              -np.asarray(rhs), radius))
    lp_calls, previous, reason = 0, None, "certified at start"
    while not closed():
        if lp_calls == KELLEY_MAX_CUTS:
            reason = "cut cap"
            break
        res = linprog(cost, A_ub=np.asarray(rows), b_ub=np.asarray(rhs),
                      bounds=bounds, method="highs", options=KELLEY_LP_OPTIONS)
        lp_calls += 1
        if not res.success:
            reason = "lp failed"
            break
        lower = max(lower, scale * float(res.x[-1]))
        if previous is not None and np.array_equal(res.x, previous):
            reason = "stalled"
            break
        previous = res.x
        x = x0 + basis @ res.x[:dim]
        f = add_cuts(x)
        if f < best_f:
            best_f, best_x = f, x
        reason = "converged"
    gap = max(best_f - lower, 0.0)
    _log.debug("kelley %s after %d LP calls, relative gap %.3g",
               reason, lp_calls, gap / max(best_f, 1e-12))
    return best_x, best_f, gap


def _edge_norm(edges, x: np.ndarray) -> float:
    """max_e w_e |x_u - x_v|, which is ||[D, pi(x)]|| for real x when the
    edges come from SpectralTriple.difference_edges."""
    u, v, w = edges
    return float(np.max(w * np.abs(x[u] - x[v])))


def _difference_lp(edges, c: np.ndarray, masks: np.ndarray):
    """min ||[D, pi(x)]|| over the slice {c.x = 1} as one LP, when the
    commutator is the weighted difference operator of `edges`.

    minimize t over (x, t), t >= 0, subject to +-w_e (x_u - x_v) <= t,
    c.x = 1 and a zero sum on every coupling component (a constant shift
    per component changes neither side).  The weights enter divided by the
    largest, so that HiGHS's absolute tolerances act as relative ones, and
    x is free: there is no search box.  Returns (x, f, gap) in the form of
    _minimize_slice, with x rescaled to c.x = 1, f from the edge formula at
    the LP point (the LP's t is not used) and gap = f - the LP optimum, in
    norm units; or None when the LP fails.
    """
    u, v, w = edges
    k, n_e = len(c), len(w)
    scale = float(w.max())
    diff = np.zeros((n_e, k + 1))
    diff[np.arange(n_e), u] = w / scale
    diff[np.arange(n_e), v] = -w / scale
    a_ub = np.vstack([diff, -diff])
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1 + len(masks), k + 1))
    a_eq[0, :k] = c
    a_eq[1:, :k] = masks
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                  b_eq=b_eq, bounds=[(None, None)] * k + [(0.0, None)],
                  method="highs", options=KELLEY_LP_OPTIONS)
    if not res.success:
        _log.debug("difference LP %s after %d LP calls, relative gap %.3g",
                   "lp failed", 1, math.inf)
        return None
    x = res.x[:k]
    gain = abs(float(c @ x))
    f = _edge_norm(edges, x) / gain
    gap = max(f - float(res.fun) * scale, 0.0)
    _log.debug("difference LP %s after %d LP calls, relative gap %.3g",
               "solved", 1, gap / max(f, 1e-12))
    return x / gain, f, gap


def _reduce_grad(k_mats, x0, basis, z, mu):
    val, grad = _smoothed_value_grad(k_mats, x0 + basis @ z, mu)
    return val, basis.T @ grad


def connes_distance(t: SpectralTriple, w1: State, w2: State,
                    seed: int = 0) -> DistanceValue:
    """Spectral distance between two states, with optimality certificate.

    A triple with difference edges is answered by one LP, any other by the
    dense solver (see the module docstring).  Both are deterministic:
    `seed` is accepted for compatibility with earlier versions and does not
    change the answer.  A triple whose Dirac operator is not Hermitian is
    rejected (NotHermitian) before anything else is computed.
    """
    _check_states(t, w1, w2)
    k_mats = _commutator_generators(t)
    c = np.asarray(w1.weights) - np.asarray(w2.weights)
    if np.max(np.abs(c)) <= EQUAL_STATES_TOL:
        return DistanceValue(0.0, None, 0.0)

    masks = _component_masks(t)
    if np.max(np.abs(masks @ c)) > INFINITE_THRESHOLD:
        # Some coupling component carries unequal total weight: a function
        # constant per component has vanishing commutator and unbounded gap.
        return DistanceValue(math.inf, None, 0.0)

    edges = t.difference_edges
    solved = _difference_lp(edges, c, masks) if edges is not None else None
    x, f, gap = solved or _minimize_slice(k_mats, c, masks)
    if f <= ATOL:
        return DistanceValue(math.inf, None, 0.0)
    cert = AlgebraElement(t.algebra, (x / f).astype(complex))
    return DistanceValue(1.0 / f, cert, gap)


def _difference_parts(t: SpectralTriple) -> list:
    """The sets of two or more characters that difference edges join inside
    one coupling component, as sorted lists.  An edge between two coupling
    components is below the coupling tolerance and is left out, as the
    components leave it out."""
    u, v, _ = t.difference_edges
    label = np.empty(t.algebra.k, dtype=int)
    for n, comp in enumerate(t.components):
        label[list(comp)] = n
    inside = label[u] == label[v]
    adjacency = np.zeros((t.algebra.k, t.algebra.k))
    adjacency[u[inside], v[inside]] = 1.0
    return [p for p in connected_parts(adjacency) if len(p) > 1]


def _source_distances(edges, part: list) -> list:
    """Distances between the characters of `part` from one LP per source,
    when the commutator is the weighted difference operator of `edges` and
    the edges join `part`.

    For the source s = part[m], maximize the sum of y over part subject to
    y_s = 0 and +-(w_e / w_max)(y_u - y_v) <= 1 on every edge inside part.
    These are difference constraints, so the feasible set has a greatest
    element, the shortest-path potential from s, which maximizes every y_i
    at once; x = y / (w_max L), with L the edge norm at the LP point, is a
    1-Lipschitz certificate that attains d(s, i) = |y_i| / (w_max L) for
    every i.  The weights enter divided by the largest, so that HiGHS's
    absolute tolerances act as relative ones.  Each LP logs one DEBUG
    record; its relative gap is L - 1, by how much the LP point breaks the
    constraints.  Returns, for m = 0 .. len(part) - 2, the distances from
    part[m] to part[m + 1:], or None where the LP failed.
    """
    u, v, w = edges
    inside = np.isin(u, part) & np.isin(v, part)
    a, b = np.searchsorted(part, u[inside]), np.searchsorted(part, v[inside])
    w_max = float(w[inside].max())
    ws = w[inside] / w_max
    n_e, size = len(ws), len(part)
    diff = np.zeros((n_e, size))
    diff[np.arange(n_e), a] = ws
    diff[np.arange(n_e), b] = -ws
    a_ub = np.vstack([diff, -diff])
    rows = []
    for m in range(size - 1):
        bounds = [(None, None)] * size
        bounds[m] = (0.0, 0.0)
        res = linprog(-np.ones(size), A_ub=a_ub, b_ub=np.ones(2 * n_e),
                      bounds=bounds, method="highs", options=KELLEY_LP_OPTIONS)
        if not res.success:
            _log.debug("difference LP %s after %d LP calls, relative gap %.3g,"
                       " source %d", "lp failed", 1, math.inf, part[m])
            rows.append(None)
            continue
        y = res.x
        lip = float(np.max(ws * np.abs(y[a] - y[b])))
        _log.debug("difference LP %s after %d LP calls, relative gap %.3g,"
                   " source %d", "solved", 1, max(lip - 1.0, 0.0), part[m])
        rows.append(np.abs(y[m + 1:]) / (w_max * lip))
    return rows


def distance_matrix(t: SpectralTriple, seed: int = 0) -> DistanceMatrix:
    """Spectral distances between all pure states.  A triple with
    difference edges takes one LP per source character (_source_distances)
    and +inf between characters that no edge path inside a coupling
    component joins; if a source's LP fails, its pairs go through
    connes_distance.  Any other triple takes connes_distance per pair.
    `seed` is accepted for compatibility and does not change the answer."""
    k = t.algebra.k
    _commutator_generators(t)       # rejects a non-Hermitian D first
    pure = t.algebra.pure_state
    edges = t.difference_edges
    if edges is None:
        values = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                values[i, j] = values[j, i] = connes_distance(
                    t, pure(i), pure(j)).value
        return DistanceMatrix(t.algebra.labels, values)
    values = np.full((k, k), math.inf)
    np.fill_diagonal(values, 0.0)
    for part in _difference_parts(t):
        for m, row in enumerate(_source_distances(edges, part)):
            i, later = part[m], part[m + 1:]
            if row is None:
                row = [connes_distance(t, pure(i), pure(j)).value for j in later]
            values[i, later] = values[later, i] = row
    return DistanceMatrix(t.algebra.labels, values)


def _check_grid(box: float, grid: int, complex_phases: int = 0):
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    if not (math.isfinite(box) and box > 0):
        raise ValueError(f"box must be finite and positive, got {box}")
    if complex_phases < 0:
        raise ValueError(f"complex_phases must be >= 0, got {complex_phases}")


def _grid_axis(box: float, grid: int, complex_phases: int) -> np.ndarray:
    """The values the oracle gives each coordinate: np.linspace(-box, box,
    grid), or with p = complex_phases > 0 the sorted distinct values a w^m,
    w = exp(2 pi i / p), for a on that grid made exactly antisymmetric.

    linspace is not antisymmetric (-3.6 != -(3.6) at box 4, grid 21), and
    exp leaves residues of about 1e-16 where cos or sin is 0; either way
    -a w^m and a w^(m + p/2) would be two numbers a rounding error apart,
    and both would be scanned.  So the positive half is mirrored, and for
    even p the roots are built as a half, snapped, and its negative.  The
    real grid has no near-copies and is left as linspace builds it, which
    keeps every bit of the real answers.
    """
    axis = np.linspace(-box, box, grid)
    if complex_phases == 0:
        return axis
    upper = axis[grid - grid // 2:]
    real = np.concatenate([-upper[::-1], [0.0] * (grid % 2), upper])
    even = complex_phases % 2 == 0
    m = np.arange(complex_phases // 2 if even else complex_phases)
    roots = np.exp(2j * np.pi * m / complex_phases)
    roots = (np.where(np.abs(roots.real) < 1e-15, 0.0, roots.real)
             + 1j * np.where(np.abs(roots.imag) < 1e-15, 0.0, roots.imag))
    if even:
        roots = np.concatenate([roots, -roots])
    return np.unique(np.outer(real, roots))


def brute_force_distance(t: SpectralTriple, w1: State, w2: State,
                         box: float, grid: int,
                         complex_phases: int = 0) -> float:
    """Grid-search lower bound for the distance.

    Maximizes |c . x| over x on a uniform grid in [-box, box]^k intersected
    with the feasible set ||[D, pi(x)]|| <= 1.  Always a lower bound on the
    true sup; converges as the grid refines.

    With complex_phases = p > 0, each coordinate instead ranges over the
    distinct values a w^m, for a on the real grid and w = exp(2 pi i / p),
    each value once (tiny instances only), cross-checking the restriction
    to real-valued functions.

    Points are taken chunk by chunk in descending order of |c . x|.  Two
    screens only reject points: an objective no better than the incumbent,
    and a row or column of [D, pi(x)] with norm above 1 + GRID_SLACK (the
    spectral norm bounds both from above), formed from the entries where
    some [D, P_i] is nonzero.  Only the SVD test ||[D, pi(x)]|| <=
    1 + GRID_SLACK accepts a point.  The oracle reads the commutator tensor
    alone, never the difference edges or a closed form of the norm, so it
    stays independent of the solvers it checks.  Raises ValueError for
    grid < 2, a box that is not finite and positive, or complex_phases < 0.
    """
    _check_grid(box, grid, complex_phases)
    _check_states(t, w1, w2)
    k = t.algebra.k
    if k > 4:
        raise TooManyCharacters("brute force is limited to k <= 4")
    c = np.asarray(w1.weights) - np.asarray(w2.weights)
    if np.max(np.abs(c)) <= EQUAL_STATES_TOL:
        return 0.0

    screen = _Screen(_commutator_generators(t))
    axis = _grid_axis(box, grid, complex_phases)

    best = 0.0

    # Coarse pre-pass (a strided subgrid) seeds the incumbent so that the full
    # sweep can skip points whose objective cannot improve on it.  Below 48
    # values the stride is 1 and the subgrid would be the whole grid.
    stride = len(axis) // 24
    if stride > 1:
        best = _grid_scan(screen, c, axis[::stride], k, best)
    return _grid_scan(screen, c, axis, k, best)


class _Screen:
    """The oracle's two tests of ||M(x)|| <= 1 + GRID_SLACK on a batch of
    grid points, one per row of coords: a cheap screen that only rejects,
    and the SVD, which alone accepts."""

    def __init__(self, k_mats: np.ndarray):
        k, n, _ = k_mats.shape
        flat = k_mats.reshape(k, -1)
        support = np.flatnonzero(np.any(flat != 0, axis=0))
        rows, cols = np.divmod(support, n)
        # 0/1 incidence of the rows and columns of M on its nonzero entries.
        lines = np.zeros((2 * n, len(support)))
        lines[rows, np.arange(len(support))] = 1.0
        lines[n + cols, np.arange(len(support))] = 1.0
        self.k_mats = k_mats
        self.support_t = flat[:, support].T
        self.lines = lines

    def passes(self, coords: np.ndarray) -> np.ndarray:
        """False where some row or column of M(x) has norm above
        1 + GRID_SLACK, which the spectral norm bounds from above.  Only
        the entries where some K_i is nonzero are formed, one column per
        point, so that the maximum runs over the leading axis."""
        entries = self.support_t @ coords.T
        squares = entries.real ** 2 + entries.imag ** 2
        return np.max(self.lines @ squares, axis=0) <= (1.0 + GRID_SLACK) ** 2

    def feasible(self, coords: np.ndarray) -> np.ndarray:
        """True where the largest singular value of M(x) is at most
        1 + GRID_SLACK."""
        mats = np.tensordot(coords, self.k_mats, axes=1)
        return np.linalg.svd(mats, compute_uv=False)[:, 0] <= 1.0 + GRID_SLACK


def _grid_scan(screen: _Screen, c, axis, k, best):
    n_axis = len(axis)
    total = n_axis ** k
    for start in range(0, total, GRID_CHUNK):
        idx = np.arange(start, min(start + GRID_CHUNK, total))
        coords = np.empty((len(idx), k), dtype=axis.dtype)
        rem = idx
        for d in range(k - 1, -1, -1):
            rem, digit = np.divmod(rem, n_axis)
            coords[:, d] = axis[digit]
        obj = np.abs(coords @ c)
        cand = np.nonzero(obj > best + GRID_MARGIN)[0]
        if cand.size == 0:
            continue
        order = cand[np.argsort(-obj[cand])]
        for block in np.array_split(order, max(1, len(order) // GRID_BLOCK)):
            # Blocks run in descending objective: once the incumbent reaches
            # a block's top, no later block of the chunk can beat it.
            if obj[block[0]] <= best:
                break
            sel = block[screen.passes(coords[block])]
            if not sel.size:
                continue
            feas = sel[screen.feasible(coords[sel])]
            if feas.size:
                best = max(best, float(np.max(obj[feas])))
    return best


def grid_resolution_bound(t: SpectralTriple, box: float, grid: int) -> float:
    """Crude accuracy bound for brute_force_distance: Lipschitz constant of
    the objective times the grid diagonal.  Raises ValueError for grid < 2
    or a box that is not finite and positive."""
    _check_grid(box, grid)
    k = t.algebra.k
    spacing = 2.0 * box / (grid - 1)
    return spacing * k
