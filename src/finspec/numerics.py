"""Dense complex linear algebra: Hermitian eigendecomposition, operator norm,
simultaneous diagonalization of commuting normal families.

Matrices are plain numpy arrays of complex128; everything here is a pure
function of its inputs.  Target dimensions are small (<= 256), so all
algorithms are dense.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import NotCommuting, NotHermitian

# Every tolerance that decides a pass/fail flag or an answer class (a distance
# of 0 or infinity); the solver's stopping constants are in metric.py.
ATOL = 1e-9                  # algebraic identities, axioms, coupling, zero norms
MORPHISM_TOL = 1e-8          # intertwining relations, commuting families
DEGENERACY_THRESHOLD = 1e-7  # relative gap between distinct joint eigenvalues
DISTANCE_TOL = 1e-6          # pullback isometry and contraction of distances
INFINITE_THRESHOLD = 1e-10   # component weight imbalance of an infinite distance
WEIGHT_TOL = 1e-12           # state weights: nonnegative, summing to 1, pure
EQUAL_STATES_TOL = 1e-14     # weight difference of equal states (distance 0)


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(m, 2))) if m.size else 1.0


def is_hermitian(m, tol: float = ATOL) -> bool:
    m = as_matrix(m)
    return bool(np.linalg.norm(m - m.conj().T, 2) <= tol * _scale(m))


def is_unitary(m, tol: float = ATOL) -> bool:
    m = as_matrix(m)
    eye = np.eye(m.shape[0])
    return bool(np.linalg.norm(m @ m.conj().T - eye, 2) <= tol)


def is_projection(m, tol: float = ATOL) -> bool:
    m = as_matrix(m)
    return bool(
        np.linalg.norm(m @ m - m, 2) <= tol and np.linalg.norm(m - m.conj().T, 2) <= tol
    )


def is_normal(m, tol: float = ATOL) -> bool:
    m = as_matrix(m)
    mh = m.conj().T
    return bool(np.linalg.norm(m @ mh - mh @ m, 2) <= tol * _scale(m) ** 2)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


def operator_norm(m) -> float:
    """Largest singular value (spectral norm).  Accepts rectangular input."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitian_eig(m, tol: float = ATOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    m = V diag(w) V*.  Raises NotHermitian when the symmetry residual of m
    exceeds tol (relative to the norm of m).
    """
    m = as_matrix(m)
    residual = np.linalg.norm(m - m.conj().T, 2)
    if residual > tol * _scale(m):
        raise NotHermitian(f"symmetry residual {residual:.3e} exceeds tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w, v


def _split_indices(values: np.ndarray, threshold: float):
    """Group indices of a sorted real sequence into clusters separated by
    gaps larger than threshold."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > threshold:
            groups.append([i])
        else:
            groups[-1].append(i)
    return groups


def simultaneous_diagonalize(ms, tol: float = MORPHISM_TOL,
                             degeneracy: float = DEGENERACY_THRESHOLD):
    """Joint diagonalization of pairwise commuting normal matrices.

    Returns (basis, diagonals) where basis is unitary and
    basis* m basis is diagonal for each m, with the listed diagonals.

    The basis is built by recursive eigenspace splitting: each Hermitian
    part of each generator refines the current block decomposition, with
    eigenvalues closer than degeneracy * norm treated as a single cluster.
    """
    ms = [as_matrix(m) for m in ms]
    if not ms:
        raise ValueError("need at least one matrix")
    n = ms[0].shape[0]
    for m in ms:
        if m.shape[0] != n:
            raise ValueError("matrices must share a common dimension")

    for i, a in enumerate(ms):
        if not is_normal(a, tol):
            raise NotCommuting(f"matrix {i} is not normal within tolerance")
        for j in range(i + 1, len(ms)):
            b = ms[j]
            resid = np.linalg.norm(commutator(a, b), 2)
            if resid > tol * _scale(a) * _scale(b):
                raise NotCommuting(
                    f"matrices {i} and {j} do not commute (residual {resid:.3e})"
                )

    # Hermitian and anti-Hermitian parts also pairwise commute (Fuglede).
    parts = []
    for m in ms:
        parts.append((m + m.conj().T) / 2)
        parts.append((m - m.conj().T) / 2j)

    blocks = [np.eye(n, dtype=complex)]
    for h in parts:
        thr = degeneracy * _scale(h)
        refined = []
        for v in blocks:
            if v.shape[1] == 1:
                refined.append(v)
                continue
            hc = v.conj().T @ h @ v
            hc = (hc + hc.conj().T) / 2
            w, q = np.linalg.eigh(hc)
            for grp in _split_indices(w, thr):
                refined.append(v @ q[:, grp])
        blocks = refined

    basis = np.hstack(blocks)
    diagonals = [np.diag(basis.conj().T @ m @ basis).copy() for m in ms]
    return basis, diagonals


def connected_parts(adjacency) -> list:
    """Connected components of the undirected graph with the given (dense or
    sparse) adjacency matrix, as sorted lists ordered by smallest member."""
    count, labels = connected_components(adjacency, directed=False)
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(count))


def matrix_to_json(m) -> dict:
    """ComplexMatrix JSON encoding: {"dim": n, "entries": [[[re, im], ...], ...]}
    for a square matrix, {"rows": r, "cols": c, "entries": ...} otherwise."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    entries = np.stack([m.real, m.imag], -1).tolist()
    if rows == cols:
        return {"dim": rows, "entries": entries}
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    if "dim" in obj:
        rows = cols = int(obj["dim"])
    else:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    # A ragged array raises ValueError here; strings and None give a
    # non-numeric dtype.
    pairs = np.asarray(obj["entries"])
    if pairs.shape != (rows, cols, 2) or pairs.dtype.kind not in "biuf":
        raise ValueError("entries must be a rows x cols array of [re, im] numbers")
    # The (re, im) pairs of float64 are complex128 in memory: the view keeps
    # every bit, including the sign of a zero imaginary part.
    m = pairs.astype(float).view(complex)[..., 0]
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m
