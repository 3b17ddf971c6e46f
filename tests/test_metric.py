import logging
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

import finspec as fs
from finspec import metric, triple
from finspec.algebra import State
from finspec.errors import AlgebraMismatch, NotHermitian, TooManyCharacters
from finspec.geometry import graph_triple, random_connected_geometry

from conftest import haar_unitary


def two_point(length=1.0):
    return fs.two_point_geometry(length)[1]


def test_two_point_closed_form():
    for length in (0.25, 0.5, 1.0, 2.0):
        t = two_point(length)
        d = fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(1))
        assert d.value == pytest.approx(length, rel=1e-9)


def test_distance_scale_covariance():
    """Scaling D by 1/s scales every distance by s."""
    t1 = two_point(1.0)
    t3 = two_point(3.0)
    w1, w2 = t1.algebra.pure_state(0), t1.algebra.pure_state(1)
    d1 = fs.connes_distance(t1, w1, w2).value
    d3 = fs.connes_distance(t3, w1, w2).value
    assert d3 == pytest.approx(3.0 * d1, rel=1e-8)


def test_distance_zero_on_equal_states():
    t = two_point()
    w = State(t.algebra, (0.5, 0.5))
    d = fs.connes_distance(t, w, w)
    assert d.value == pytest.approx(0.0, abs=1e-9)


def test_mixed_state_distance_interpolates():
    t = two_point(1.0)
    w1 = t.algebra.pure_state(0)
    mid = State(t.algebra, (0.5, 0.5))
    d = fs.connes_distance(t, w1, mid)
    assert d.value == pytest.approx(0.5, rel=1e-6)


def test_certificate_achieves_value():
    t = two_point(2.0)
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(1)
    d = fs.connes_distance(t, w1, w2)
    x = d.certificate
    attained = abs(w1(x) - w2(x))
    lip = fs.operator_norm(t.dirac @ x.represent() - x.represent() @ t.dirac)
    assert lip <= 1.0 + 1e-7
    assert attained == pytest.approx(d.value, rel=1e-6)


def test_infinite_distance_between_components():
    t = fs.direct_sum(two_point(1.0), two_point(1.0))
    w1 = t.algebra.pure_state(0)
    w3 = t.algebra.pure_state(2)
    assert fs.detect_infinite(t, 0, 2)
    d = fs.connes_distance(t, w1, w3)
    assert d.is_infinite
    assert math.isinf(d.value)


def test_mixed_infinite_only_on_weight_imbalance():
    t = fs.direct_sum(two_point(1.0), two_point(1.0))
    balanced1 = State(t.algebra, (0.5, 0.0, 0.5, 0.0))
    balanced2 = State(t.algebra, (0.0, 0.5, 0.0, 0.5))
    d = fs.connes_distance(t, balanced1, balanced2)
    assert not d.is_infinite
    tilted = State(t.algebra, (0.7, 0.0, 0.3, 0.0))
    assert fs.connes_distance(t, balanced1, tilted).is_infinite


def test_distance_matrix_metric_axioms():
    t = fs.lattice_interval(4, 3.0)[1]
    dm = fs.distance_matrix(t).values
    assert np.allclose(dm, dm.T)
    assert np.allclose(np.diag(dm), 0.0)
    k = dm.shape[0]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                assert dm[i, j] <= dm[i, l] + dm[l, j] + 1e-8


def test_brute_force_sandwich():
    """Grid oracle lower-bounds the solver and closes the gap within the
    grid resolution."""
    t = fs.lattice_interval(3, 2.0)[1]
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(2)
    exact = fs.connes_distance(t, w1, w2).value
    bf = fs.brute_force_distance(t, w1, w2, box=4.0, grid=41)
    bound = metric.grid_resolution_bound(t, 4.0, 41)
    assert bf <= exact + 1e-9
    assert exact - bf <= bound


def test_brute_force_complex_phases_no_better():
    """Restricting to real-valued functions loses nothing."""
    t = two_point(1.0)
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(1)
    real = fs.brute_force_distance(t, w1, w2, box=2.0, grid=41)
    cplx = fs.brute_force_distance(t, w1, w2, box=2.0, grid=41,
                                   complex_phases=4)
    assert cplx <= real + 1e-9


def test_brute_force_character_guard():
    t = fs.lattice_interval(5, 1.0)[1]
    with pytest.raises(TooManyCharacters):
        fs.brute_force_distance(t, t.algebra.pure_state(0),
                                t.algebra.pure_state(1), box=1.0, grid=5)


def test_distance_deterministic_across_calls():
    t = fs.lattice_circle(4, 1.0)[1]
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(2)
    a = fs.connes_distance(t, w1, w2, seed=7).value
    b = fs.connes_distance(t, w1, w2, seed=7).value
    c = fs.connes_distance(t, w1, w2, seed=8).value
    assert a == b
    assert np.float64(a).tobytes() == np.float64(c).tobytes()


@pytest.mark.parametrize("t", [
    pytest.param(fs.lattice_circle(8, 1.0)[1], id="circle_8"),
    pytest.param(graph_triple(random_connected_geometry(
        np.random.default_rng(2008), 5, 2)), id="cyclic_5"),
])
def test_distance_matrix_ignores_seed(t):
    """The solver holds no random state: the seed does not change a bit."""
    a = fs.distance_matrix(t, seed=0).values
    b = fs.distance_matrix(t, seed=12345).values
    assert a.tobytes() == b.tobytes()


def test_nonhermitian_dirac_rejected_before_any_distance():
    t = two_point(5.0)
    d = t.dirac.copy()
    d[0, 1] = 5.0
    bad = triple.SpectralTriple(t.algebra, d, t.grading, t.real_structure,
                                t.parity)
    w1, w2 = bad.algebra.pure_state(0), bad.algebra.pure_state(1)
    with pytest.raises(NotHermitian):
        fs.connes_distance(bad, w1, w1)
    with pytest.raises(NotHermitian):
        fs.connes_distance(bad, w1, w2)
    with pytest.raises(NotHermitian):
        fs.distance_matrix(bad)
    with pytest.raises(NotHermitian):
        fs.brute_force_distance(bad, w1, w2, box=1.0, grid=5)
    assert not fs.validate_triple(bad)["dirac_selfadjoint"].passed


def test_distance_value_json_roundtrip():
    t = two_point(1.0)
    d = fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(1))
    doc = d.to_json()
    assert doc["value"] == pytest.approx(1.0, rel=1e-6)
    t2 = fs.direct_sum(two_point(1.0), two_point(1.0))
    inf = fs.connes_distance(t2, t2.algebra.pure_state(0),
                             t2.algebra.pure_state(2))
    assert inf.to_json()["value"] == "inf"


def test_detect_infinite_rejects_out_of_range_indices():
    t = fs.direct_sum(two_point(1.0), two_point(1.0))
    for i, j in ((0, 99), (0, -1), (99, 0), (-1, 0), (4, 4)):
        with pytest.raises(AlgebraMismatch):
            metric.detect_infinite(t, i, j)
    assert not metric.detect_infinite(t, 3, 2)


def _dilation_value_grad(k_mats, x, mu):
    """Reference smoothing: softmax over the eigenvalues of the Hermitian
    dilation [[0, M], [M*, 0]] of M = sum_i x_i K_i, with its gradient."""
    m = np.tensordot(x, k_mats, axes=1)
    n = m.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = m
    h[n:, :n] = m.conj().T
    lam, vec = np.linalg.eigh(h)
    w = np.exp(lam / mu - logsumexp(lam / mu))
    p, q = vec[:n, :], vec[n:, :]
    grad = 2 * np.real(np.einsum("ia,kij,ja,a->k", np.conj(p), k_mats, q, w))
    return mu * logsumexp(lam / mu), grad


def _gradient_triples():
    rng = np.random.default_rng(2008)
    return [
        pytest.param(fs.lattice_circle(8, 1.0)[1], id="circle_8"),  # degenerate s_i
        pytest.param(fs.lattice_interval(6, 2.0)[1], id="interval_6"),
        pytest.param(graph_triple(random_connected_geometry(rng, 5, 2)),
                     id="cyclic_5"),
    ]


@pytest.mark.parametrize("t", _gradient_triples())
def test_smoothed_gradient_matches_reference(t):
    """The SVD form agrees with the dilation eigh form and with central
    finite differences."""
    k_mats = metric._commutator_generators(t)
    rng = np.random.default_rng(7)
    x = rng.normal(size=t.algebra.k)
    for mu in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        val, grad = metric._smoothed_value_grad(k_mats, x, mu)
        ref_val, ref_grad = _dilation_value_grad(k_mats, x, mu)
        assert val == pytest.approx(ref_val, rel=1e-12)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))
        h = 1e-3 * mu
        fd = np.array([
            (metric._smoothed_value_grad(k_mats, x + h * e, mu)[0]
             - metric._smoothed_value_grad(k_mats, x - h * e, mu)[0]) / (2 * h)
            for e in np.eye(len(x))
        ])
        assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(grad)), mu


@pytest.mark.parametrize("t", _gradient_triples())
def test_subgradient_matches_finite_differences_complex(t):
    """Conjugated by a random unitary, the commutators are complex; the
    spectral-norm gradient must still be the derivative of the norm."""
    rng = np.random.default_rng(11)
    t = fs.conjugate_triple(t, haar_unitary(rng, t.rep_dim))
    k_mats = metric._commutator_generators(t)
    x = rng.normal(size=t.algebra.k)
    f, grad = metric._spectral_value_subgrad(k_mats, x)
    h = 1e-6
    fd = np.array([
        (metric._spectral_value_subgrad(k_mats, x + h * e)[0]
         - metric._spectral_value_subgrad(k_mats, x - h * e)[0]) / (2 * h)
        for e in np.eye(len(x))
    ])
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(f, 1.0)


@pytest.mark.parametrize("t", _gradient_triples() + [
    pytest.param(fs.direct_sum(fs.lattice_interval(3, 2.0)[1], two_point(0.5)),
                 id="interval_3+two_point"),
])
def test_matrix_entries_equal_pairwise_distances(t):
    seed = 3
    values = fs.distance_matrix(t, seed=seed).values
    for i in range(t.algebra.k):
        for j in range(i + 1, t.algebra.k):
            d = fs.connes_distance(t, t.algebra.pure_state(i),
                                   t.algebra.pure_state(j), seed=seed)
            assert values[i, j] == d.value


def test_per_triple_setup_runs_once(monkeypatch):
    calls = []
    original = triple.coupling_components

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(triple, "coupling_components", counting)
    t = fs.lattice_circle(6, 1.0)[1]
    fs.distance_matrix(t)
    assert len(calls) <= 1
    assert metric._commutator_generators(t) is metric._commutator_generators(t)


def test_kelley_takes_one_svd_per_point(monkeypatch):
    """Each LP point's value and cuts come from one SVD: the starting point
    and every LP solution cost one SVD each."""
    g = random_connected_geometry(np.random.default_rng(4), 4, extra_edges=2)
    t = graph_triple(g)
    k_mats = metric._commutator_generators(t)
    c = t.algebra.pure_state(0).weights - t.algebra.pure_state(2).weights
    masks = metric._component_masks(t)
    a_rows = np.vstack([c[None, :], masks])
    rhs = np.zeros(a_rows.shape[0])
    rhs[0] = 1.0
    x0 = np.linalg.lstsq(a_rows, rhs, rcond=None)[0]
    basis = metric.null_space(a_rows)
    best_f = metric._spectral_value_subgrad(k_mats, x0)[0]

    svds, points = [], []
    svd, linprog = np.linalg.svd, metric.linprog

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def counting_linprog(*args, **kwargs):
        res = linprog(*args, **kwargs)
        points.append(res.success)
        return res

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(metric, "linprog", counting_linprog)
    _, f, gap = metric._cutting_plane_refine(k_mats, x0, basis, x0, best_f)
    assert sum(points) >= 2
    assert len(svds) == 1 + sum(points)
    assert f <= best_f and gap >= 0.0


def _reference_cutting_plane_refine(k_mats, x0, basis, best_x, best_f):
    """Kelley refinement at scipy's default LP options, with neither the
    stall stop nor the one-point certificate: the reference the solver's
    loop must not fall behind."""
    dim = basis.shape[1]
    z = np.linalg.lstsq(basis, best_x - x0, rcond=None)[0]
    radius = 10.0 * (np.max(np.abs(z)) + np.max(np.abs(x0)) + 1.0)
    bounds = [(-radius, radius)] * dim + [(0.0, None)]
    cost = np.zeros(dim + 1)
    cost[-1] = 1.0
    rows, rhs = [], []
    lower = 0.0

    def add_cuts(point) -> float:
        u, s, vh = np.linalg.svd(metric._embedded(k_mats, point))
        for a in range(len(s)):
            if s[a] < s[0] - 1e-8 * max(s[0], 1.0):
                break
            w = metric._singular_pair_grad(k_mats, u[:, a], np.conj(vh[a]))
            row = np.empty(dim + 1)
            row[:dim] = w @ basis
            row[-1] = -1.0
            rows.append(row)
            rhs.append(-float(w @ x0))
        return float(s[0])

    add_cuts(best_x)
    for _ in range(metric.KELLEY_MAX_CUTS):
        res = linprog(cost, A_ub=np.asarray(rows), b_ub=np.asarray(rhs),
                      bounds=bounds, method="highs")
        if not res.success:
            break
        lower = max(lower, float(res.x[-1]))
        x = x0 + basis @ res.x[:dim]
        f = add_cuts(x)
        if f < best_f:
            best_f, best_x = f, x
        if best_f - lower <= metric.KELLEY_REL_GAP * max(best_f, 1e-12):
            break
    return best_x, best_f, max(best_f - lower, 0.0)


def _cyclic_triples():
    """The three fixed 4-vertex graphs with two extra edges, on which the
    spectral distance lies below the geodesic."""
    rng = np.random.default_rng([2008, 4, 2])
    return [pytest.param(graph_triple(random_connected_geometry(rng, 4, 2)),
                         id=f"cyclic_4_2.{n}") for n in range(3)]


def _conjugated(t):
    return fs.conjugate_triple(
        t, haar_unitary(np.random.default_rng(5), t.rep_dim))


def _counting_linprog(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(metric, "linprog", counting)
    return calls


def _refine_inputs(monkeypatch, t, i, j):
    """The arguments the solver hands to Kelley for the pair (i, j): the
    slice and the polished starting point."""
    seen = []
    refine = metric._cutting_plane_refine

    def capturing(*args):
        seen.append(args)
        return refine(*args)

    with monkeypatch.context() as mp:
        mp.setattr(metric, "_cutting_plane_refine", capturing)
        fs.connes_distance(t, t.algebra.pure_state(i), t.algebra.pure_state(j))
    return seen[0]


def test_circle_is_certified_without_lp(monkeypatch):
    """At the polished point of every circle_8 pair the cuts of that point
    alone close the gap, so no LP runs."""
    t = fs.lattice_circle(8, 1.0)[1]
    calls = _counting_linprog(monkeypatch)
    fs.distance_matrix(t)
    for i in range(t.algebra.k):
        for j in range(i + 1, t.algebra.k):
            d = fs.connes_distance(t, t.algebra.pure_state(i),
                                   t.algebra.pure_state(j))
            assert d.solver_residual * d.value <= 1e-10
    assert not calls


@pytest.mark.parametrize("t", _cyclic_triples())
def test_kelley_closes_the_gap_on_cyclic_graphs(monkeypatch, t):
    """Every pair closes its gap to 2e-10 relative within 40 LPs, and its
    best value is no worse than the reference loop's, which runs to the
    200-cut cap on some of these pairs."""
    for i in range(t.algebra.k):
        for j in range(i + 1, t.algebra.k):
            args = _refine_inputs(monkeypatch, t, i, j)
            with monkeypatch.context() as mp:
                calls = _counting_linprog(mp)
                _, f, gap = metric._cutting_plane_refine(*args)
            assert len(calls) <= 40, (i, j)
            assert gap / f <= 2e-10, (i, j)
            _, ref_f, _ = _reference_cutting_plane_refine(*args)
            assert f <= ref_f * (1.0 + 1e-12), (i, j)


@pytest.mark.parametrize("t", [
    pytest.param(fs.lattice_circle(8, 1.0)[1], id="circle_8"),
    pytest.param(_conjugated(fs.lattice_interval(4, 2.0)[1]),
                 id="interval_4_conjugated"),
] + _cyclic_triples())
def test_one_point_bound_never_exceeds_the_norm(monkeypatch, t):
    """The bound from the cuts of one point, at the polished point and at a
    random one, lies below ||M(x)|| at random points of the box."""
    k_mats = metric._commutator_generators(t)
    rng = np.random.default_rng(17)
    _, x0, basis, best_x, _ = _refine_inputs(monkeypatch, t, 0, 2)
    best_z = basis.T @ (best_x - x0)
    radius = 2.0 * np.max(np.abs(best_z)) + 1.0
    near = best_z + 1e-3 * rng.normal(size=(100, len(best_z)))
    samples = np.vstack([rng.uniform(-radius, radius, size=(200, len(best_z))),
                         np.clip(near, -radius, radius), best_z])
    for point in (best_x, x0 + basis @ rng.uniform(-radius, radius, len(best_z))):
        _, grads = metric._top_cuts(k_mats, point)
        bound = metric._one_point_bound(grads @ basis, grads @ x0, radius)
        for z in samples:
            f = metric._spectral_norm(k_mats, x0 + basis @ z)
            assert bound <= f * (1.0 + 1e-12)


def test_refinement_logs_its_stop(caplog):
    """One DEBUG record per refinement names why it stopped, with the LP
    calls and the relative gap as lazy arguments."""
    circle = fs.lattice_circle(8, 1.0)[1]
    cyclic = _cyclic_triples()[0].values[0]
    with caplog.at_level(logging.DEBUG, logger="finspec.metric"):
        fs.connes_distance(circle, circle.algebra.pure_state(0),
                           circle.algebra.pure_state(3))
        fs.connes_distance(cyclic, cyclic.algebra.pure_state(1),
                           cyclic.algebra.pure_state(3))
    records = [r for r in caplog.records if r.name == "finspec.metric"]
    assert len(records) == 2
    assert all(r.levelno == logging.DEBUG and r.args for r in records)
    reasons = [r.args[0] for r in records]
    assert reasons[0] == "certified at start" and records[0].args[1] == 0
    assert reasons[1] in ("converged", "stalled")
    assert records[1].args[1] >= 1
    assert all(r.args[2] <= 2e-10 for r in records)
    assert "LP calls" in records[1].getMessage()
