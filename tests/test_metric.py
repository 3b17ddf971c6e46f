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
from finspec.geometry import (DiscreteGeometry, graph_triple,
                              random_connected_geometry)

from conftest import builtin_gallery, haar_unitary, random_graph_triple


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


def test_per_triple_setup_runs_once(monkeypatch):
    calls = {"coupling_components": [], "difference_edges": []}
    for name, seen in calls.items():
        original = getattr(triple, name)

        def counting(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(triple, name, counting)
    t = fs.lattice_circle(6, 1.0)[1]
    fs.distance_matrix(t)
    assert len(calls["coupling_components"]) <= 1
    assert len(calls["difference_edges"]) == 1
    assert metric._commutator_generators(t) is metric._commutator_generators(t)
    assert t.difference_edges is t.difference_edges


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


def _cyclic_geometries():
    """The three fixed 4-vertex graphs with two extra edges, on which the
    spectral distance lies below the geodesic."""
    rng = np.random.default_rng([2008, 4, 2])
    return [random_connected_geometry(rng, 4, 2) for _ in range(3)]


def _cyclic_triples():
    return [pytest.param(graph_triple(g), id=f"cyclic_4_2.{n}")
            for n, g in enumerate(_cyclic_geometries())]


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


def _dense_distance(t, w1, w2):
    """The distance from the dense solver (polish, then Kelley), also for a
    triple that connes_distance answers with one difference LP."""
    c = np.asarray(w1.weights) - np.asarray(w2.weights)
    _, f, gap = metric._minimize_slice(metric._commutator_generators(t), c,
                                       metric._component_masks(t))
    return metric.DistanceValue(1.0 / f, None, gap)


def _refine_inputs(monkeypatch, t, i, j):
    """The arguments the dense solver hands to Kelley for the pair (i, j):
    the slice and the polished starting point."""
    seen = []
    refine = metric._cutting_plane_refine

    def capturing(*args):
        seen.append(args)
        return refine(*args)

    with monkeypatch.context() as mp:
        mp.setattr(metric, "_cutting_plane_refine", capturing)
        _dense_distance(t, t.algebra.pure_state(i), t.algebra.pure_state(j))
    return seen[0]


def test_circle_is_certified_without_lp(monkeypatch):
    """At the polished point of every circle_8 pair the cuts of that point
    alone close the gap, so no LP runs."""
    t = fs.lattice_circle(8, 1.0)[1]
    calls = _counting_linprog(monkeypatch)
    for i in range(t.algebra.k):
        for j in range(i + 1, t.algebra.k):
            d = _dense_distance(t, t.algebra.pure_state(i),
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
        _dense_distance(circle, circle.algebra.pure_state(0),
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


# --- the difference LP: one exact LP when [D, pi(x)] is a weighted
# difference operator ------------------------------------------------------

def _in_degree(g):
    """Largest number of edges that share a vertex as their second endpoint."""
    return int(np.bincount([j for _, j, _ in g.edges], minlength=g.k).max())


def _criterion_3_graphs():
    """The 50 random graph triples of acceptance criterion 3, in its order."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(50):
        k = int(rng.integers(2, 7))
        out.append(random_graph_triple(rng, k, extra_edges=int(rng.integers(0, 3))))
    return out


def _difference_triples():
    """Every builtin-gallery triple and every criterion-3 graph in which no
    vertex is the second endpoint of two edges."""
    return [pytest.param(t, id=name) for name, _, t in builtin_gallery()] + [
        pytest.param(t, id=f"criterion_3.{n}")
        for n, (g, t) in enumerate(_criterion_3_graphs()) if _in_degree(g) <= 1]


def _pairwise_matrix(t):
    """The matrix of connes_distance answers, one call per pair."""
    k = t.algebra.k
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            values[i, j] = values[j, i] = fs.connes_distance(
                t, t.algebra.pure_state(i), t.algebra.pure_state(j)).value
    return values


def _sum_triples():
    """Direct sums with two and three coupling components, at lengths far
    apart, including a component of two characters."""
    two = fs.direct_sum(fs.lattice_interval(3, 2.0)[1], two_point(0.5))
    three = fs.direct_sum(fs.direct_sum(fs.lattice_circle(5, 1.3)[1],
                                        fs.lattice_circle(3, 0.5)[1]),
                          fs.lattice_circle(4, 1e3)[1])
    return [pytest.param(two, id="interval_3+two_point"),
            pytest.param(three, id="circle_5+circle_3+circle_4")]


@pytest.mark.parametrize("t", _gradient_triples() + _sum_triples()
                         + _difference_triples() + [
    pytest.param(fs.lattice_circle(32, 1.0)[1], id="circle_32"),
])
def test_matrix_entries_equal_pairwise_distances(t):
    """The matrix holds the connes_distance answer of every pair: the same
    value on the dense path, which solves each pair alone, and the same to
    1e-12 relative, with the same +inf pattern, where one LP per source
    answers the pairs of a difference triple."""
    values = fs.distance_matrix(t, seed=3).values
    pairwise = _pairwise_matrix(t)
    if t.difference_edges is None:
        assert np.array_equal(values, pairwise)
        return
    assert np.array_equal(np.isinf(values), np.isinf(pairwise))
    finite = np.isfinite(pairwise)
    assert values[finite] == pytest.approx(pairwise[finite], rel=1e-12, abs=0.0)


def test_difference_edges_found_exactly_at_in_degree_one():
    for g, t in _criterion_3_graphs():
        assert (t.difference_edges is not None) == (_in_degree(g) <= 1)


@pytest.mark.parametrize("t", _cyclic_triples() + [
    pytest.param(fs.standard_ko_triple(n), id=f"ko_{n}") for n in range(8)
] + [pytest.param(_conjugated(fs.lattice_circle(8, 1.0)[1]),
                  id="circle_8_conjugated")])
def test_difference_edges_absent_where_the_form_fails(t):
    """In-degree 2, no coupling at all, and a basis in which every entry of
    D is dense: the dense path answers."""
    assert t.difference_edges is None


@pytest.mark.parametrize("t", _difference_triples())
def test_difference_lp_matches_the_dense_solver(t):
    """On 10 random mixed-state pairs the difference LP agrees with the
    dense solver to 1e-9, its certificate attains the value with norm 1,
    and the edge formula is the spectral norm at random points."""
    rng = np.random.default_rng(31)
    k_mats = metric._commutator_generators(t)
    masks = metric._component_masks(t)
    k = t.algebra.k
    for _ in range(10):
        a, b = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        d = fs.connes_distance(t, State(t.algebra, a), State(t.algebra, b))
        _, f, _ = metric._minimize_slice(k_mats, a - b, masks)
        assert d.value * f == pytest.approx(1.0, rel=1e-9, abs=0.0)
        x = np.real(d.certificate.values)
        assert metric._spectral_norm(k_mats, x) == pytest.approx(1.0, rel=1e-12)
        assert abs((a - b) @ x) == pytest.approx(d.value, rel=1e-12)
        assert d.solver_residual * d.value <= 1e-9
        y = rng.normal(size=k)
        assert metric._edge_norm(t.difference_edges, y) == pytest.approx(
            metric._spectral_norm(k_mats, y), rel=1e-12)


def test_difference_lp_is_one_lp_per_source(monkeypatch):
    """A circle_8 matrix takes one LP per source but the last, 7 in all, and
    one pair takes one LP; neither runs the polish or Kelley."""
    t = fs.lattice_circle(8, 1.0)[1]
    calls = _counting_linprog(monkeypatch)

    def unused(*args, **kwargs):
        raise AssertionError("the dense solver ran")

    monkeypatch.setattr(metric, "_minimize_slice", unused)
    values = fs.distance_matrix(t).values
    assert len(calls) == 7
    assert np.all(np.isfinite(values))
    calls.clear()
    fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(3))
    assert len(calls) == 1


def test_source_lps_log_one_record_each(caplog):
    """Each source LP of a matrix logs one DEBUG record in the shape of the
    pair LP's, with the source character as the last argument."""
    t = fs.lattice_circle(8, 1.0)[1]
    with caplog.at_level(logging.DEBUG, logger="finspec.metric"):
        fs.distance_matrix(t)
    records = [r for r in caplog.records if r.name == "finspec.metric"]
    assert [r.args[3] for r in records] == list(range(7))
    for record in records:
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            "difference LP solved after 1 LP calls")
        assert record.args[:2] == ("solved", 1) and record.args[2] <= 1e-10


def test_failed_source_lp_falls_back_to_pairs(monkeypatch, caplog):
    """When a source's LP fails, its pairs go through connes_distance, and
    the matrix still holds the pairwise answers."""
    t = fs.lattice_circle(6, 1.0)[1]
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(1)
        res = linprog(*args, **kwargs)
        if len(calls) == 1:
            res.success = False
        return res

    monkeypatch.setattr(metric, "linprog", failing_first)
    with caplog.at_level(logging.DEBUG, logger="finspec.metric"):
        values = fs.distance_matrix(t).values
    failed = [r for r in caplog.records
              if r.name == "finspec.metric" and r.args[0] == "lp failed"]
    assert [r.args[3] for r in failed] == [0]
    # 5 source LPs, then one pair LP for each of source 0's five pairs.
    assert len(calls) == 5 + 5
    monkeypatch.undo()
    assert values == pytest.approx(_pairwise_matrix(t), rel=1e-12, abs=0.0)


def test_difference_lp_logs_one_record(caplog):
    """One DEBUG record per pair, in the shape of Kelley's: the method in
    the message, then the status, the LP calls and the relative gap as lazy
    arguments."""
    t = fs.lattice_circle(8, 1.0)[1]
    with caplog.at_level(logging.DEBUG, logger="finspec.metric"):
        fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(3))
    records = [r for r in caplog.records if r.name == "finspec.metric"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("difference LP solved after 1 LP calls")
    assert record.args[:2] == ("solved", 1) and record.args[2] <= 1e-10


def _scaled(g, lam):
    return DiscreteGeometry(g.labels,
                            tuple((i, j, lam * l) for i, j, l in g.edges))


@pytest.mark.parametrize("g, dense", [
    pytest.param(fs.lattice_circle(8, 1.0)[0], False, id="circle_8"),
    pytest.param(random_connected_geometry(np.random.default_rng(2008), 6, 0),
                 False, id="tree_6"),
] + [pytest.param(g, True, id=f"cyclic_4_2.{n}")
     for n, g in enumerate(_cyclic_geometries())])
def test_scale_covariance_from_1e_6_to_1e6(g, dense):
    """d(lam * lengths) = lam * d to 1e-9 relative, on both paths."""
    base = fs.distance_matrix(graph_triple(g)).values
    off = ~np.eye(g.k, dtype=bool)
    for lam in (1e-6, 1.0, 1e6):
        t = graph_triple(_scaled(g, lam))
        assert (t.difference_edges is None) == dense
        values = fs.distance_matrix(t).values
        assert np.max(np.abs(values[off] / (lam * base[off]) - 1.0)) <= 1e-9, lam


def test_edge_orientation_changes_the_distance():
    """Each edge direction rides with its first endpoint, so the distance
    depends on orientation: on the path a - b - c with both lengths l,
    d(a, c) = 2 l when the edges run a -> b -> c (difference LP), but
    sqrt(2) l when they run a -> b <- c (b is the second endpoint of both;
    dense path)."""
    length = 2.0
    for edges, expected in ((((0, 1, length), (1, 2, length)), 2.0 * length),
                            (((0, 1, length), (2, 1, length)),
                             math.sqrt(2.0) * length)):
        t = graph_triple(DiscreteGeometry(("a", "b", "c"), edges))
        d = fs.connes_distance(t, t.algebra.pure_state(0), t.algebra.pure_state(2))
        assert d.value == pytest.approx(expected, rel=1e-9)


def test_difference_lp_on_a_disjoint_sum():
    """Mixed states that put equal weight on each component of a disjoint
    sum are at a finite distance, which the difference LP finds as the
    dense solver does."""
    t = fs.direct_sum(fs.lattice_interval(3, 2.0)[1], fs.lattice_interval(4, 1.0)[1])
    assert t.difference_edges is not None and len(t.components) == 2
    rng = np.random.default_rng(5)
    k_mats = metric._commutator_generators(t)
    masks = metric._component_masks(t)
    for _ in range(10):
        share = rng.dirichlet(np.ones(2))
        a, b = np.zeros((2, t.algebra.k))
        for p, comp in zip(share, t.components):
            a[list(comp)] = p * rng.dirichlet(np.ones(len(comp)))
            b[list(comp)] = p * rng.dirichlet(np.ones(len(comp)))
        d = fs.connes_distance(t, State(t.algebra, a), State(t.algebra, b))
        _, f, _ = metric._minimize_slice(k_mats, a - b, masks)
        assert d.value * f == pytest.approx(1.0, rel=1e-9, abs=0.0)


# --- the grid oracle: screens on the commutator's support, one scan of
# each distinct grid value, early stop at the incumbent ----------------------

def _reference_axis(box, grid, complex_phases):
    """The oracle's grid axis before the complex values were made distinct:
    the reference the scan must agree with."""
    axis = np.linspace(-box, box, grid)
    if complex_phases > 0:
        phases = np.exp(2j * np.pi * np.arange(complex_phases) / complex_phases)
        axis = np.unique(np.concatenate([axis[None, :] * ph for ph in phases]))
    return axis


def _reference_grid_scan(k_mats, c, axis, k, best):
    """The oracle's scan with full matrices, row and column screens on them
    and no early stop: the reference the screened scan must agree with."""
    n_axis = len(axis)
    total = n_axis ** k
    for start in range(0, total, metric.GRID_CHUNK):
        idx = np.arange(start, min(start + metric.GRID_CHUNK, total))
        coords = np.empty((len(idx), k), dtype=axis.dtype)
        rem = idx
        for d in range(k - 1, -1, -1):
            coords[:, d] = axis[rem % n_axis]
            rem = rem // n_axis
        obj = np.abs(coords @ c)
        cand = np.nonzero(obj > best + 1e-15)[0]
        if cand.size == 0:
            continue
        order = cand[np.argsort(-obj[cand])]
        for block in np.array_split(order, max(1, len(order) // 4096)):
            mats = np.tensordot(coords[block], k_mats, axes=1)
            row = np.sqrt(np.max(np.sum(np.abs(mats) ** 2, axis=2), axis=1))
            col = np.sqrt(np.max(np.sum(np.abs(mats) ** 2, axis=1), axis=1))
            ok = (row <= 1.0 + 1e-9) & (col <= 1.0 + 1e-9)
            if not np.any(ok):
                continue
            sel = block[ok]
            smax = np.linalg.svd(mats[ok], compute_uv=False)[:, 0]
            feas = sel[smax <= 1.0 + 1e-9]
            if feas.size:
                best = max(best, float(np.max(obj[feas])))
    return best


def _reference_brute_force(t, w1, w2, box, grid, complex_phases=0):
    c = np.asarray(w1.weights) - np.asarray(w2.weights)
    k_mats = t.commutators
    axis = _reference_axis(box, grid, complex_phases)
    k = t.algebra.k
    stride = max(1, len(axis) // 24)
    best = _reference_grid_scan(k_mats, c, axis[::stride], k, 0.0)
    return max(best, _reference_grid_scan(k_mats, c, axis, k, best))


def _oracle_triples():
    tree = random_connected_geometry(np.random.default_rng(3), 3, 0)
    cyclic = random_connected_geometry(np.random.default_rng(4), 4, 2)
    interval = fs.lattice_interval(3, 2.0)[1]
    return [
        pytest.param(two_point(1.0), id="two_point"),
        pytest.param(fs.lattice_interval(2, 1.0)[1], id="interval_2"),
        pytest.param(interval, id="interval_3"),
        pytest.param(fs.lattice_circle(3, 1.0)[1], id="circle_3"),
        pytest.param(fs.lattice_circle(4, 1.0)[1], id="circle_4"),
        pytest.param(graph_triple(tree), id="tree_3"),
        pytest.param(graph_triple(cyclic), id="cyclic_4"),
        pytest.param(_conjugated(interval), id="conjugated_interval_3"),
    ]


def _oracle_pairs(t, seed):
    """Every pair of pure states, then three seeded pairs of mixed states."""
    a = t.algebra
    pairs = [(a.pure_state(i), a.pure_state(j))
             for i in range(a.k) for j in range(i + 1, a.k)]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        pairs.append(tuple(State(a, tuple(rng.dirichlet(np.ones(a.k))))
                           for _ in range(2)))
    return pairs


@pytest.mark.parametrize("t", _oracle_triples())
def test_oracle_matches_the_reference_scan(t):
    """Real grids give bitwise the reference's answer.  Complex grids hold
    each value a w^m once where the reference kept near-copies a rounding
    error apart, so there the answers agree to 1e-12 relative.  Spacings
    of 0.2, 1 and 0.5 divide the edge lengths of the regular triples, so
    that their best grid points lie on the boundary ||[D, pi(x)]|| = 1,
    where a screen that rejected a feasible point would show.  On the
    61-point grid the full sweep improves on its strided pre-pass (by 0.003
    to 0.27), where a scan that stopped too early would show."""
    small = t.algebra.k <= 3
    real_grids = ((4.0, 41), (4.0, 61)) if small else ((4.0, 9), (2.0, 9))
    for n, (w1, w2) in enumerate(_oracle_pairs(t, 9)):
        for box, grid in real_grids:
            got = fs.brute_force_distance(t, w1, w2, box=box, grid=grid)
            want = _reference_brute_force(t, w1, w2, box, grid)
            assert got == want, (n, box, got, want)
        if small:
            got = fs.brute_force_distance(t, w1, w2, box=4.0, grid=9,
                                          complex_phases=4)
            want = _reference_brute_force(t, w1, w2, 4.0, 9, 4)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), n


def test_scan_stops_at_the_incumbent():
    """Blocks run in descending objective, so once a block holds a feasible
    point, no later block of the chunk can beat it and none is screened."""
    t = fs.lattice_interval(3, 2.0)[1]
    c = np.array([1.0, 0.0, -1.0])
    axis = metric._grid_axis(4.0, 31, 0)      # 29 791 points: one chunk
    screen = metric._Screen(t.commutators)
    passes, feasible = screen.passes, screen.feasible
    events = []

    def recording_passes(coords):
        events.append("screen")
        return passes(coords)

    def recording_feasible(coords):
        ok = feasible(coords)
        events.append("feasible" if ok.any() else "infeasible")
        return ok

    screen.passes, screen.feasible = recording_passes, recording_feasible
    best = metric._grid_scan(screen, c, axis, 3, 0.0)
    assert best == _reference_grid_scan(t.commutators, c, axis, 3, 0.0)
    assert events.count("screen") >= 3
    assert events.index("feasible") == len(events) - 1


@pytest.mark.parametrize("grid, phases, scans", [
    (21, 0, 1), (47, 0, 1), (21, 4, 1), (48, 0, 2), (61, 0, 2),
])
def test_coarse_pass_only_when_it_is_coarser(monkeypatch, grid, phases, scans):
    """Below 48 axis values the strided pre-pass would be the whole grid,
    so one scan runs; from 48 values the pre-pass runs first.  The CLI's
    grids (21 real values, 41 complex) take one scan."""
    t = fs.lattice_interval(3, 2.0)[1]
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(2)
    axis = metric._grid_axis(4.0, grid, phases)
    assert (len(axis) < 48) == (scans == 1)
    calls = []
    scan = metric._grid_scan

    def counting(*args):
        calls.append(len(args[2]))
        return scan(*args)

    monkeypatch.setattr(metric, "_grid_scan", counting)
    got = fs.brute_force_distance(t, w1, w2, box=4.0, grid=grid,
                                  complex_phases=phases)
    assert len(calls) == scans and calls[-1] == len(axis)
    want = _reference_brute_force(t, w1, w2, 4.0, grid, phases)
    if phases:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert got == want


def test_oracle_with_vanishing_commutators():
    """With D = 0 every grid point is feasible and no entry of [D, pi(x)] is
    ever nonzero: the screen has nothing to read and rejects nothing."""
    t = two_point(1.0)
    flat = triple.SpectralTriple(t.algebra, np.zeros_like(t.dirac), t.grading,
                                 t.real_structure, t.parity)
    w1, w2 = flat.algebra.pure_state(0), flat.algebra.pure_state(1)
    for phases in (0, 4):
        got = fs.brute_force_distance(flat, w1, w2, box=4.0, grid=21,
                                      complex_phases=phases)
        assert got == _reference_brute_force(flat, w1, w2, 4.0, 21, phases)
        assert got == pytest.approx(8.0, rel=1e-15)


@pytest.mark.parametrize("grid", [5, 21])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_complex_axis_holds_each_value_once(grid, p):
    box = 4.0
    axis = metric._grid_axis(box, grid, p)
    gaps = np.abs(axis[:, None] - axis[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-12 * box
    half = grid // 2
    assert len(axis) == (1 + p * half if p % 2 == 0 else 1 + 2 * p * half)
    # The real values the complex axis holds are exactly symmetric.
    real = np.sort(axis[axis.imag == 0].real)
    assert len(real) == grid
    assert np.array_equal(real, -real[::-1])
    # The real grid is linspace's own, so real answers keep every bit.
    assert np.array_equal(metric._grid_axis(box, grid, 0),
                          np.linspace(-box, box, grid))


@pytest.mark.parametrize("kwargs", [
    {"grid": 0}, {"grid": 1}, {"box": -4.0}, {"box": 0.0},
    {"box": math.inf}, {"box": math.nan}, {"complex_phases": -2},
])
def test_oracle_rejects_invalid_arguments(kwargs):
    t = two_point(1.0)
    w1, w2 = t.algebra.pure_state(0), t.algebra.pure_state(1)
    args = {"box": 4.0, "grid": 21, **kwargs}
    with pytest.raises(ValueError):
        fs.brute_force_distance(t, w1, w2, **args)
    with pytest.raises(ValueError):   # equal states are no way around it
        fs.brute_force_distance(t, w1, w1, **args)
    if "complex_phases" not in kwargs:
        with pytest.raises(ValueError):
            metric.grid_resolution_bound(t, args["box"], args["grid"])
