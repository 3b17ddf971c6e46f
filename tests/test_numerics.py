import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspec import numerics
from finspec.errors import NotCommuting, NotHermitian


def power_iteration_norm(m, iters=2000):
    """Independent spectral-norm estimate via power iteration on m*m."""
    a = m.conj().T @ m
    v = np.ones(a.shape[0], dtype=complex)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a @ v
        n = np.linalg.norm(w)
        if n == 0:
            return 0.0
        v = w / n
    return float(np.sqrt(np.real(np.vdot(v, a @ v))))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_operator_norm_against_power_iteration(rng):
    for _ in range(10):
        m = random_complex(rng, (6, 6))
        assert numerics.operator_norm(m) == pytest.approx(
            power_iteration_norm(m), rel=1e-8
        )


def test_operator_norm_rectangular(rng):
    m = random_complex(rng, (3, 7))
    s = np.linalg.svd(m, compute_uv=False)
    assert numerics.operator_norm(m) == pytest.approx(s[0], rel=1e-12)


def test_operator_norm_unitary_invariance(rng):
    m = random_complex(rng, (5, 5))
    z = random_complex(rng, (5, 5))
    q, _ = np.linalg.qr(z)
    assert numerics.operator_norm(q @ m) == pytest.approx(
        numerics.operator_norm(m), rel=1e-10
    )


def test_hermitian_eig_reconstruction(rng):
    a = random_complex(rng, (7, 7))
    h = a + a.conj().T
    w, v = numerics.hermitian_eig(h)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
    assert np.allclose(v.conj().T @ v, np.eye(7), atol=1e-10)
    assert np.all(np.diff(w) >= -1e-12)


def test_hermitian_eig_rejects_nonhermitian(rng):
    m = random_complex(rng, (4, 4))
    m[0, 1] += 10.0
    with pytest.raises(NotHermitian):
        numerics.hermitian_eig(m)


def test_simultaneous_diagonalize_family(rng):
    v, _ = np.linalg.qr(random_complex(rng, (6, 6)))
    d1 = np.diag(rng.standard_normal(6))
    d2 = np.diag(rng.integers(0, 3, size=6).astype(float))
    mats = [v @ d1 @ v.conj().T, v @ d2 @ v.conj().T]
    u, diags = numerics.simultaneous_diagonalize(mats)
    for m, diag in zip(mats, diags):
        off = u.conj().T @ m @ u
        assert np.linalg.norm(off - np.diag(np.diag(off))) < 1e-8
        assert np.allclose(np.diag(off), diag, atol=1e-8)


def test_simultaneous_diagonalize_rejects_paulis():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotCommuting):
        numerics.simultaneous_diagonalize([sx, sz])


def test_commutator_identities(rng):
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4))
    assert np.allclose(numerics.commutator(a, b), -numerics.commutator(b, a))
    assert np.allclose(
        numerics.anticommutator(a, b), numerics.anticommutator(b, a)
    )


def test_matrix_json_roundtrip(rng):
    m = random_complex(rng, (3, 3))
    doc = numerics.matrix_to_json(m)
    assert doc["dim"] == 3
    back = numerics.matrix_from_json(doc)
    assert np.allclose(back, m)
    for bad in (float("nan"), float("inf"), -float("inf")):
        doc["entries"][2][1] = [0.0, bad]
        with pytest.raises(ValueError):
            numerics.matrix_from_json(doc)


def test_rectangular_matrix_json_roundtrip(rng):
    m = random_complex(rng, (2, 4))
    doc = numerics.matrix_to_json(m)
    assert (doc["rows"], doc["cols"]) == (2, 4) and "dim" not in doc
    assert np.array_equal(numerics.matrix_from_json(doc), m)
    with pytest.raises(ValueError):
        numerics.matrix_from_json({**doc, "cols": 3})
    doc["entries"][1][3] = [float("nan"), 0.0]
    with pytest.raises(ValueError):
        numerics.matrix_from_json(doc)


def test_connected_parts_order():
    adjacency = np.zeros((6, 6), dtype=bool)
    adjacency[4, 1] = adjacency[5, 0] = adjacency[3, 5] = True
    assert numerics.connected_parts(adjacency) == [[0, 3, 5], [1, 4], [2]]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**30))
def test_operator_norm_scaling_property(n, seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (n, n))
    base = numerics.operator_norm(m)
    assert numerics.operator_norm(2.5 * m) == pytest.approx(2.5 * base, rel=1e-10)
    assert numerics.operator_norm(m.conj().T) == pytest.approx(base, rel=1e-10)


def reference_matrix_to_json(m):
    """The codec as per-entry loops, kept as the reference for the
    vectorized one."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    if rows == cols:
        return {"dim": rows, "entries": entries}
    return {"rows": rows, "cols": cols, "entries": entries}


def reference_matrix_from_json(obj):
    if "dim" in obj:
        rows = cols = int(obj["dim"])
    else:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError("entries array does not match declared dimension")
    m = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        for j, (re, im) in enumerate(row):
            m[i, j] = complex(re, im)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def test_matrix_codec_matches_reference_loops(rng):
    signed_zeros = np.array([[0.0, -0.0], [complex(-0.0, -0.0), complex(1, -0.0)]])
    for m in (random_complex(rng, (4, 4)), random_complex(rng, (2, 5)),
              rng.standard_normal((3, 3)) * 1e-300, signed_zeros,
              np.eye(6, dtype=complex)):
        doc = numerics.matrix_to_json(m)
        text = json.dumps(doc)
        assert text == json.dumps(reference_matrix_to_json(m))
        back = numerics.matrix_from_json(json.loads(text))
        expected = reference_matrix_from_json(json.loads(text))
        assert back.dtype == expected.dtype and back.shape == expected.shape
        assert back.tobytes() == expected.tobytes()  # zero signs included
    ints = {"dim": 1, "entries": [[[2, True]]]}
    assert numerics.matrix_from_json(ints) == reference_matrix_from_json(ints)


def _bad_entries():
    good = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cases = []
    for i, j, entry in ((0, 1, [1.0]), (0, 1, [1.0, 2.0, 3.0]), (1, 0, "ab"),
                        (1, 1, ["1.0", 0.0]), (1, 1, [1.0, "0"]),
                        (0, 0, [None, 0.0]), (0, 0, None), (0, 0, [[1.0], 0.0]),
                        (0, 0, [float("nan"), 0.0]), (1, 0, [0.0, float("inf")]),
                        (0, 0, [10 ** 400, 0])):
        entries = [[list(e) for e in row] for row in good]
        entries[i][j] = entry
        cases.append({"dim": 2, "entries": entries})
    cases.append({"dim": 2, "entries": [good[0], good[1][:1]]})  # ragged
    cases.append({"dim": 2, "entries": good[:1]})
    cases.append({"dim": 3, "entries": good})
    cases.append({"rows": 1, "cols": 4, "entries": good})
    cases.append({"dim": 2, "entries": "abcd"})
    cases.append({"dim": 2, "entries": 7})
    return cases


@pytest.mark.parametrize("doc", _bad_entries())
def test_matrix_from_json_rejects_what_the_loops_reject(doc):
    with pytest.raises((ValueError, TypeError, OverflowError)):
        reference_matrix_from_json(doc)
    with pytest.raises(ValueError):
        numerics.matrix_from_json(doc)
