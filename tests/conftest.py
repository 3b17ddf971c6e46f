"""Shared builders for the test suite."""

import os

# The suite's arrays are small, and BLAS threads only add overhead to them:
# on a 2-CPU host the grid oracle's (65536, 3) by (3,) product takes 7.8 ms
# with 2 OpenBLAS threads and 0.4 ms with 1.  The count is read when numpy
# is first imported, so it is pinned before that (pytest and its plugins
# do not import numpy).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import finspec as fs  # noqa: E402
from finspec.algebra import AlgebraHom  # noqa: E402
from finspec.geometry import (DiscreteGeometry, disjoint_union, graph_triple,
                              random_connected_geometry)


def haar_unitary(rng, n):
    """Haar-distributed unitary via QR of a complex Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def builtin_gallery():
    """The canonical small triples used across invariance and oracle tests.

    All entries have at most 3 characters so the full-resolution grid oracle
    stays tractable.
    """
    entries = []
    g, t = fs.two_point_geometry(1.0)
    entries.append(("two_point", g, t))
    g, t = fs.lattice_interval(2, 1.0)
    entries.append(("interval_2", g, t))
    g, t = fs.lattice_interval(3, 2.0)
    entries.append(("interval_3", g, t))
    g, t = fs.lattice_circle(3, 1.0)
    entries.append(("circle_3", g, t))
    return entries


def random_graph_triple(rng, k, extra_edges=1):
    g = random_connected_geometry(rng, k, extra_edges=extra_edges)
    return g, graph_triple(g)


def random_disconnected_geometry(rng, k1, k2):
    g1 = random_connected_geometry(rng, k1, extra_edges=0)
    g2 = random_connected_geometry(rng, k2, extra_edges=0)
    return disjoint_union(g1, g2)


def identity_witness(t1, t2, w):
    """Witness (phi, Phi) for t2 = conjugate_triple(t1, w)."""
    hom = AlgebraHom(t1.algebra, t2.algebra, tuple(range(t1.algebra.k)))
    return hom, w


def scrambled_sum(rng, triples):
    """Direct sum of the given triples conjugated by a random basis
    permutation. Returns (scrambled, expected character partition sizes)."""
    total = triples[0]
    for t in triples[1:]:
        total = fs.direct_sum(total, t)
    perm = rng.permutation(total.rep_dim)
    w = np.eye(total.rep_dim)[perm]
    return fs.conjugate_triple(total, w), [t.algebra.k for t in triples]


def reassembly_witness(t):
    """Decompose t and produce (reassembled, witness) with the witness
    mapping the block sum of the components back onto t."""
    components, parts, isometries = fs.decompose_detailed(t)
    total = components[0]
    for c in components[1:]:
        total = fs.direct_sum(total, c)
    phi_blocks = np.hstack(isometries)
    order = [c for chars in parts for c in chars]
    inverse = tuple(int(np.argwhere(np.asarray(order) == j)[0, 0])
                    for j in range(t.algebra.k))
    hom = AlgebraHom(total.algebra, t.algebra, inverse)
    return total, components, parts, (hom, phi_blocks)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
