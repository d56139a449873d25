"""Tests for the box geometry, edge sets, and norm conventions."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_lab import lattice

import oracles


# ---------------------------------------------------------------------------
# vertex and edge enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,N,count",
    [(2, 2, 8), (2, 3, 12), (3, 2, 26)],
)
def test_boundary_vertex_counts(d, N, count):
    verts = oracles.as_tuples(lattice.boundary_vertices(d, N))
    assert len(verts) == count
    assert len(set(verts)) == count


def test_d2n2_boundary_is_everything_but_center():
    verts = set(oracles.as_tuples(lattice.boundary_vertices(2, 2)))
    expected = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
    assert verts == expected


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("N", range(2, 11))
def test_boundary_count_formula(d, N):
    # shell size is the closed box minus the open box
    assert len(lattice.boundary_vertices(d, N)) == (N + 1) ** d - (N - 1) ** d


def test_boundary_order_is_lexicographic():
    verts = oracles.as_tuples(lattice.boundary_vertices(2, 3))
    assert verts == sorted(verts)


def test_interior_vertices():
    assert oracles.as_tuples(lattice.interior_vertices(2, 2)) == [(1, 1)]
    inner = oracles.as_tuples(lattice.interior_vertices(3, 4))
    assert len(inner) == 27
    assert all(all(0 < c < 4 for c in v) for v in inner)


@pytest.mark.parametrize("d,N,count", [(2, 2, 16), (2, 3, 24)])
def test_tangential_edge_counts(d, N, count):
    assert len(lattice.tangential_edges(d, N)) == count


def test_tangential_contains_both_orientations():
    edges = oracles.as_tuples(lattice.tangential_edges(2, 2))
    assert ((0, 0), (0, 1)) in edges
    assert ((0, 1), (0, 0)) in edges


def test_tangential_edges_come_in_both_orientations_and_normal_edges_once():
    tangential = oracles.as_tuples(lattice.tangential_edges(2, 8))
    assert len(tangential) == 64
    assert len({frozenset(e) for e in tangential}) == 32
    assert {(head, tail) for tail, head in tangential} == set(tangential)
    normal = oracles.as_tuples(lattice.normal_edges(2, 8))
    assert len({frozenset(e) for e in normal}) == len(normal) == 28


def test_normal_edges_d2n2_exact():
    edges = oracles.as_tuples(lattice.normal_edges(2, 2))
    assert sorted(edges) == [
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
        ((1, 2), (1, 1)),
        ((2, 1), (1, 1)),
    ]


def test_normal_edge_count_d2n3():
    assert len(lattice.normal_edges(2, 3)) == 8


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_normal_edge_tails_are_face_interiors(d, N):
    edges = oracles.as_tuples(lattice.normal_edges(d, N))
    tails = [e[0] for e in edges]
    # exactly one inward edge per face-interior vertex
    assert len(tails) == len(set(tails))
    for tail, head in edges:
        extreme = [i for i, c in enumerate(tail) if c in (0, N)]
        assert len(extreme) == 1
        assert all(0 < c < N for c in head)
        assert sum(abs(a - b) for a, b in zip(tail, head)) == 1


@pytest.mark.parametrize("d,N,count", [(2, 2, 24), (2, 3, 40)])
def test_full_edge_set_counts(d, N, count):
    assert len(lattice.full_edge_set(d, N)) == count


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_edge_set_relations(d, N):
    tan = set(oracles.as_tuples(lattice.tangential_edges(d, N)))
    nor = set(oracles.as_tuples(lattice.normal_edges(d, N)))
    full = set(oracles.as_tuples(lattice.full_edge_set(d, N)))
    assert tan.isdisjoint(nor)
    assert tan <= full
    assert nor <= full
    # membership criterion: the edge midpoint leaves the open inner box
    for tail, head in full:
        mid = [(a + b) / 2 for a, b in zip(tail, head)]
        assert not all(1 <= m <= N - 1 for m in mid)


SETS = [
    "boundary_vertices",
    "interior_vertices",
    "tangential_edges",
    "normal_edges",
    "full_edge_set",
]


@pytest.mark.parametrize(
    "d,N", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (3, 5), (4, 2), (4, 4)]
)
def test_edge_and_vertex_arrays_match_the_enumeration_oracle(d, N):
    # exact equality, order included: Neumann data is indexed by normal_edges
    for name in SETS:
        got = getattr(lattice, name)(d, N)
        expected = np.array(getattr(oracles, name)(d, N), dtype=np.intp)
        assert got.dtype == np.intp
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


def test_edge_sets_at_target_sizes_stay_read_only_and_small():
    builders = (lattice.tangential_edges, lattice.normal_edges, lattice.full_edge_set)
    lattice._edges.cache_clear()
    tracemalloc.start()
    try:
        sets = [build(3, 64) for build in builders]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-box (V, 2d, d) candidate array alone would peak near 100 MB
    assert peak < 4 * sum(e.nbytes for e in sets)
    for a in sets + [lattice.boundary_vertices(3, 4), lattice.interior_vertices(3, 4)]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    d, N = 2, 512
    assert len(lattice.boundary_vertices(d, N)) == (N + 1) ** d - (N - 1) ** d
    assert len(lattice.normal_edges(d, N)) == 2 * d * (N - 1) ** (d - 1)
    assert lattice.full_edge_set(d, N).shape == (
        len(lattice.tangential_edges(d, N)) + 2 * len(lattice.normal_edges(d, N)), 2, d
    )


def test_cached_edge_sets_are_shared_safely_between_threads():
    # more workers than cores and more distinct sets than cache entries, so
    # the bounded cache is filled and evicted concurrently
    boxes = [(2, 5), (2, 9), (3, 4), (3, 6)]
    builders = (lattice.tangential_edges, lattice.normal_edges, lattice.full_edge_set)
    jobs = [(build, d, N) for d, N in boxes for build in builders]
    expected = {(b, d, N): np.array(b(d, N)) for b, d, N in jobs}

    def work(offset):
        for i in range(60):
            build, d, N = jobs[(offset + i) % len(jobs)]
            got = build(d, N)
            if got.flags.writeable or not np.array_equal(got, expected[build, d, N]):
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lattice._edges.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [pool.submit(work, k) for k in range(8)]
            assert all(r.result(timeout=60) for r in results)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


def test_laplacian_of_constant_and_linear():
    u = np.full((5, 5), 3.5)
    assert lattice.discrete_laplacian(u, (2, 2)) == 0.0
    x, y = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    v = 2.0 * x - 5.0 * y
    for p in [(1, 1), (2, 3), (3, 2)]:
        assert lattice.discrete_laplacian(v, p) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_of_x_squared():
    x, _ = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    u = (x**2).astype(float)
    assert lattice.discrete_laplacian(u, (1, 1)) == 2.0


def test_laplacian_missing_neighbour_error():
    u = np.zeros((4, 4))
    with pytest.raises(ValueError, match=r"\(0, 1\)|\(-1, 1\)"):
        lattice.discrete_laplacian(u, (0, 1))


def test_laplacian_periodic_axis():
    u = np.cos(2 * np.pi * np.arange(6) / 6)[:, None] * np.ones((6, 4))
    val = lattice.discrete_laplacian(u, (0, 2), periodic_axes=(0,))
    direct = u[1, 2] + u[5, 2] + u[0, 1] + u[0, 3] - 4 * u[0, 2]
    assert val == pytest.approx(direct, abs=1e-14)


def test_laplacian_interior_matches_pointwise():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 5))
    inner = lattice.laplacian_interior(u)
    for i in range(1, 5):
        for j in range(1, 4):
            assert inner[i - 1, j - 1] == pytest.approx(
                oracles.laplacian_at(u, (i, j)), abs=1e-12
            )


def test_edge_gradient_values():
    x, _ = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
    u = 3.0 * x
    assert lattice.edge_gradient(u, ((0, 0), (1, 0))) == 3.0
    assert lattice.edge_gradient(np.full((3, 3), 1.5), ((0, 0), (0, 1))) == 0.0


def test_edge_gradient_out_of_domain():
    with pytest.raises(ValueError, match="outside"):
        lattice.edge_gradient(np.zeros((3, 3)), ((0, 0), (0, 3)))


def test_edge_gradients_reject_endpoints_outside_and_bad_shapes():
    u = np.arange(9.0).reshape(3, 3)
    # a negative coordinate would otherwise wrap to the far side of u
    for edges in ([((0, 0), (0, -1))], [((1, 1), (1, 2)), ((3, 0), (2, 0))]):
        with pytest.raises(ValueError, match="outside the domain") as single:
            lattice.edge_gradient(u, edges[-1])
        with pytest.raises(ValueError, match="outside the domain") as batch:
            lattice.edge_gradients(u, edges)
        assert str(batch.value) == str(single.value)
    for shape in [(2, 2), (1, 2, 3), (1, 3, 2)]:
        with pytest.raises(ValueError, match="edge array"):
            lattice.edge_gradients(u, np.zeros(shape, dtype=int))
    edges = lattice.full_edge_set(2, 2)
    np.testing.assert_array_equal(
        lattice.edge_gradients(u, edges), [lattice.edge_gradient(u, e) for e in edges]
    )
    assert lattice.edge_gradients(u, np.zeros((0, 2, 2), dtype=int)).shape == (0,)


def test_laplacian_is_divergence_of_outgoing_gradients():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((5, 5, 5))
    x = (2, 1, 3)
    outgoing = []
    for ax in range(3):
        for s in (-1, 1):
            head = list(x)
            head[ax] += s
            outgoing.append((x, tuple(head)))
    total = sum(lattice.edge_gradient(u, e) for e in outgoing)
    assert lattice.discrete_laplacian(u, x) == pytest.approx(total, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    st.lists(st.floats(-100, 100), min_size=1, max_size=12),
)
def test_edge_gradient_antisymmetry_and_norm_triangle(xs, ys):
    n = min(len(xs), len(ys))
    a = np.array(xs[:n])
    b = np.array(ys[:n])
    u = np.stack([a, b])
    for j in range(n):
        e = ((0, j), (1, j))
        rev = ((1, j), (0, j))
        assert lattice.edge_gradient(u, rev) == -lattice.edge_gradient(u, e)
    for p in (1.0, 2.0, 3.5):
        lhs = lattice.lp_norm(a + b, p)
        rhs = lattice.lp_norm(a, p) + lattice.lp_norm(b, p)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# norms and layer means
# ---------------------------------------------------------------------------


def test_lp_norm_basics():
    assert lattice.lp_norm(np.zeros(7), 2) == 0.0
    assert lattice.lp_norm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert lattice.lp_norm([1.0, 1.0, 1.0, 1.0], lattice.INFINITY) == 1.0
    assert lattice.lp_norm([1.0, -2.0], np.inf) == 2.0


def test_lp_norm_rejects_small_p():
    with pytest.raises(ValueError):
        lattice.lp_norm([1.0], 0.5)
    with pytest.raises(ValueError):
        lattice.lp_norm([1.0], "sup")


def test_lp_norm_monotone():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(20)
    w = v.copy()
    w[3] *= 2.0
    for p in (1, 2, np.inf):
        assert lattice.lp_norm(w, p) >= lattice.lp_norm(v, p) - 1e-12


def test_normalized_norm_example():
    # two points per axis at h = pi, d = 1: (pi * (1 + 1))^(1/1) = 2 pi
    val = lattice.normalized_lp_norm([1.0, 1.0], 1, np.pi)
    assert val == pytest.approx(2 * np.pi, rel=1e-14)


def test_normalized_norm_homogeneity_and_rejects():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((4, 4))
    h = np.pi / 2
    base = lattice.normalized_lp_norm(v, 2, h)
    assert lattice.normalized_lp_norm(3.0 * v, 2, h) == pytest.approx(3.0 * base)
    with pytest.raises(ValueError):
        lattice.normalized_lp_norm(v, 2, 0.77)
    with pytest.raises(ValueError):
        lattice.normalized_lp_norm(v, lattice.INFINITY, h)


def test_layer_mean():
    u = np.full((6, 4), 2.5)
    assert lattice.layer_mean(u, 1) == 2.5
    # coordinate values on I_2 = {-1, 0, 1, 2} in wrap order (0, 1, 2, -1)
    coords = np.array([0.0, 1.0, 2.0, -1.0])
    strip = np.broadcast_to(coords[:, None], (4, 3))
    assert lattice.layer_mean(strip, 0) == pytest.approx(0.5)
    odd = np.array([0.0, 1.0, 0.0, -1.0])[:, None] * np.ones((4, 2))
    assert lattice.layer_mean(odd, 1) == 0.0
    with pytest.raises(ValueError):
        lattice.layer_mean(u, 4)
