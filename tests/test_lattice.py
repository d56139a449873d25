"""Tests for the box geometry, edge sets, and norm conventions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_lab import lattice

import oracles
import proof_chain


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
    assert oracles.interior_vertices(2, 2) == [(1, 1)]
    inner = oracles.interior_vertices(3, 4)
    assert len(inner) == 27
    assert all(all(0 < c < 4 for c in v) for v in inner)
    shell = oracles.as_tuples(lattice.boundary_vertices(3, 4))
    assert sorted(inner + shell) == list(itertools.product(range(5), repeat=3))


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
    assert len(oracles.full_edge_set(d, N)) == count
    assert len(lattice.tangential_edges(d, N)) + 2 * len(lattice.normal_edges(d, N)) == count


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_edge_set_relations(d, N):
    tan = set(oracles.as_tuples(lattice.tangential_edges(d, N)))
    nor = set(oracles.as_tuples(lattice.normal_edges(d, N)))
    full = set(oracles.full_edge_set(d, N))
    assert tan.isdisjoint(nor)
    # the full set, whose norm the proof chain derives from the two, is
    # exactly the tangential edges and the normal edges in both orientations
    assert full == tan | nor | {(head, tail) for tail, head in nor}
    # membership criterion: the edge midpoint leaves the open inner box
    for tail, head in full:
        mid = [(a + b) / 2 for a, b in zip(tail, head)]
        assert not all(1 <= m <= N - 1 for m in mid)


SETS = [
    "boundary_vertices",
    "tangential_edges",
    "normal_edges",
]


@pytest.mark.parametrize(
    "d,N", [(2, 2), (2, 3), (2, 5), (2, 8), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (4, 4)]
)
def test_edge_and_vertex_arrays_match_the_enumeration_oracle(d, N):
    # exact equality, order included: Neumann data is indexed by normal_edges,
    # and lp_norm sums the gradients in edge order, so byte-identical sweep
    # rows depend on it
    for name in SETS:
        got = getattr(lattice, name)(d, N)
        expected = np.array(getattr(oracles, name)(d, N), dtype=np.intp)
        assert got.dtype == np.intp
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


def test_edge_sets_at_target_sizes_stay_read_only_and_small():
    builders = (lattice.tangential_edges, lattice.normal_edges)
    tracemalloc.start()
    try:
        sets = [build(3, 64) for build in builders]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-box (V, 2d, d) candidate array alone would peak near 100 MB
    assert peak < 4 * sum(e.nbytes for e in sets)
    for a in sets + [lattice.boundary_vertices(3, 4)]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    d, N = 2, 512
    assert len(lattice.boundary_vertices(d, N)) == (N + 1) ** d - (N - 1) ** d
    assert len(lattice.normal_edges(d, N)) == 2 * d * (N - 1) ** (d - 1)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


def test_laplacian_of_constant_and_linear():
    u = np.full((5, 5), 3.5)
    np.testing.assert_array_equal(proof_chain.laplacian_interior(u), 0.0)
    x, y = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    v = 2.0 * x - 5.0 * y
    np.testing.assert_allclose(proof_chain.laplacian_interior(v), 0.0, atol=1e-12)


def test_laplacian_of_x_squared():
    x, _ = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    u = (x**2).astype(float)
    assert proof_chain.laplacian_interior(u).tolist() == [[2.0]]


def test_laplacian_periodic_axis():
    u = np.cos(2 * np.pi * np.arange(6) / 6)[:, None] * np.ones((6, 4))
    # axis 0 keeps all 6 rows; column 2 sits at position 1 of the inner columns
    val = proof_chain.laplacian_interior(u, periodic_axes=(0,))[0, 1]
    direct = u[1, 2] + u[5, 2] + u[0, 1] + u[0, 3] - 4 * u[0, 2]
    assert val == pytest.approx(direct, abs=1e-14)


def test_laplacian_interior_matches_pointwise():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 5))
    for periodic in [(), (0,)]:
        inner = proof_chain.laplacian_interior(u, periodic_axes=periodic)
        offset = [0 if ax in periodic else 1 for ax in range(2)]
        for pos in np.ndindex(inner.shape):
            x = tuple(p + o for p, o in zip(pos, offset))
            assert inner[pos] == pytest.approx(
                oracles.laplacian_at(u, x, periodic), abs=1e-12
            )


def test_edge_gradient_values():
    x, _ = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
    u = 3.0 * x
    assert lattice.edge_gradients(u, [((0, 0), (1, 0))]).tolist() == [3.0]
    flat = np.full((3, 3), 1.5)
    assert lattice.edge_gradients(flat, [((0, 0), (0, 1))]).tolist() == [0.0]


def test_edge_gradient_out_of_domain():
    with pytest.raises(ValueError, match="outside"):
        lattice.edge_gradients(np.zeros((3, 3)), [((0, 0), (0, 3))])


def test_edge_gradients_reject_endpoints_outside_and_bad_shapes():
    u = np.arange(9.0).reshape(3, 3)
    # a negative coordinate would otherwise wrap to the far side of u
    for edges, bad in (
        ([((0, 0), (0, -1))], "(0, -1)"),
        ([((1, 1), (1, 2)), ((3, 0), (2, 0))], "(3, 0)"),
    ):
        with pytest.raises(ValueError) as batch:
            lattice.edge_gradients(u, edges)
        assert str(batch.value) == f"edge endpoint {bad} lies outside the domain"
    for shape in [(2, 2), (1, 2, 3), (1, 3, 2)]:
        with pytest.raises(ValueError, match="edge array"):
            lattice.edge_gradients(u, np.zeros(shape, dtype=int))
    edges = np.array(oracles.full_edge_set(2, 2))
    np.testing.assert_array_equal(
        lattice.edge_gradients(u, edges),
        [u[head] - u[tail] for tail, head in oracles.full_edge_set(2, 2)],
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
    total = lattice.edge_gradients(u, outgoing).sum()
    inner = proof_chain.laplacian_interior(u)[tuple(c - 1 for c in x)]
    assert inner == pytest.approx(total, abs=1e-12)


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
    up = np.array([((0, j), (1, j)) for j in range(n)])
    np.testing.assert_array_equal(
        lattice.edge_gradients(u, up[:, ::-1]), -lattice.edge_gradients(u, up)
    )
    for p in (1.0, 2.0, 3.5):
        lhs = lattice.lp_norm(a + b, p)
        rhs = lattice.lp_norm(a, p) + lattice.lp_norm(b, p)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_lp_norm_basics():
    assert lattice.lp_norm(np.zeros(7), 2) == 0.0
    assert lattice.lp_norm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert lattice.lp_norm([1.0, 1.0, 1.0, 1.0], math.inf) == 1.0
    assert lattice.lp_norm([1.0, -2.0], np.inf) == 2.0
    # a function of slope 1 along axis 0 has max gradient 1 on both edge sets
    x = np.indices((4, 4))[0].astype(float)
    for edges in (lattice.tangential_edges(2, 3), lattice.normal_edges(2, 3)):
        assert lattice.lp_norm(lattice.edge_gradients(x, edges), math.inf) == 1.0


def test_lp_norm_outside_the_double_range_of_its_power_sum():
    # sum |f|^p overflows to inf, underflows to 0, or lands among the subnormals
    assert lattice.lp_norm([1e200, 1e200], 2) == pytest.approx(math.sqrt(2) * 1e200)
    assert lattice.lp_norm([1e-200, 1e-200], 2) == pytest.approx(math.sqrt(2) * 1e-200)
    assert lattice.lp_norm([1e-160, -1e-160], 2) == pytest.approx(math.sqrt(2) * 1e-160)
    assert lattice.lp_norm([2.0, -3.0], 1000) == pytest.approx(3.0)
    assert lattice.lp_norm([2.0, -3.0], 1000) >= 3.0
    assert math.isinf(lattice.lp_norm([np.inf, 1.0], 2))
    assert math.isnan(lattice.lp_norm([np.nan, 1.0], 2))


def test_lp_norm_rejects_small_p():
    with pytest.raises(ValueError):
        lattice.lp_norm([1.0], 0.5)
    with pytest.raises(ValueError):
        lattice.lp_norm([1.0], "sup")
    # NaN compares False with 1, and -inf is no maximum norm
    for p in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="at least 1"):
            lattice.lp_norm([1.0, -2.0], p)


def test_lp_norm_monotone():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(20)
    w = v.copy()
    w[3] *= 2.0
    for p in (1, 2, np.inf):
        assert lattice.lp_norm(w, p) >= lattice.lp_norm(v, p) - 1e-12


# ---------------------------------------------------------------------------
# zero-flux test of Neumann data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad", [{0: np.nan}, {0: np.inf}, {0: np.inf, 1: -np.inf}], ids=["nan", "inf", "inf-minus-inf"]
)
def test_non_finite_neumann_data_is_rejected(bad):
    """abs(nan) and inf - inf fail every comparison with the rounding bound,
    so the zero-flux test checks finiteness first, for every Neumann solver
    that shares it."""
    from harmonic_lab import boxes

    d, N = 2, 4
    g = np.zeros(len(lattice.normal_edges(d, N)))
    layer, zeros = np.zeros(64), np.zeros(64)  # L = 32, height 16
    for j, value in bad.items():
        g[j] = layer[j] = value
    solvers = [
        lambda: lattice.check_zero_flux(g),
        lambda: boxes.gradient_operator("neumann", d, N)(g[None]),
        lambda: boxes.gradient_operator("neumann", d, N)(np.stack([np.zeros_like(g), g])),
        lambda: proof_chain.neumann_strip_solve(layer, zeros, 16),
        lambda: proof_chain.neumann_strip_solve(zeros, layer, 16),
        lambda: proof_chain.telescope_neumann(layer, zeros, 16),
    ]
    for solve in solvers:
        with pytest.raises(ValueError, match="non-finite"):
            solve()
