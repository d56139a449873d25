"""The face map and the box gradient operator, its exact-harmonic
certificate, the full-field reference solves of ``oracles``, the
reflections and face decomposition of ``proof_chain``, and the norm over
the full boundary edge set."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import harmonic_lab
from harmonic_lab import boxes, cli, lattice, sweeps

import oracles
import proof_chain


def _boundary_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[ax] = 0
        mask[tuple(sl)] = True
        sl[ax] = -1
        mask[tuple(sl)] = True
    return mask


# ---------------------------------------------------------------------------
# sine and cosine transforms
# ---------------------------------------------------------------------------

# every length 1-9, and lengths 127 (prime) and 128; the matrices depend on
# n alone
TRANSFORM_CASES = [(d, n) for d in (2, 3, 4) for n in range(1, 10)] + [
    (d, n) for d in (2, 3) for n in (127, 128)
]


@pytest.mark.parametrize("d,n", TRANSFORM_CASES)
def test_transforms_match_dense_sine_and_cosine_matrices(d, n):
    for kind, matrix in (
        ("dirichlet", oracles.dst1_matrix(n)), ("neumann", oracles.dct2_matrix(n))
    ):
        assert np.abs(boxes._path_matrix(kind, n) - matrix).max() <= 1e-13


@pytest.mark.parametrize("d,n", TRANSFORM_CASES)
def test_transforms_round_trip(d, n):
    for kind in ("dirichlet", "neumann"):
        T = boxes._path_matrix(kind, n)
        assert np.abs(T @ T.T - np.eye(n)).max() <= 1e-13


# ---------------------------------------------------------------------------
# Dirichlet extension (the reference solve of oracles)
# ---------------------------------------------------------------------------


def test_dirichlet_constant_and_linear_are_exact():
    f = np.full((5, 5), 2.0)
    np.testing.assert_allclose(oracles.dirichlet_extension(f), 2.0, atol=1e-12)
    x, y = np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")
    lin = 1.5 * x - 0.5 * y + 2.0
    np.testing.assert_allclose(oracles.dirichlet_extension(lin), lin, atol=1e-10)


def test_dirichlet_smallest_box_center_is_the_neighbour_mean():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((3, 3))
    u = oracles.dirichlet_extension(f)
    assert u[1, 1] == pytest.approx(
        (f[0, 1] + f[1, 0] + f[1, 2] + f[2, 1]) / 4.0, abs=1e-12
    )


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 4)])
def test_dirichlet_matches_dense_reference(d, N):
    rng = np.random.default_rng(10 * d + N)
    f = rng.standard_normal((N + 1,) * d)
    u = oracles.dirichlet_extension(f)
    np.testing.assert_allclose(u, oracles.dense_dirichlet_box(f), atol=1e-8)


def test_dirichlet_boundary_is_copied_bit_for_bit():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((6, 6))
    u = oracles.dirichlet_extension(f)
    mask = _boundary_mask(f.shape)
    assert np.array_equal(u[mask], f[mask])


def test_dirichlet_reads_only_the_boundary():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((6, 6))
    g = f.copy()
    g[1:-1, 1:-1] = 1e6  # interior garbage must not matter
    np.testing.assert_array_equal(
        oracles.dirichlet_extension(f), oracles.dirichlet_extension(g)
    )


def test_dirichlet_linearity():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((7, 7))
    g = rng.standard_normal((7, 7))
    lhs = oracles.dirichlet_extension(2.0 * f - 3.0 * g)
    rhs = 2.0 * oracles.dirichlet_extension(f) - 3.0 * oracles.dirichlet_extension(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_dirichlet_maximum_principle_and_residual():
    rng = np.random.default_rng(9)
    for d, N in ((2, 8), (3, 4)):
        f = rng.standard_normal((N + 1,) * d)
        u = oracles.dirichlet_extension(f)
        mask = _boundary_mask(f.shape)
        assert u.max() <= f[mask].max() + 1e-12
        assert u.min() >= f[mask].min() - 1e-12
        assert np.abs(proof_chain.laplacian_interior(u)).max() < 1e-9


@pytest.mark.parametrize("d,N", [(2, 5), (3, 4)])
def test_dirichlet_transform_solve_matches_dense_oracle(d, N):
    rng = np.random.default_rng(12 + d)
    f = rng.standard_normal((N + 1,) * d)
    np.testing.assert_allclose(
        oracles.dirichlet_extension(f), oracles.dense_dirichlet_box(f), atol=1e-10
    )


def test_dirichlet_input_validation():
    with pytest.raises(ValueError):
        oracles.dirichlet_extension(np.zeros(5))
    with pytest.raises(ValueError):
        oracles.dirichlet_extension(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        oracles.dirichlet_extension(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Neumann extension (the reference solve of oracles)
# ---------------------------------------------------------------------------


def test_neumann_zero_data_gives_zero():
    g = np.zeros(len(lattice.normal_edges(2, 4)))
    u = oracles.neumann_extension(g, 2, 4)
    np.testing.assert_allclose(u, 0.0, atol=1e-12)
    assert not np.isnan(u).any()


def test_neumann_smallest_box_closed_form():
    # edges in order: (0,1), (1,0), (1,2), (2,1) all pointing at (1,1)
    g = np.array([0.5, -0.25, 0.75, -1.0])
    u = oracles.neumann_extension(g, 2, 2)
    assert u[1, 1] == 0.0
    assert u[0, 1] == pytest.approx(-0.5)
    assert u[1, 0] == pytest.approx(0.25)
    assert u[1, 2] == pytest.approx(-0.75)
    assert u[2, 1] == pytest.approx(1.0)
    # corners average their two filled neighbours
    assert u[0, 0] == pytest.approx((u[1, 0] + u[0, 1]) / 2.0)
    assert u[0, 2] == pytest.approx((u[1, 2] + u[0, 1]) / 2.0)
    assert u[2, 0] == pytest.approx((u[1, 0] + u[2, 1]) / 2.0)
    assert u[2, 2] == pytest.approx((u[1, 2] + u[2, 1]) / 2.0)


@pytest.mark.parametrize("d,N", [(2, 4), (2, 7), (3, 3), (4, 4)])
def test_neumann_matches_data_and_is_harmonic(d, N):
    rng = np.random.default_rng(20 + 10 * d + N)
    edges = lattice.normal_edges(d, N)
    g = rng.standard_normal(len(edges))
    g -= g.mean()
    u = oracles.neumann_extension(g, d, N)
    np.testing.assert_allclose(lattice.edge_gradients(u, edges), g, atol=1e-9)
    assert np.abs(proof_chain.laplacian_interior(u)).max() < 1e-9
    inner = u[(slice(1, N),) * d]
    assert abs(inner.mean()) < 1e-12


def test_neumann_rejects_net_flux():
    g = np.zeros(len(lattice.normal_edges(2, 3)))
    g[0] = 0.1
    with pytest.raises(ValueError, match="flux"):
        oracles.neumann_extension(g, 2, 3)
    batch = np.zeros((3, len(g)))
    batch[2] = g
    with pytest.raises(ValueError, match="flux"):
        boxes.gradient_operator("neumann", 2, 3)(batch)


# the sweep cells whose mean-zero data summed to a few 1e-12 through
# rounding alone, above the former fixed tolerance of 1e-12 * max|g|
SWEEP_FLUX_CELLS = [("checkerboard", 3, 64), ("iid-gaussian", 4, 32)]


@pytest.mark.parametrize("generator,d,N", SWEEP_FLUX_CELLS)
def test_neumann_sweep_accepts_its_own_mean_zero_data(tmp_path, generator, d, N):
    argv = ["neumann-sweep", "--d", str(d), "--n-list", str(N),
            "--generator", generator, "--samples", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("generator,d,N", SWEEP_FLUX_CELLS)
def test_neumann_rejects_a_flux_above_the_rounding_bound(generator, d, N):
    rng = np.random.default_rng(harmonic_lab.cell_seed(0, d, N, 0))
    g = sweeps._neumann_data(generator, rng, lattice.normal_edges(d, N), N)
    assert abs(g.sum()) > 1e-12 * np.abs(g).max()
    operator = boxes.gradient_operator("neumann", d, N)
    operator(g[None])
    g[0] += 1e-6 * np.abs(g).sum()
    with pytest.raises(ValueError, match="flux"):
        oracles.neumann_extension(g, d, N)
    with pytest.raises(ValueError, match="flux"):
        operator(g[None])


def test_neumann_rejects_wrong_edge_count():
    with pytest.raises(ValueError, match="normal edge values"):
        oracles.neumann_extension(np.zeros(5), 2, 3)
    with pytest.raises(ValueError):
        oracles.neumann_extension(np.zeros(4), 2, 1)
    with pytest.raises(ValueError, match="normal edge values"):
        boxes.gradient_operator("neumann", 2, 3)(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        boxes.gradient_operator("neumann", 2, 1)
    with pytest.raises(ValueError, match="boundary values"):
        boxes.gradient_operator("dirichlet", 2, 3)(np.zeros((1, len(lattice.normal_edges(2, 3)))))
    with pytest.raises(ValueError, match="unknown box problem"):
        boxes.gradient_operator("robin", 2, 3)


@pytest.mark.parametrize("d,N", [(2, 2), (2, 5), (3, 4)])
def test_neumann_transform_solve_matches_dense_oracle(d, N):
    rng = np.random.default_rng(23 + d)
    g = rng.standard_normal(len(lattice.normal_edges(d, N)))
    g -= g.mean()
    np.testing.assert_allclose(
        oracles.neumann_extension(g, d, N), oracles.dense_neumann_box(g, d, N),
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# gradient operators
# ---------------------------------------------------------------------------

# N - 1 = 127 is prime: the length at which a real FFT is slowest
OPERATOR_CASES = [(d, N) for d in (2, 3, 4) for N in (2, 3, 4, 8, 32)] + [(2, 128), (3, 128)]


def _operator_and_extension_inputs(kind, d, N, samples):
    """A batch of operator inputs and, per sample, the extension's input."""
    rng = np.random.default_rng(100 * d + N)
    if kind == "dirichlet":
        f = rng.standard_normal((samples,) + (N + 1,) * d)
        return f[(slice(None),) + tuple(lattice.boundary_vertices(d, N).T)], list(f)
    g = rng.standard_normal((samples, len(lattice.normal_edges(d, N))))
    g -= g.mean(axis=1, keepdims=True)
    return g, list(g)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", OPERATOR_CASES)
def test_operators_match_the_extension_gradients(kind, d, N):
    batch, inputs = _operator_and_extension_inputs(kind, d, N, 2)
    tan, nor = boxes.gradient_operator(kind, d, N)(batch)
    if kind == "dirichlet":
        fields = [oracles.dirichlet_extension(f) for f in inputs]
    else:
        fields = [oracles.neumann_extension(g, d, N) for g in inputs]
    edge_sets = ((tan, lattice.tangential_edges(d, N)), (nor, lattice.normal_edges(d, N)))
    for j, u in enumerate(fields):
        for got, edges in edge_sets:
            want = lattice.edge_gradients(u, edges)
            assert got[j].shape == want.shape
            assert np.abs(got[j] - want).max() <= 1e-12 * np.abs(want).max()


# N - 1 prime at every size
FACE_MAP_CASES = [(2, 8), (2, 32), (3, 6), (3, 32), (4, 4), (4, 8)]


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", FACE_MAP_CASES + [(2, 128)])
def test_face_map_is_symmetric(kind, d, N):
    """K = P^T L^-1 P: <Kx, y> = <x, Ky> relative to |Kx| |y|, for a batch
    of three pairs."""
    K = boxes.face_map(kind, d, N)
    x, y = np.random.default_rng(10 * d + N).standard_normal((2, 3, 2 * d * (N - 1) ** (d - 1)))
    Kx, Ky = K(x), K(y)
    assert Kx.shape == x.shape
    gap = np.abs((Kx * y).sum(axis=1) - (x * Ky).sum(axis=1))
    assert np.all(gap <= 1e-13 * np.linalg.norm(Kx, axis=1) * np.linalg.norm(y, axis=1))


def test_the_cell_estimate_admits_the_sizes_that_fit_the_budget():
    """Traced peaks of a build and one chunk read 47-52 MiB at (3, 128),
    82-88 MiB at (4, 32) and 276-300 MiB at (4, 48); those cells pass, and
    the estimate refuses (4, 64), (3, 512), whose one-sample coefficients
    alone take 1 GiB, and (2, 8192), whose path transform does.  (2, 6000)
    passes on one worker and is refused on four, one chunk each."""
    assert harmonic_lab.MEMORY_BUDGET == 2**31
    for d, N in [(2, 512), (3, 128), (3, 256), (4, 32), (4, 48), (5, 12), (2, 6000)]:
        boxes._refuse_over_budget(d, N)
    for d, N in [(4, 64), (3, 512), (2, 8192)]:
        with pytest.raises(ValueError, match=f"sweep cell d={d}, N={N} needs about"):
            boxes._refuse_over_budget(d, N)
    with pytest.raises(ValueError, match="d=2, N=6000 on 4 workers needs about 3036 MiB"):
        boxes._refuse_over_budget(2, 6000, 4)


@pytest.mark.parametrize("kind,d,N", [("dirichlet", 3, 96), ("neumann", 2, 1024)])
def test_a_pooled_sweep_peak_stays_under_its_estimate(monkeypatch, kind, d, N):
    """Each busy worker of a pooled sweep holds its own chunk: traced peaks
    of these 8-sample sweeps read 21-25 MiB on one thread and about 14-16
    MiB more per added worker, past a one-chunk estimate from 4 threads on.
    The estimate the sweep asks for covers its peak at 2, 4 and 8 threads;
    a sweep of one chunk prices one chunk on any number of threads."""
    estimates = []
    monkeypatch.setattr(boxes, "refuse_over_budget", lambda *priced: estimates.append(priced))
    sweeps.run_sweep(kind, sweeps.SweepSpec((d,), (4,), (2.0,), samples=2, seed=0), 8)
    assert [subject for subject, _ in estimates] == [f"sweep cell d={d}, N=4"]
    spec = sweeps.SweepSpec((d,), (N,), (2.0,), samples=8, seed=0)
    for threads in (2, 4, 8):
        tracemalloc.start()
        try:
            sweeps.run_sweep(kind, spec, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        subject, estimate = estimates[-1]
        assert subject == f"sweep cell d={d}, N={N} on {threads} workers"
        assert peak <= estimate, (threads, peak >> 20, estimate >> 20)


@pytest.mark.parametrize("d,N", [(3, 64), (4, 24), (5, 10)])
def test_the_box_map_build_peak_per_boundary_vertex(d, N):
    """Edge sets built from flat indices keep the ``_box_maps`` build under
    35 bytes per boundary vertex and per d^2 (traced 20.7, 15.4 and 12.6),
    below the conservative ``_BUILD_BYTES`` of the cell estimate."""
    boxes._box_maps(d, N)
    tracemalloc.start()
    try:
        boxes._box_maps(d, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    boundary = (N + 1) ** d - (N - 1) ** d
    assert peak <= 35 * boundary * d * d <= boxes._BUILD_BYTES * boundary * d * d


def test_each_operator_build_logs_one_debug_line(caplog):
    """``--log-level DEBUG`` shows the box stage: one line per operator
    build, naming the kind, d, N and the face count."""
    with caplog.at_level(logging.DEBUG, logger="harmonic_lab.boxes"):
        boxes.gradient_operator("dirichlet", 3, 5)
        boxes.gradient_operator("neumann", 2, 4)
    assert [r.getMessage() for r in caplog.records if r.name == "harmonic_lab.boxes"] == [
        "dirichlet face map d=3 N=5: 6 faces, 96 face values",
        "neumann face map d=2 N=4: 4 faces, 12 face values",
    ]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


def test_face_map_rejects_unknown_kinds_and_shapes():
    with pytest.raises(ValueError, match="unknown box problem"):
        boxes.face_map("robin", 2, 4)
    with pytest.raises(ValueError):
        boxes.face_map("dirichlet", 2, 1)
    with pytest.raises(ValueError, match="face values"):
        boxes.face_map("neumann", 3, 4)(np.zeros(4 * 9))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", FACE_MAP_CASES)
def test_operators_reproduce_exact_harmonic_gradients_to_the_certificate(kind, d, N):
    """The certificate the selftest gates at sweeps.OPERATOR_RTOL: the
    operators' gradients of u = cosh(mu (x_a - N/2)) prod cos(theta x_i),
    one sample per axis a, against u's own (face-only tangential edges for
    Neumann)."""
    assert boxes.operator_certificate(kind, d, N) <= 1e-13


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", [(2, 128), (3, 128)])
def test_large_boxes_pass_the_certificate_without_a_dense_system(kind, d, N):
    # (2,128) has 16129 interior unknowns, whose dense matrix would take
    # 2 GB; N - 1 = 127 is prime
    assert boxes.operator_certificate(kind, d, N) <= sweeps.OPERATOR_RTOL


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("N", [512, 1024])
def test_certificate_at_the_sweep_sizes_stays_below_n_squared_eps(kind, N):
    """The certificate grows about like N^2 on d=2, past sweeps.OPERATOR_RTOL
    at the sizes the sweeps run (measured 8.2e-13/3.0e-12 at N=512 and
    3.2e-12/1.4e-12 at N=1024, Dirichlet/Neumann), so its bound scales."""
    assert boxes.operator_certificate(kind, 2, N) <= N**2 * np.finfo(float).eps


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", [(3, 128), (2, 1024)])
def test_operator_memory_is_bounded_by_the_interior(kind, d, N):
    """One sample holds its interior coefficients and one face-transform
    temporary of the same size: measured peak 2.10 x the interior at
    (3,128) and 2.03 x at (2,1024); a third interior array adds 1 x."""
    batch, _ = _operator_and_extension_inputs(kind, d, N, 1)
    operator = boxes.gradient_operator(kind, d, N)
    operator(batch)
    tracemalloc.start()
    try:
        operator(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * (N - 1) ** d * 8


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_the_operator_and_the_face_map_take_only_a_batch_of_rows(kind):
    """Every caller passes one sample per row; a single sample or a batch
    with more leading axes is refused with the expected (B, size) shape."""
    d, N = 3, 4
    batch, _ = _operator_and_extension_inputs(kind, d, N, 6)
    faces = np.zeros((6, 2 * d * (N - 1) ** (d - 1)))
    maps = [(boxes.gradient_operator(kind, d, N), batch), (boxes.face_map(kind, d, N), faces)]
    for apply, x in maps:
        apply(x)
        for bad in (x[4], x.reshape(2, 3, -1)):
            want = f"shaped (B, {x.shape[1]}), got shape {bad.shape}"
            with pytest.raises(ValueError, match=re.escape(want)):
                apply(bad)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,N", [(2, 64), (3, 20), (4, 8)])
def test_a_cell_row_is_byte_identical_alone_and_inside_a_chunk(kind, d, N):
    spec = sweeps.SweepSpec(d_list=(d,), n_list=(N,), p_list=(1.5, 2.0), samples=4, seed=7)
    assert boxes._BLOCK // (N - 1) ** d >= spec.samples  # one chunk holds all four
    points = lattice.boundary_vertices if kind == "dirichlet" else lattice.normal_edges
    cell = (boxes.gradient_operator(kind, d, N), points(d, N))
    chunk = sweeps._chunk_rows(kind, spec, d, N, range(spec.samples), cell)
    for sample in range(spec.samples):
        alone = sweeps._chunk_rows(kind, spec, d, N, [sample], cell)
        inside = [row for row in chunk if row["sample"] == sample]
        for row in alone + inside:
            row["runtime_ms"] = 0.0
        assert repr(alone) == repr(inside)
    one = sweeps.SweepSpec(d_list=(d,), n_list=(N,), p_list=(1.5, 2.0), samples=1, seed=7)
    first, _ = sweeps.run_sweep(kind, one)
    for row in first:
        row["runtime_ms"] = 0.0
    assert repr(first) == repr([row for row in chunk if row["sample"] == 0])


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_odd_reflect_frozen_example():
    out = proof_chain.odd_reflect(np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    np.testing.assert_array_equal(out, [0, 1, -2, 3, 0, -3, 2, -1])


def test_odd_reflect_identity():
    rng = np.random.default_rng(31)
    data = rng.standard_normal(7)
    data[0] = data[6] = 0.0
    out = proof_chain.odd_reflect(data)
    n = len(out)
    assert n == 12
    for j in range(n):
        assert out[-j % n] == pytest.approx(-out[j])
    np.testing.assert_array_equal(out[:7], data)


def test_odd_reflect_rejects_nonzero_fixed_points():
    with pytest.raises(ValueError, match="fixed point"):
        proof_chain.odd_reflect(np.array([0.5, 1.0, 0.0]))
    # the check scales with the data, small data included
    big = np.array([1e-4, 1e8, 0.0])
    proof_chain.odd_reflect(big)  # 1e-4 is far below 1e-8 * 1e8
    with pytest.raises(ValueError, match="fixed point"):
        proof_chain.odd_reflect(np.full(9, 1e-9))
    proof_chain.odd_reflect(1e-9 * np.array([0.0, 1.0, -2.0, 3.0, 0.0]))


def test_even_reflect_frozen_example():
    out = proof_chain.even_reflect(np.array([1.0, 1.0, 2.0, 5.0, 5.0]))
    np.testing.assert_array_equal(out, [1, 1, 2, 5, 5, 2])


def test_even_reflect_identity():
    data = np.array([4.0, 4.0, 7.0, -1.0, 0.5, 0.5])
    out = proof_chain.even_reflect(data)
    n = len(out)
    assert n == 2 * (len(data) - 2)
    for j in range(n):
        assert out[(1 - j) % n] == pytest.approx(out[j])


def test_even_reflect_constant_and_rejections():
    np.testing.assert_array_equal(
        proof_chain.even_reflect(np.full(5, 3.0)), np.full(6, 3.0)
    )
    with pytest.raises(ValueError, match="mirror"):
        proof_chain.even_reflect(np.array([0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="mirror"):
        proof_chain.even_reflect(np.array([1.0, 1.0, 1.0, 0.0]))
    # a jump of the data's own size, however small that is
    with pytest.raises(ValueError, match="mirror"):
        proof_chain.even_reflect(np.array([0.0, 1e-9, 1e-9, 1e-9]))
    proof_chain.even_reflect(np.full(5, 1e-9))


def test_reflections_along_higher_axes():
    rng = np.random.default_rng(35)
    data = rng.standard_normal((3, 5))
    data[:, 0] = data[:, 4] = 0.0
    out = proof_chain.odd_reflect(data, axis=1)
    assert out.shape == (3, 8)
    np.testing.assert_allclose(out[:, 5:], -data[:, 3:0:-1], atol=0)
    ev = proof_chain._reflect(rng.standard_normal((4, 3)), 1, 1.0)
    assert ev.shape == (4, 4)
    np.testing.assert_array_equal(ev[:, 3], ev[:, 1])


def test_integer_even_reflection_needs_no_consistency():
    data = np.array([2.0, -1.0, 5.0])
    out = proof_chain._reflect(data, 0, 1.0)
    np.testing.assert_array_equal(out, [2.0, -1.0, 5.0, -1.0])
    n = len(out)
    for j in range(n):
        assert out[-j % n] == out[j]


# ---------------------------------------------------------------------------
# face decomposition
# ---------------------------------------------------------------------------


def test_face_decomposition_of_a_constant():
    u = np.full((6, 6), 4.0)
    strips, cert = proof_chain.face_decomposition_dirichlet(u, 2)
    assert len(strips) == 2
    np.testing.assert_allclose(strips[0], 4.0, atol=1e-10)
    np.testing.assert_allclose(strips[1], 0.0, atol=1e-10)
    assert cert["reconstruction_residual"] < 1e-10


@pytest.mark.parametrize("N", [4, 8])
def test_face_decomposition_reconstructs_harmonic_functions(N):
    rng = np.random.default_rng(40 + N)
    u = oracles.dirichlet_extension(rng.standard_normal((N + 1, N + 1)))
    strips, cert = proof_chain.face_decomposition_dirichlet(u, 2)
    total = strips[0] + strips[1]
    assert np.abs(total - u).max() < 1e-8
    assert cert["reconstruction_residual"] < 1e-8
    assert len(cert["gradient_norms"]) == 2
    assert all(v >= 0 for v in cert["gradient_norms"])
    # the second strip was built from odd reflections along axis 0, so it
    # vanishes on the faces the first strip already matched
    assert np.abs(strips[1][0, :]).max() < 1e-8
    assert np.abs(strips[1][N, :]).max() < 1e-8
    for w in strips:
        assert np.abs(proof_chain.laplacian_interior(w)).max() < 1e-8


def test_face_decomposition_3d_smoke():
    rng = np.random.default_rng(43)
    u = oracles.dirichlet_extension(rng.standard_normal((5, 5, 5)))
    strips, cert = proof_chain.face_decomposition_dirichlet(u, 2)
    assert len(strips) == 3
    np.testing.assert_allclose(strips[0] + strips[1] + strips[2], u, atol=1e-8)
    assert cert["reconstruction_residual"] < 1e-8


# ---------------------------------------------------------------------------
# full boundary norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N", [(d, N) for d in (2, 3, 4) for N in (2, 3, 5, 8)])
def test_full_norm_is_the_norm_over_the_full_edge_set(d, N):
    """The full boundary edge set is the tangential edges and the normal
    edges both ways, so its norm is the l^p norm of (tan norm, nor norm,
    nor norm), as ``proof_chain.face_decomposition_dirichlet`` forms it;
    compared with the norm over the oracle's enumeration of the set."""
    u = np.random.default_rng(10 * d + N).standard_normal((N + 1,) * d)
    tan = lattice.edge_gradients(u, lattice.tangential_edges(d, N))
    nor = lattice.edge_gradients(u, lattice.normal_edges(d, N))
    full = lattice.edge_gradients(u, np.array(oracles.full_edge_set(d, N)))
    for p in (1.5, 2, 3, math.inf):
        t, n = lattice.lp_norm(tan, p), lattice.lp_norm(nor, p)
        want = lattice.lp_norm(full, p)
        assert lattice.lp_norm([t, n, n], p) == pytest.approx(want, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# boundary Poincare probe
# ---------------------------------------------------------------------------

POINCARE_CAP = 0.3


def test_boundary_poincare_constant_shrinks_with_size():
    """(1/N) ||f - mean||_2 over the shell against the tangential gradient
    norm, random draws; the constant is modest and does not grow with N.
    Measured maxima with this seed: 0.153, 0.070, 0.036, 0.017."""
    rng = np.random.default_rng(11)
    worst = {}
    for N in (4, 8, 16, 32):
        verts = lattice.boundary_vertices(2, N)
        edges = lattice.tangential_edges(2, N)
        cs = []
        for _ in range(20):
            u = rng.standard_normal((N + 1, N + 1))
            vals = u[tuple(verts.T)]
            vals -= vals.mean()
            num = np.linalg.norm(vals) / N
            den = lattice.lp_norm(lattice.edge_gradients(u, edges), 2)
            cs.append(num / den)
        worst[N] = max(cs)
    assert max(worst.values()) < POINCARE_CAP
    assert worst[32] <= worst[4]
