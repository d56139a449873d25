"""Half-space and strip solvers, telescope extensions, and the periodized
Poisson kernel.

The dense reference solvers in oracles.py assemble the linear systems
vertex by vertex, so agreement here validates the per-mode spectral
formulas end to end.  The column and weak-type constants at the bottom are
frozen from measured runs with the seeds shown; they guard against quiet
regressions in the layer decay.
"""

import math

import numpy as np
import pytest

from harmonic_lab import dyadic, halfspace, lattice, spectral

import oracles
import proof_chain

SQRT_C = math.sqrt(oracles.cosine_constant())


def _lateral_axes(strip):
    return tuple(range(strip.ndim - 1))


def _interior_residual(strip):
    return np.abs(
        proof_chain.laplacian_interior(strip, periodic_axes=_lateral_axes(strip))
    ).max()


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------


def test_tangential_angles():
    ang = halfspace.tangential_angles(2, 2)
    assert ang.shape == (4, 1)
    np.testing.assert_allclose(ang[:, 0], np.pi / 2 * np.array([0, 1, 2, -1]))
    assert halfspace.tangential_angles(3, 4).shape == (8, 8, 2)


def test_mode_propagation_factors():
    angles = halfspace.tangential_angles(2, 8)
    q = spectral.q_symbol(spectral.lambda_symbol(angles, 2))
    assert q.shape == (16,)
    assert q[0] == pytest.approx(1.0)
    assert (q.real >= 1.0).all()
    # the extreme mode k = L sits at lambda = 2d - 1 = 3
    assert q[8] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0))
    # the factors the layer solvers share
    np.testing.assert_array_equal(halfspace._mode_factors(2, 8)[1], q.real)


def test_mode_factor_cache_is_bounded_and_read_only():
    cache = halfspace._mode_factors
    bound = cache.cache_info().maxsize
    assert bound is not None and bound <= 16
    for d in (2, 3):
        for L in range(2, 3 * bound):
            for arr in cache(d, L):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 0.0
            assert cache.cache_info().currsize <= bound
    lam, q = cache(2, 8)
    assert lam[0] == 1.0 and q[0] == pytest.approx(1.0)
    # the layer propagation still reads the shared factors without writing them
    layer = halfspace.halfspace_layer(np.ones(16), 3)
    np.testing.assert_allclose(layer, 1.0, rtol=1e-13)


# ---------------------------------------------------------------------------
# half-space layers
# ---------------------------------------------------------------------------


def test_layer_zero_is_a_copy():
    b = np.arange(8.0)
    out = halfspace.halfspace_layer(b, 0)
    np.testing.assert_array_equal(out, b)
    out[0] = 99.0
    assert b[0] == 0.0


def test_layer_of_constant_is_constant():
    b = np.full((8, 8), 1.25)
    for n in (1, 3, 7):
        np.testing.assert_allclose(halfspace.halfspace_layer(b, n), 1.25, atol=1e-12)


def test_layer_rejections():
    with pytest.raises(ValueError):
        halfspace.halfspace_layer(np.zeros(8), -1)
    with pytest.raises(ValueError):
        halfspace.halfspace_layer(np.zeros((4, 6)), 1)
    with pytest.raises(ValueError):
        halfspace.halfspace_layer(np.zeros(5), 1)


def test_single_mode_decay_is_exact():
    L = 8
    h = np.pi / L
    x = h * spectral.index_grid(L)
    k0 = 3
    b = np.cos(k0 * x)
    q0 = float(spectral.q_symbol(spectral.lambda_symbol(np.array([h * k0]), 2)).real)
    for n in (1, 2, 5):
        np.testing.assert_allclose(
            halfspace.halfspace_layer(b, n), q0 ** (-n) * b, atol=1e-12
        )


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_layer_norms_never_grow(p):
    rng = np.random.default_rng(44)
    b = rng.standard_normal((16, 16))
    prev = lattice.lp_norm(b, p)
    for n in range(1, 8):
        cur = lattice.lp_norm(halfspace.halfspace_layer(b, n), p)
        assert cur <= prev + 1e-12
        prev = cur


@pytest.mark.parametrize("d,L", [(2, 8), (2, 16), (3, 4)])
def test_mean_zero_layer_decay_bounds(d, L):
    """Mean-zero data decays at least like (1 + sqrt(c) n h)^(-e(p)) in l^p,
    with e = 2 - 2/p below p = 2 and e = 2/p above."""
    h = np.pi / L
    rng = np.random.default_rng(60 + 10 * d + L)
    exponents = {1.0: 0.0, 1.5: 2 - 2 / 1.5, 2.0: 1.0, 3.0: 2 / 3.0, np.inf: 0.0}
    for _ in range(10):
        b = rng.standard_normal((2 * L,) * (d - 1))
        b -= b.mean()
        for n in (1, 2, 4, 8):
            lay = halfspace.halfspace_layer(b, n)
            for p, e in exponents.items():
                lhs = lattice.lp_norm(lay, p)
                rhs = (1 + SQRT_C * n * h) ** (-e) * lattice.lp_norm(b, p)
                assert lhs <= rhs + 1e-10


def test_strip_stacks_the_layers():
    rng = np.random.default_rng(46)
    b = rng.standard_normal(16)
    strip = proof_chain.halfspace_strip(b, 5)
    assert strip.shape == (16, 6)
    for n in range(6):
        np.testing.assert_allclose(
            strip[:, n], halfspace.halfspace_layer(b, n), atol=1e-12
        )


def test_strip_is_harmonic_and_conserves_layer_sums():
    rng = np.random.default_rng(47)
    for d, L in ((2, 8), (3, 4)):
        b = rng.standard_normal((2 * L,) * (d - 1))
        strip = proof_chain.halfspace_strip(b, 6)
        assert _interior_residual(strip) < 1e-10
        sums = strip.sum(axis=tuple(range(d - 1)))
        np.testing.assert_allclose(sums, b.sum(), atol=1e-9)


# ---------------------------------------------------------------------------
# strip boundary value solvers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,L,N", [(2, 4, 5), (2, 8, 3), (3, 2, 3)])
def test_dirichlet_strip_against_dense_solve(d, L, N):
    rng = np.random.default_rng(70 + 10 * d + N)
    bottom = rng.standard_normal((2 * L,) * (d - 1))
    top = rng.standard_normal((2 * L,) * (d - 1))
    got = halfspace.dirichlet_strip_solve(bottom, top, N)
    ref = oracles.dense_dirichlet_strip(bottom, top, N)
    np.testing.assert_allclose(got, ref, atol=1e-8)
    np.testing.assert_allclose(got[..., 0], bottom, atol=1e-10)
    np.testing.assert_allclose(got[..., N], top, atol=1e-10)
    assert _interior_residual(got) < 1e-9


def test_dirichlet_strip_constant_data_interpolates_linearly():
    bottom = np.full(8, 2.0)
    top = np.full(8, -1.0)
    N = 6
    got = halfspace.dirichlet_strip_solve(bottom, top, N)
    ys = np.arange(N + 1)
    expect = 2.0 + (-3.0) * ys / N
    np.testing.assert_allclose(got, np.broadcast_to(expect, (8, N + 1)), atol=1e-11)


def test_dirichlet_strip_zero_data():
    out = halfspace.dirichlet_strip_solve(np.zeros(8), np.zeros(8), 4)
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_dirichlet_strip_rejections():
    with pytest.raises(ValueError):
        halfspace.dirichlet_strip_solve(np.zeros(8), np.zeros(16), 4)
    with pytest.raises(ValueError):
        halfspace.dirichlet_strip_solve(np.zeros(8), np.zeros(8), 0)


@pytest.mark.parametrize("d,L,N", [(2, 4, 5), (3, 2, 3)])
def test_neumann_strip_against_dense_solve(d, L, N):
    rng = np.random.default_rng(80 + 10 * d + N)
    gb = rng.standard_normal((2 * L,) * (d - 1))
    gb -= gb.mean()
    gt = rng.standard_normal((2 * L,) * (d - 1))
    gt -= gt.mean()
    got = proof_chain.neumann_strip_solve(gb, gt, N)
    ref = oracles.dense_neumann_strip(gb, gt, N)
    np.testing.assert_allclose(got, ref, atol=1e-8)


def test_neumann_strip_recovers_the_differences():
    rng = np.random.default_rng(81)
    L, N = 8, 7
    gb = rng.standard_normal(2 * L)
    gb -= gb.mean()
    gt = rng.standard_normal(2 * L)
    gt -= gt.mean()
    w = proof_chain.neumann_strip_solve(gb, gt, N)
    np.testing.assert_allclose(w[:, 1] - w[:, 0], gb, atol=1e-10)
    np.testing.assert_allclose(w[:, N] - w[:, N - 1], gt, atol=1e-10)
    assert _interior_residual(w) < 1e-9
    assert abs(w[:, 0].mean()) < 1e-12


def test_neumann_strip_rejections():
    flat = np.zeros(8)
    biased = flat + 0.1
    with pytest.raises(ValueError, match="mean"):
        proof_chain.neumann_strip_solve(biased, flat, 4)
    with pytest.raises(ValueError, match="mean"):
        proof_chain.neumann_strip_solve(flat, biased, 4)
    with pytest.raises(ValueError):
        proof_chain.neumann_strip_solve(flat, flat, 1)
    with pytest.raises(ValueError):
        proof_chain.neumann_strip_solve(flat, np.zeros(16), 4)


# ---------------------------------------------------------------------------
# telescopes
# ---------------------------------------------------------------------------


def test_telescope_dirichlet_constant_data():
    c = 3.25
    w, traces = proof_chain.telescope_dirichlet(np.full(8, c), np.full(8, c), 4)
    np.testing.assert_allclose(w, c, atol=1e-12)
    assert set(traces) == {"bottom", "top"}
    assert traces["bottom"][0] == 0.0


def test_telescope_dirichlet_contracts_and_matches_spectral():
    rng = np.random.default_rng(20)
    L = N = 16
    for _ in range(20):
        b = rng.standard_normal(2 * L)
        b -= b.mean()
        w, traces = proof_chain.telescope_dirichlet(b, np.zeros(2 * L), N, tol=1e-12)
        tr = np.array(traces["bottom"])
        tr = tr[tr > 0]
        ratios = tr[1:] / tr[:-1]
        assert ratios.max() < 0.2
        slope = np.polyfit(np.arange(len(tr)), np.log(tr), 1)[0]
        assert slope < -2.0
        ref = halfspace.dirichlet_strip_solve(b, np.zeros(2 * L), N)
        assert np.abs(w - ref).max() < 1e-9


def test_telescope_dirichlet_general_boundary_data():
    rng = np.random.default_rng(22)
    L = N = 8
    bottom = rng.standard_normal(2 * L) + 2.0
    top = rng.standard_normal(2 * L) - 1.0
    w, _ = proof_chain.telescope_dirichlet(bottom, top, N)
    ref = halfspace.dirichlet_strip_solve(bottom, top, N)
    assert np.abs(w - ref).max() < 1e-8
    np.testing.assert_allclose(w[:, 0], bottom, atol=1e-8)
    np.testing.assert_allclose(w[:, N], top, atol=1e-8)


def test_telescope_aspect_guard():
    with pytest.raises(ValueError, match="aspect"):
        proof_chain.telescope_dirichlet(np.zeros(32), np.zeros(32), 2)
    with pytest.raises(ValueError, match="aspect"):
        proof_chain.telescope_dirichlet(np.zeros(4), np.zeros(4), 16)


def test_telescope_neumann_matches_direct_solver():
    rng = np.random.default_rng(24)
    L = N = 8
    gb = rng.standard_normal(2 * L)
    gb -= gb.mean()
    gt = rng.standard_normal(2 * L)
    gt -= gt.mean()
    w, traces = proof_chain.telescope_neumann(gb, gt, N)
    ref = proof_chain.neumann_strip_solve(gb, gt, N)
    assert np.abs(w - ref).max() < 1e-7
    np.testing.assert_allclose(w[:, 1] - w[:, 0], gb, atol=1e-8)
    np.testing.assert_allclose(w[:, N] - w[:, N - 1], gt, atol=1e-8)
    assert abs(w[:, 0].mean()) < 1e-10
    assert len(traces["bottom"]) > 1 and len(traces["top"]) > 1


def test_telescope_neumann_constant_mean_profile():
    c = -0.75
    N = 8
    w, _ = proof_chain.telescope_neumann(np.full(16, c), np.full(16, c), N)
    ys = np.arange(N + 1, dtype=float)
    np.testing.assert_allclose(w, np.broadcast_to(c * ys, (16, N + 1)), atol=1e-12)


def test_telescope_neumann_rejects_mean_mismatch():
    gb = np.full(16, 0.5)
    gt = np.full(16, 0.5 + 1e-6)
    with pytest.raises(ValueError, match="means"):
        proof_chain.telescope_neumann(gb, gt, 8)


# ---------------------------------------------------------------------------
# periodized Poisson kernel
# ---------------------------------------------------------------------------


def test_poisson_kernel_mass_and_positivity():
    for d, L, z in ((2, 16, 2), (3, 8, 3)):
        ker = halfspace.periodized_poisson_kernel(z, d, L)
        assert ker.shape == (2 * L,) * (d - 1)
        assert ker.sum() == pytest.approx(1.0, abs=1e-12)
        assert ker.min() > 0.0
        assert np.isrealobj(ker)
        # unit mass starts at the origin, so the center dominates
        assert ker.max() == ker[(0,) * (d - 1)]


def test_poisson_kernel_symmetry():
    ker = halfspace.periodized_poisson_kernel(2, 2, 16)
    for j in range(32):
        assert ker[j] == pytest.approx(ker[-j % 32], abs=1e-14)
    k3 = halfspace.periodized_poisson_kernel(1, 3, 4)
    flip = (-np.arange(8)) % 8
    np.testing.assert_allclose(k3, k3[np.ix_(flip, flip)], atol=1e-13)
    np.testing.assert_allclose(k3, k3.T, atol=1e-13)


def test_poisson_kernel_semigroup():
    p1 = halfspace.periodized_poisson_kernel(1, 2, 16)
    p2 = halfspace.periodized_poisson_kernel(2, 2, 16)
    np.testing.assert_allclose(halfspace.halfspace_layer(p1, 1), p2, atol=1e-12)


def test_poisson_kernel_rejects_zero_height():
    with pytest.raises(ValueError):
        halfspace.periodized_poisson_kernel(0, 2, 8)


# ---------------------------------------------------------------------------
# boundary difference transforms
# ---------------------------------------------------------------------------


def test_difference_helpers():
    rng = np.random.default_rng(26)
    b = rng.standard_normal((8, 8))
    h = 0.25
    np.testing.assert_allclose(
        proof_chain.tangential_difference(b, 1, h), (np.roll(b, -1, axis=1) - b) / h
    )
    up = rng.standard_normal((8, 8))
    np.testing.assert_allclose(proof_chain.normal_difference(b, up, h), (up - b) / h)


@pytest.mark.parametrize("d,L", [(2, 8), (3, 4)])
def test_boundary_difference_transforms(d, L):
    """The transforms of the scaled boundary differences of an upward
    extension are explicit multipliers applied to the data transform."""
    h = np.pi / L
    rng = np.random.default_rng(90 + d)
    b = rng.standard_normal((2 * L,) * (d - 1))
    u1 = halfspace.halfspace_layer(b, 1)
    fb = spectral.forward_dft(b)
    angles = halfspace.tangential_angles(d, L)
    q = spectral.q_symbol(spectral.lambda_symbol(angles, d))

    dn = spectral.forward_dft(proof_chain.normal_difference(b, u1, h))
    np.testing.assert_allclose(dn, (1.0 / q - 1.0) / h * fb, atol=1e-10)

    k = spectral.index_grid(L)
    for i in range(d - 1):
        dt = spectral.forward_dft(proof_chain.tangential_difference(b, i, h))
        shape = [1] * (d - 1)
        shape[i] = 2 * L
        phase = (np.exp(-1j * h * k) - 1.0).reshape(shape) / h
        np.testing.assert_allclose(dt, phase * fb, atol=1e-10)


@pytest.mark.parametrize("d,L", [(2, 8), (3, 4)])
def test_tangential_from_normal_ratio_everywhere(d, L):
    # multiplying the normal difference transform by the tangential ratio
    # symbol gives the tangential difference transform at every frequency
    h = np.pi / L
    rng = np.random.default_rng(95 + d)
    b = rng.standard_normal((2 * L,) * (d - 1))
    u1 = halfspace.halfspace_layer(b, 1)
    dn = spectral.forward_dft(proof_chain.normal_difference(b, u1, h))
    angles = halfspace.tangential_angles(d, L)
    for i in range(d - 1):
        dt = spectral.forward_dft(proof_chain.tangential_difference(b, i, h))
        ratio = spectral.neumann_symbol(i, angles, d)
        np.testing.assert_allclose(dt, ratio * dn, atol=1e-10)


def test_normal_from_tangential_on_dyadic_rectangles():
    """On a rectangle whose dominant-axis level is nonzero, the reciprocal
    ratio recovers the normal difference from that tangential difference."""
    d, L = 3, 8
    h = np.pi / L
    rng = np.random.default_rng(99)
    b = rng.standard_normal((2 * L, 2 * L))
    u1 = halfspace.halfspace_layer(b, 1)
    dn = spectral.forward_dft(proof_chain.normal_difference(b, u1, h))
    angles = halfspace.tangential_angles(d, L)
    labels = dyadic.dominant_axes(d - 1, L)
    for k in [(0, 2), (2, 0), (1, -2), (-1, -1), (3, 3)]:
        sets = [np.array(oracles.rectangle_integers(level, L)) % (2 * L) for level in k]
        block = np.ix_(*sets)
        (i,) = np.unique(labels[block])
        assert k[i] != 0
        ratio = spectral.dirichlet_symbol(i, angles, d)
        dt = spectral.forward_dft(proof_chain.tangential_difference(b, i, h))
        np.testing.assert_allclose(dn[block], (ratio * dt)[block], atol=1e-10)


# ---------------------------------------------------------------------------
# frozen column and weak-type constants
# ---------------------------------------------------------------------------

CENTERED_COLUMN_CAP = 0.1
FACE_COLUMN_CAP = 0.5
CENTERED_COLUMN_CAP_3D = 0.1
FACE_COLUMN_CAP_3D = 0.3
WEAK_L1_CAP = 0.1


def _centered_column_maxima(p_values, sizes, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for p in p_values:
        for L in sizes:
            N = L
            cs = []
            for _ in range(10):
                b = rng.standard_normal(2 * L)
                strip = proof_chain.halfspace_strip(b, N)
                col = sum(
                    abs(strip[0, z] - strip[:, z].mean()) ** p
                    for z in range(1, N + 1)
                )
                cs.append(col / lattice.lp_norm(b, p) ** p)
            out[(p, L)] = max(cs)
    return out


def test_centered_column_estimate_p2():
    # measured with this seed: 0.037, 0.020, 0.016 for L = 8, 16, 32
    maxima = _centered_column_maxima((2.0,), (8, 16, 32), seed=3)
    vals = list(maxima.values())
    assert max(vals) < CENTERED_COLUMN_CAP
    assert max(vals) / min(vals) <= 4.0


def test_centered_column_estimate_other_exponents():
    maxima = _centered_column_maxima((1.5, 3.0), (8, 16, 32), seed=3)
    for p in (1.5, 3.0):
        vals = [maxima[(p, L)] for L in (8, 16, 32)]
        assert max(vals) < CENTERED_COLUMN_CAP
        assert max(vals) / min(vals) <= 4.0


def test_face_column_estimate():
    # mean-zero data: the whole boundary column is controlled in the same p
    rng = np.random.default_rng(4)
    maxima = {}
    for L in (8, 16, 32):
        N = L
        cs = []
        for _ in range(10):
            b = rng.standard_normal(2 * L)
            b -= b.mean()
            strip = proof_chain.halfspace_strip(b, N)
            cs.append(
                lattice.lp_norm(strip[0, 1 : N + 1], 2) / lattice.lp_norm(b, 2)
            )
        maxima[L] = max(cs)
    vals = list(maxima.values())
    assert max(vals) < FACE_COLUMN_CAP
    assert max(vals) / min(vals) <= 2.0


def test_column_estimates_3d():
    rng = np.random.default_rng(3)
    L = N = 8
    centered, face = [], []
    for _ in range(5):
        b = rng.standard_normal((2 * L, 2 * L))
        strip = proof_chain.halfspace_strip(b, N)
        col = 0.0
        for z in range(1, N + 1):
            lay = strip[:, :, z]
            col += (np.abs(lay[0, :] - lay.mean()) ** 2).sum()
        centered.append(col / lattice.lp_norm(b, 2) ** 2)
        bz = b - b.mean()
        stripz = proof_chain.halfspace_strip(bz, N)
        face.append(
            lattice.lp_norm(stripz[0, :, 1 : N + 1], 2) / lattice.lp_norm(bz, 2)
        )
    assert max(centered) < CENTERED_COLUMN_CAP_3D
    assert max(face) < FACE_COLUMN_CAP_3D


def test_weak_type_column_bound():
    # t * #{z <= Z : |u(0, z)| > t} stays below a fixed multiple of ||b||_1
    rng = np.random.default_rng(5)
    L, Z = 16, 64
    worst = 0.0
    for _ in range(20):
        b = rng.standard_normal(2 * L)
        b -= b.mean()
        col = np.array(
            [halfspace.halfspace_layer(b, z)[0] for z in range(1, Z + 1)]
        )
        n1 = np.abs(b).sum()
        for t in np.geomspace(1e-4, 10, 60):
            worst = max(worst, t * np.count_nonzero(np.abs(col) > t) / n1)
    assert worst < WEAK_L1_CAP
