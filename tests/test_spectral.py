"""Fourier transform conventions and the propagation symbols.

The transform tests lean on the brute-force reference in oracles.py rather
than on assumed coefficient positions, so they pin the storage convention
as implemented.
"""

import math

import numpy as np
import pytest

from harmonic_lab import halfspace, spectral

import oracles

SQRT2 = math.sqrt(2.0)


def test_index_grid():
    np.testing.assert_array_equal(spectral.index_grid(2), [0, 1, 2, -1])
    np.testing.assert_array_equal(spectral.index_grid(1), [0, 1])
    g = spectral.index_grid(5)
    assert g.min() == -4 and g.max() == 5 and len(g) == 10
    with pytest.raises(ValueError):
        spectral.index_grid(0)


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------


def test_forward_of_ones_is_a_single_spike():
    v = np.ones(4)  # L = 2, d = 1
    a = spectral.forward_dft(v)
    np.testing.assert_allclose(a, oracles.dft_forward_direct(v), atol=1e-12)
    assert a[0] == pytest.approx(2 * np.pi)
    np.testing.assert_allclose(a[1:], 0.0, atol=1e-12)


def test_single_mode_concentrates_at_one_coefficient():
    L = 4
    x = (np.pi / L) * spectral.index_grid(L)
    for k0 in (1, 3, -2):
        v = np.exp(-1j * k0 * x)
        a = spectral.forward_dft(v)
        ref = oracles.dft_forward_direct(v)
        np.testing.assert_allclose(a, ref, atol=1e-10)
        flat = np.abs(a)
        peak = int(np.argmax(flat))
        assert a[peak] == pytest.approx(2 * np.pi, abs=1e-10)
        rest = np.delete(flat, peak)
        assert rest.max() < 1e-10
        # the peak sits where the reference puts it
        assert peak == int(np.argmax(np.abs(ref)))


@pytest.mark.parametrize("d,L", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)])
def test_forward_matches_reference(d, L):
    rng = np.random.default_rng(100 + 10 * d + L)
    v = rng.standard_normal((2 * L,) * d)
    np.testing.assert_allclose(
        spectral.forward_dft(v), oracles.dft_forward_direct(v), atol=1e-10
    )


def test_inverse_matches_reference():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        spectral.inverse_dft(a), oracles.dft_inverse_direct(a), atol=1e-12
    )


def test_round_trip():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((8, 8))
    w = spectral.inverse_dft(spectral.forward_dft(v))
    np.testing.assert_allclose(w, v, atol=1e-10)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(
        spectral.forward_dft(spectral.inverse_dft(a)), a, atol=1e-10
    )


def test_linearity():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    lhs = spectral.forward_dft(2.0 * u - 3.0 * v)
    rhs = 2.0 * spectral.forward_dft(u) - 3.0 * spectral.forward_dft(v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("d,L", [(1, 4), (2, 4), (3, 2)])
def test_plancherel(d, L):
    rng = np.random.default_rng(40 + d)
    v = rng.standard_normal((2 * L,) * d)
    h = np.pi / L
    lhs = np.sum(np.abs(spectral.forward_dft(v)) ** 2)
    rhs = (2 * np.pi * h) ** d * np.sum(v**2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shift_rule():
    # shifting one site along axis i multiplies the transform by exp(-i h k_i)
    rng = np.random.default_rng(17)
    L = 4
    h = np.pi / L
    v = rng.standard_normal((2 * L, 2 * L))
    k = spectral.index_grid(L)
    for axis in (0, 1):
        shifted = np.roll(v, -1, axis=axis)
        phase = np.exp(-1j * h * k)
        shape = [1, 1]
        shape[axis] = 2 * L
        expect = spectral.forward_dft(v) * phase.reshape(shape)
        np.testing.assert_allclose(spectral.forward_dft(shifted), expect, atol=1e-10)


def test_partial_axes_transform():
    rng = np.random.default_rng(19)
    u = rng.standard_normal((8, 5))  # strip-like: last axis untouched
    a = spectral.forward_dft(u, axes=(0,))
    for y in range(5):
        np.testing.assert_allclose(
            a[:, y], oracles.dft_forward_direct(u[:, y]), atol=1e-11
        )
    with pytest.raises(ValueError):
        spectral.forward_dft(rng.standard_normal(5))  # odd extent
    with pytest.raises(ValueError):
        spectral.forward_dft(rng.standard_normal((4, 6)))  # mismatched sizes


# ---------------------------------------------------------------------------
# multiplier application
# ---------------------------------------------------------------------------


def test_apply_multiplier_trivial_symbols():
    rng = np.random.default_rng(23)
    u = rng.standard_normal((8, 8))
    out = spectral.apply_multiplier(np.ones_like(u), u)
    np.testing.assert_allclose(out.real, u, atol=1e-12)
    np.testing.assert_allclose(out.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        spectral.apply_multiplier(np.zeros_like(u), u), 0.0, atol=1e-14
    )


def test_apply_multiplier_shift_example():
    rng = np.random.default_rng(29)
    L = 4
    h = np.pi / L
    u = rng.standard_normal((2 * L, 2 * L))
    k = spectral.index_grid(L)
    for axis in (0, 1):
        shape = [1, 1]
        shape[axis] = 2 * L
        a = np.broadcast_to(
            np.exp(-1j * h * k).reshape(shape), u.shape
        )
        out = spectral.apply_multiplier(a, u)
        np.testing.assert_allclose(out.real, np.roll(u, -1, axis=axis), atol=1e-11)
        np.testing.assert_allclose(out.imag, 0.0, atol=1e-11)


def test_apply_multiplier_shape_mismatch():
    with pytest.raises(ValueError):
        spectral.apply_multiplier(np.ones((4, 4)), np.ones((4, 6)))


# ---------------------------------------------------------------------------
# scalar symbols
# ---------------------------------------------------------------------------


def test_principal_sqrt_values():
    assert spectral.principal_sqrt(4.0) == pytest.approx(2.0)
    assert spectral.principal_sqrt(0.0) == 0.0
    assert spectral.principal_sqrt(2j) == pytest.approx(1.0 + 1.0j)
    out = spectral.principal_sqrt(np.array([1.0, 4.0, -2j]))
    np.testing.assert_allclose(out, [1.0, 2.0, 1.0 - 1.0j], atol=1e-14)


def test_principal_sqrt_rejects_negative_reals():
    with pytest.raises(ValueError):
        spectral.principal_sqrt(-1.0)
    with pytest.raises(ValueError):
        spectral.principal_sqrt(np.array([1.0, -0.5]))


def test_principal_sqrt_right_half_plane():
    rng = np.random.default_rng(31)
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    z = z[~((z.real < 0) & (z.imag == 0))]
    w = spectral.principal_sqrt(z)
    assert (w.real >= 0).all()
    np.testing.assert_allclose(w**2, z, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lambda_symbol_range(d):
    zero = np.zeros(d - 1)
    assert spectral.lambda_symbol(zero, d) == pytest.approx(1.0)
    assert spectral.lambda_symbol(np.full(d - 1, np.pi), d) == pytest.approx(
        2 * d - 1.0
    )
    rng = np.random.default_rng(d)
    t = rng.uniform(-np.pi, np.pi, size=(500, d - 1))
    lam = spectral.lambda_symbol(t, d)
    assert (lam >= 1.0 - 1e-12).all()
    assert (lam <= 2 * d - 1 + 1e-12).all()
    tmax = np.abs(t).max(axis=-1)
    c = spectral.cosine_constant()
    assert (lam - 1 >= c * tmax**2 - 1e-12).all()
    assert (lam - 1 <= 0.5 * (d - 1) * tmax**2 + 1e-12).all()


def test_lambda_symbol_scalar_for_d2():
    assert spectral.lambda_symbol(np.pi, 2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        spectral.lambda_symbol(np.zeros(2), 2)


def test_q_and_f_at_anchor_points():
    assert spectral.q_symbol(1.0) == pytest.approx(1.0)
    assert spectral.f_symbol(1.0) == pytest.approx(0.0)
    assert spectral.q_symbol(3.0) == pytest.approx(3.0 + 2.0 * SQRT2)
    assert spectral.f_symbol(3.0) == pytest.approx(2.0 - 2.0 * SQRT2)


def test_q_rejects_the_cut():
    with pytest.raises(ValueError):
        spectral.q_symbol(0.5)
    with pytest.raises(ValueError):
        spectral.q_symbol(np.array([2.0, -3.0]))
    # just off the axis is fine
    spectral.q_symbol(0.5 + 1e-6j)


def test_q_algebraic_identities():
    rng = np.random.default_rng(37)
    z = rng.uniform(1.01, 6.0, 80) + 1j * rng.uniform(-4.0, 4.0, 80)
    q = spectral.q_symbol(z)
    np.testing.assert_allclose(q + 1.0 / q, 2.0 * z, atol=1e-10)
    f = spectral.f_symbol(z)
    np.testing.assert_allclose(f**2, 2.0 * (z - 1.0) / q, atol=1e-10)
    # |Q| > 1 away from z = 1, so layers contract
    assert (np.abs(q) > 1.0).all()


def test_q_dominates_lambda():
    rng = np.random.default_rng(41)
    t = rng.uniform(-np.pi, np.pi, size=(300, 2))
    lam = spectral.lambda_symbol(t, 3)
    q = spectral.q_symbol(lam).real
    assert (q >= lam - 1e-12).all()
    assert spectral.q_symbol(spectral.lambda_symbol(np.zeros(2), 3)) == pytest.approx(
        1.0
    )


# ---------------------------------------------------------------------------
# tangential ratio symbols
# ---------------------------------------------------------------------------


def test_neumann_symbol_values():
    assert spectral.neumann_symbol(0, 0.0, 2) == 0.0
    val = spectral.neumann_symbol(0, np.pi, 2)
    assert val == pytest.approx(1.0 + SQRT2)
    assert abs(val.imag) < 1e-14


def test_neumann_symbol_axis_handling():
    t = np.array([0.0, np.pi])
    # axis 1 carries the pi angle
    v1 = spectral.neumann_symbol(1, t, 3)
    lam = spectral.lambda_symbol(t, 3)
    expect = (np.exp(-1j * np.pi) - 1.0) / spectral.f_symbol(lam)
    assert v1 == pytest.approx(expect)
    with pytest.raises(ValueError):
        spectral.neumann_symbol(2, t, 3)
    with pytest.raises(ValueError):
        spectral.neumann_symbol(-1, t, 3)


def test_dirichlet_symbol_zero_convention():
    t = np.array([0.0, 1.3])
    assert spectral.dirichlet_symbol(0, t, 3) == 0.0
    assert spectral.dirichlet_symbol(1, t, 3) != 0.0
    assert spectral.dirichlet_symbol(0, 0.0, 2) == 0.0


@pytest.mark.parametrize("d,L", [(2, 1), (2, 16), (3, 8), (4, 4)])
def test_grid_symbols_match_the_pointwise_symbols_bit_for_bit(d, L):
    angles = halfspace.tangential_angles(d, L)
    grid = spectral.grid_symbols(d, L)
    lam = spectral.lambda_symbol(angles, d)
    np.testing.assert_array_equal(grid.f, spectral.f_symbol(lam))
    for i in range(d - 1):
        dirichlet, neumann = grid.dirichlet(i), grid.neumann(i)
        assert dirichlet.shape == neumann.shape == lam.shape
        np.testing.assert_array_equal(dirichlet, spectral.dirichlet_symbol(i, angles, d))
        np.testing.assert_array_equal(neumann, spectral.neumann_symbol(i, angles, d))
    with pytest.raises(ValueError):
        spectral.grid_symbols(1, L)


def test_ratio_symbols_are_reciprocal():
    rng = np.random.default_rng(43)
    for d in (2, 3):
        t = rng.uniform(0.2, np.pi, size=(50, d - 1))
        for i in range(d - 1):
            n = spectral.neumann_symbol(i, t, d)
            g = spectral.dirichlet_symbol(i, t, d)
            np.testing.assert_allclose(n * g, 1.0, atol=1e-12)


def test_scaled_symbol():
    L = 8
    h = np.pi / L
    sym = lambda t: spectral.neumann_symbol(0, t, 2)
    assert spectral.scaled_symbol(sym, h, 0.0) == 0.0
    assert spectral.scaled_symbol(sym, h, float(L)) == pytest.approx(1.0 + SQRT2)
    with pytest.raises(ValueError):
        spectral.scaled_symbol(sym, h, float(L + 1))


def test_cosine_constant():
    c = spectral.cosine_constant()
    assert c == pytest.approx(2.0 / np.pi**2, rel=1e-15)
    assert c < 0.5
    s = np.linspace(-np.pi, np.pi, 10001)
    s = s[s != 0.0]
    ratio = (1.0 - np.cos(s)) / s**2
    assert ratio.min() >= c - 1e-12
    # the infimum is attained at the endpoints
    assert ratio[0] == pytest.approx(c, rel=1e-9)


# ---------------------------------------------------------------------------
# derivative control through the resolvent circle
# ---------------------------------------------------------------------------


def _circle_max(z, fn, points=360):
    theta = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    zeta = z + 0.5 * abs(z - 1.0) * np.exp(1j * theta)
    return np.abs(fn(zeta)).max()


def _central_diff(g, t, alpha, step=1e-5):
    axes = [i for i, a in enumerate(alpha) if a]
    if not axes:
        return abs(g(t))
    if len(axes) == 1:
        i = axes[0]
        e = np.zeros_like(t)
        e[i] = step
        return abs(g(t + e) - g(t - e)) / (2 * step)
    i, j = axes
    ei = np.zeros_like(t)
    ej = np.zeros_like(t)
    ei[i] = step
    ej[j] = step
    num = g(t + ei + ej) - g(t + ei - ej) - g(t - ei + ej) + g(t - ei - ej)
    return abs(num) / (4 * step**2)


@pytest.mark.parametrize("d", [2, 3])
def test_composed_symbol_derivatives_obey_circle_bound(d):
    """Mixed first differences of f(lambda(t)) against the Cauchy-type bound
    with constant (2/c)^|alpha| |alpha|! / |t|_inf^|alpha| times the max of f
    on the circle around lambda(t) of radius half the gap to 1."""
    c = spectral.cosine_constant()
    g = lambda t: spectral.f_symbol(spectral.lambda_symbol(t, d))
    rng = np.random.default_rng(7)
    alphas = [
        a
        for a in np.ndindex(*((2,) * (d - 1)))
        if sum(a) <= 2
    ]
    for _ in range(40):
        t = rng.uniform(-np.pi, np.pi, size=d - 1)
        if np.abs(t).max() < 0.1:
            continue
        z = spectral.lambda_symbol(t, d)
        tinf = np.abs(t).max()
        for alpha in alphas:
            k = sum(alpha)
            measured = _central_diff(g, t, alpha)
            bound = (2.0 / c) ** k * math.factorial(k) / tinf**k
            bound *= _circle_max(complex(z), spectral.f_symbol)
            assert measured <= bound * (1.0 + 1e-3)
