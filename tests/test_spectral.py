"""Fourier transform conventions and the propagation symbols.

The transform tests lean on the brute-force reference in oracles.py rather
than on assumed coefficient positions, so they pin the storage convention
as implemented.
"""

import math

import numpy as np
import pytest

import harmonic_lab
from harmonic_lab import halfspace, spectral

import oracles

SQRT2 = math.sqrt(2.0)


def _bits(a):
    """The 64-bit words of a float64 or complex128 array, so that equality
    also tells -0.0 from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


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
# multiplier application: inverse_dft(a * forward_dft(u)), as the layer
# solvers apply their decay factors
# ---------------------------------------------------------------------------


def _apply(a, u):
    return spectral.inverse_dft(a * spectral.forward_dft(u))


def test_apply_multiplier_trivial_symbols():
    rng = np.random.default_rng(23)
    u = rng.standard_normal((8, 8))
    out = _apply(np.ones_like(u), u)
    np.testing.assert_allclose(out.real, u, atol=1e-12)
    np.testing.assert_allclose(out.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(_apply(np.zeros_like(u), u), 0.0, atol=1e-14)


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
        out = _apply(a, u)
        np.testing.assert_allclose(out.real, np.roll(u, -1, axis=axis), atol=1e-11)
        np.testing.assert_allclose(out.imag, 0.0, atol=1e-11)


# ---------------------------------------------------------------------------
# scalar symbols
# ---------------------------------------------------------------------------


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
    c = oracles.cosine_constant()
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


def test_q_algebraic_identities():
    rng = np.random.default_rng(37)
    z = rng.uniform(1.01, 6.0, 80)
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
    assert oracles.neumann_symbol(0, 0.0, 2) == 0.0
    val = oracles.neumann_symbol(0, np.pi, 2)
    assert val == pytest.approx(1.0 + SQRT2)
    assert abs(val.imag) < 1e-14


def test_neumann_symbol_axis_handling():
    t = np.array([0.0, np.pi])
    # axis 1 carries the pi angle
    v1 = oracles.neumann_symbol(1, t, 3)
    lam = spectral.lambda_symbol(t, 3)
    expect = (np.exp(-1j * np.pi) - 1.0) / spectral.f_symbol(lam)
    assert v1 == pytest.approx(expect)
    with pytest.raises(ValueError):
        oracles.neumann_symbol(2, t, 3)
    with pytest.raises(ValueError):
        oracles.neumann_symbol(-1, t, 3)


def test_dirichlet_symbol_zero_convention():
    t = np.array([0.0, 1.3])
    assert spectral.dirichlet_symbol(0, t, 3) == 0.0
    assert spectral.dirichlet_symbol(1, t, 3) != 0.0
    assert spectral.dirichlet_symbol(0, 0.0, 2) == 0.0


def _report_symbols(d, L, rows):
    """The symbol report's two symbols on the axis-0 rows ``rows``, point by
    point: Neumann along axis 0, and each entry's Dirichlet symbol of the
    axis ``dyadic.dominant_axes`` labels it with."""
    from harmonic_lab import dyadic

    angles = halfspace.tangential_angles(d, L)[rows]
    per_axis = [spectral.dirichlet_symbol(i, angles, d) for i in range(d - 1)]
    glued = np.choose(dyadic.dominant_axes(d - 1, L, rows), per_axis)
    return oracles.neumann_symbol(0, angles, d), glued


@pytest.mark.parametrize("d,L", [(2, 1), (2, 16), (3, 8), (4, 4)])
def test_grid_symbols_match_the_pointwise_symbols_bit_for_bit(d, L):
    """On the whole grid and on blocks of axis-0 rows: one row, rows across
    the periodic wrap, and the upper half."""
    symbols = spectral.grid_symbols(d, L)
    wrap = np.array([2 * L - 1, 0, 1]) % (2 * L)
    for rows in (np.arange(2 * L), np.arange(1), wrap, np.arange(L, 2 * L)):
        got = symbols(rows)
        assert got.shape == (len(rows),) + (2 * L,) * (d - 2) + (2,)
        for j, want in enumerate(_report_symbols(d, L, rows)):
            np.testing.assert_array_equal(_bits(got[..., j]), _bits(want))
    with pytest.raises(ValueError):
        spectral.grid_symbols(1, L)


@pytest.mark.parametrize("i", [-1, 2, 3])
def test_grid_symbols_reject_an_axis_out_of_range(i):
    """The per-axis symbols that the report's row function reproduces raise
    on an axis out of range instead of returning another axis's symbol
    (numpy indexing wraps -1); the row function itself takes its axes from
    ``dyadic.dominant_axes``, which labels only axes of the grid."""
    from harmonic_lab import dyadic

    t = np.zeros(2)
    message = f"tangential axis {i} out of range for d=3"
    for pointwise in (spectral.dirichlet_symbol, oracles.neumann_symbol):
        with pytest.raises(ValueError, match=message):
            pointwise(i, t, 3)
    labels = dyadic.dominant_axes(2, 4)
    assert labels.min() == 0 and labels.max() == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_lambda_gives_the_real_part_of_the_complex_evaluation(d):
    """f and Q of a real grid are float64 and equal, bit for bit, the real
    part of the same evaluation in complex arithmetic, whose imaginary part
    is 0."""
    for L in (1, 3, 8):
        lam = spectral.lambda_symbol(halfspace.tangential_angles(d, L), d)
        assert lam.dtype == np.float64
        for symbol, full in [
            (spectral.q_symbol, oracles.complex_q_symbol(lam)),
            (spectral.f_symbol, oracles.complex_f_symbol(lam)),
        ]:
            real = symbol(lam)
            assert real.dtype == np.float64
            np.testing.assert_array_equal(_bits(real), _bits(full.real))
            assert not full.imag.any()


def test_real_q_and_f_above_one_equal_the_complex_real_part():
    rng = np.random.default_rng(47)
    z = np.concatenate([[1.0, np.nextafter(1.0, 2.0), 2.0], rng.uniform(1.0, 50.0, 10_000)])
    for symbol, full in [
        (spectral.q_symbol, oracles.complex_q_symbol(z)),
        (spectral.f_symbol, oracles.complex_f_symbol(z)),
    ]:
        np.testing.assert_array_equal(_bits(symbol(z)), _bits(full.real))
        assert not full.imag.any()


def test_real_and_complex_input_keep_their_kind():
    """Real input of any real kind gives float64 (a float for a scalar);
    complex input, which no grid here produces, is refused, scalar or array,
    even with a zero imaginary part (an array cast once dropped it with a
    warning and returned a wrong real Q)."""
    for z in (3.0, 3, np.float32(3.0)):
        assert isinstance(spectral.q_symbol(z), float)
        assert isinstance(spectral.f_symbol(z), float)
    for real in (np.array([1.0, 2.5]), np.array([1, 4]), np.array([1.0, 2.5], np.float32)):
        assert spectral.q_symbol(real).dtype == np.float64
        assert spectral.f_symbol(real).dtype == np.float64
    for z in (3 + 0j, 3 + 1j, np.complex128(3 + 1j), np.array([3 + 1j]), np.array([3.0 + 0j])):
        for symbol in (spectral.q_symbol, spectral.f_symbol):
            with pytest.raises(TypeError, match="real z only"):
                symbol(z)


@pytest.mark.parametrize("d,L", [(2, 1), (2, 8), (3, 3), (3, 8), (4, 4), (5, 2)])
def test_grid_dirichlet_by_labels_equals_the_chosen_axis_symbols(d, L):
    """The report's glued Dirichlet symbol picks each entry's axis from the
    angles alone, bit for bit what np.choose over the per-axis symbols
    gives, on the whole grid and on a block of rows."""
    symbols = spectral.grid_symbols(d, L)
    for rows in (np.arange(2 * L), np.arange(L, 2 * L)):
        glued = _report_symbols(d, L, rows)[1]
        np.testing.assert_array_equal(_bits(symbols(rows)[..., 1]), _bits(glued))


def test_grid_symbols_refuse_a_grid_over_the_budget(monkeypatch):
    """The estimate, one block of axis-0 rows and the report's per-row
    partial reductions, is checked before anything is built, so a grid of
    trillions of entries is refused at once."""
    from harmonic_lab import dyadic

    with pytest.raises(ValueError, match=r"d=6, L=64 needs about \d+ MiB"):
        spectral.grid_symbols(6, 64)
    # one row of 64 entries per block, read with the row after it, and for
    # each of the 64 rows 3 partials (the 2 flag vectors that sum along
    # axis 0 and the shared maximum) x (full, dropped) x 2 symbols x 12
    # levels of float64: a budget of exactly the d = 3, L = 32 estimate
    # admits it and refuses L = 33, whose rows are longer and have 13 levels
    monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", 1)
    estimate = 2 * 64 * spectral.SYMBOL_BYTES_PER_ENTRY + 64 * 3 * 2 * 2 * 12 * 8
    monkeypatch.setattr(harmonic_lab, "MEMORY_BUDGET", estimate)
    assert spectral.grid_symbols(3, 32)(np.arange(64)).shape == (64, 64, 2)
    with pytest.raises(ValueError, match="d=3, L=33 needs about 0 MiB"):
        spectral.grid_symbols(3, 33)
    # three rows per block read four at a time: the L = 32 block no longer fits
    monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", 3 * 64)
    with pytest.raises(ValueError, match="d=3, L=32 needs about 0 MiB"):
        spectral.grid_symbols(3, 32)


def test_ratio_symbols_are_reciprocal():
    rng = np.random.default_rng(43)
    for d in (2, 3):
        t = rng.uniform(0.2, np.pi, size=(50, d - 1))
        for i in range(d - 1):
            n = oracles.neumann_symbol(i, t, d)
            g = spectral.dirichlet_symbol(i, t, d)
            np.testing.assert_allclose(n * g, 1.0, atol=1e-12)


def test_cosine_constant():
    c = oracles.cosine_constant()
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
    c = oracles.cosine_constant()
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
            bound *= _circle_max(complex(z), oracles.complex_f_symbol)
            assert measured <= bound * (1.0 + 1e-3)
