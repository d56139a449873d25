"""Spectral solvers for harmonic functions on periodic half-spaces and
strips, telescope extension iterations, and the periodized Poisson kernel.

Layers are arrays of shape (2L,)*(d-1) in the wrap-around layout of
:mod:`harmonic_lab.spectral`; strip functions carry the height as one extra
final axis of length N+1.  Per Fourier mode k the harmonic layer recursion
reads u(k, y+1) + u(k, y-1) = 2 lambda(hk) u(k, y), whose decaying root is
the reciprocal of the propagation factor Q(lambda(hk)); moving up one layer
multiplies mode k by Q(lambda(hk))^(-1).  The Neumann strip solvers test
their data with ``lattice.check_zero_flux``, imported when they run, so the
kernel report loads no box geometry.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np

from .spectral import (
    f_symbol,
    forward_dft,
    index_grid,
    inverse_dft,
    lambda_symbol,
    q_symbol,
)

__all__ = [
    "tangential_angles",
    "halfspace_layer",
    "halfspace_strip",
    "dirichlet_strip_solve",
    "neumann_strip_solve",
    "telescope_dirichlet",
    "telescope_neumann",
    "periodized_poisson_kernel",
    "tangential_difference",
    "normal_difference",
]

logger = logging.getLogger(__name__)

#: iteration ceiling for the telescope constructions
MAX_TELESCOPE_STEPS = 200

#: aspect ratio window L/N accepted by the telescope constructions
DEFAULT_ASPECT_BOUNDS = (0.25, 4.0)


def tangential_angles(d: int, L: int) -> np.ndarray:
    """Grid of angles h*k over the stored frequency box, components last."""
    h = math.pi / L
    axes = [h * index_grid(L)] * (d - 1)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@lru_cache(maxsize=8)
def _mode_factors(d: int, L: int):
    """lambda(hk) and Q(lambda(hk)), read-only: every caller shares them."""
    lam = lambda_symbol(tangential_angles(d, L), d)
    q = q_symbol(lam)
    lam.flags.writeable = False
    q.flags.writeable = False
    return lam, q


def _layer_dims(layer: np.ndarray):
    d = layer.ndim + 1
    sizes = set(layer.shape)
    if len(sizes) != 1 or layer.shape[0] % 2:
        raise ValueError(f"layer shape {layer.shape} is not a cubic even grid")
    return d, layer.shape[0] // 2


def halfspace_layer(bottom: np.ndarray, n: int) -> np.ndarray:
    """Layer ``n`` of the bounded harmonic extension of ``bottom`` upward.

    Mode k of the transform is damped by Q(lambda(hk))^(-n); n = 0 returns
    the input unchanged.
    """
    bottom = np.asarray(bottom)
    if n < 0:
        raise ValueError(f"layer index must be nonnegative, got {n}")
    if n == 0:
        return bottom.copy()
    d, L = _layer_dims(bottom)
    q = _mode_factors(d, L)[1]
    out = inverse_dft(forward_dft(bottom) * q ** (-float(n)))
    return out.real if np.isrealobj(bottom) else out


def halfspace_strip(bottom: np.ndarray, N: int) -> np.ndarray:
    """Layers 0..N of the upward harmonic extension, height on the last axis."""
    bottom = np.asarray(bottom)
    d, L = _layer_dims(bottom)
    F = forward_dft(bottom)
    return _mode_sum(F, np.zeros_like(F), _mode_factors(d, L)[1], N, np.isrealobj(bottom))


def _mode_sum(A, B, q, N, real, slope=0.0):
    """Strip whose mode k at height y is A Q^(-y) + B Q^(-(N-y)), plus
    ``slope`` * y / N on the mean mode, taken back to physical space; the
    real part when ``real``."""
    ys = np.arange(N + 1, dtype=float)
    decay = q[..., None] ** (-ys)
    coef = A[..., None] * decay + B[..., None] * decay[..., ::-1]
    coef[(0,) * q.ndim] += slope * ys / N
    out = inverse_dft(coef, axes=range(q.ndim))
    return out.real if real else out


def dirichlet_strip_solve(bottom: np.ndarray, top: np.ndarray, N: int) -> np.ndarray:
    """Harmonic strip function with prescribed bottom and top layers.

    Solved per Fourier mode with the basis {Q^(-y), Q^(-(N-y))}; the
    degenerate mean mode interpolates linearly in height.
    """
    bottom = np.asarray(bottom)
    top = np.asarray(top)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top layers differ in shape")
    if N < 1:
        raise ValueError(f"strip height must be positive, got {N}")
    d, L = _layer_dims(bottom)
    q = _mode_factors(d, L)[1]
    b0 = forward_dft(bottom)
    bN = forward_dft(top)

    qN = q ** (-float(N))
    denom = 1.0 - qN**2
    zero = tuple([0] * (d - 1))
    denom[zero] = 1.0  # placeholder entry, the mean mode is overwritten below
    A = (b0 - bN * qN) / denom
    B = (bN - b0 * qN) / denom
    # Q = 1 on the mean mode: the constant b0 plus the linear term
    A[zero], B[zero] = b0[zero], 0.0
    real = np.isrealobj(bottom) and np.isrealobj(top)
    return _mode_sum(A, B, q, N, real, slope=bN[zero] - b0[zero])


def neumann_strip_solve(bottom: np.ndarray, top: np.ndarray, N: int) -> np.ndarray:
    """Harmonic strip function with prescribed normal differences.

    ``bottom`` is the forward difference w(., 1) - w(., 0) and ``top`` the
    backward difference w(., N) - w(., N-1).  Each data layer must sum to
    zero; the result is gauged to zero mean on layer 0.  Heights below 2
    leave the per-mode system rank deficient and are rejected.
    """
    from .lattice import check_zero_flux

    bottom = np.asarray(bottom)
    top = np.asarray(top)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top data differ in shape")
    if N < 2:
        raise ValueError(f"strip height must be at least 2, got {N}")
    check_zero_flux(bottom.ravel(), "bottom layer")
    check_zero_flux(top.ravel(), "top layer")
    d, L = _layer_dims(bottom)
    q = _mode_factors(d, L)[1]
    gb = forward_dft(bottom)
    gt = forward_dft(top)

    # per-mode 2x2 system for the coefficients of Q^(-y) and Q^(-(N-y))
    qN = q ** (-float(N))
    m11 = 1.0 / q - 1.0
    m12 = qN * (q - 1.0)
    m21 = -qN * (q - 1.0)
    m22 = 1.0 - 1.0 / q
    det = m11 * m22 - m12 * m21
    zero = tuple([0] * (d - 1))
    det[zero] = 1.0  # the mean mode carries no data and stays zero
    A = (gb * m22 - gt * m12) / det
    B = (gt * m11 - gb * m21) / det
    A[zero] = 0.0
    B[zero] = 0.0
    return _mode_sum(A, B, q, N, np.isrealobj(bottom) and np.isrealobj(top))


def _check_aspect(L, N, bounds):
    lo, hi = bounds
    ratio = L / N
    if not lo <= ratio <= hi:
        raise ValueError(
            f"aspect ratio L/N = {ratio:.3g} outside [{lo}, {hi}]; "
            "the telescope construction assumes comparable side lengths"
        )


def _run_telescope(seed, N, tol, solve, defect, down_sign):
    """Alternating-extension loop for one mean-zero seed layer.

    ``solve(seed, N)`` is the upward strip that matches ``seed`` at the
    bottom, and ``defect(strip)`` reads the next seed off its top.  Up steps
    add the strip; down steps add ``down_sign`` times its flip, which
    cancels the pending top defect while leaving a new bottom defect, so
    both orientations read the next seed off the unflipped strip.  Returns
    the accumulated strip and the seed-norm trace.
    """
    norm0 = float(np.linalg.norm(seed.ravel()))
    trace = [norm0]
    w = np.zeros(seed.shape + (N + 1,))
    threshold = tol * norm0
    up = True
    for _ in range(MAX_TELESCOPE_STEPS):
        if trace[-1] <= threshold:
            return w, trace
        if len(trace) >= 4 and trace[-1] >= trace[-2]:
            raise RuntimeError(
                "telescope iteration stopped contracting: seed norms "
                f"{trace[-2]:.6e} -> {trace[-1]:.6e}"
            )
        strip = solve(seed, N)
        w = w + (strip if up else down_sign * strip[..., ::-1])
        seed = defect(strip)
        trace.append(float(np.linalg.norm(seed.ravel())))
        up = not up
    raise RuntimeError(
        f"telescope did not reach tolerance {tol} within "
        f"{MAX_TELESCOPE_STEPS} steps"
    )


def _neumann_up(data, N):
    """Upward solve whose bottom forward difference is ``data`` (mean zero):
    layer 0 has transform F(data) / f(lambda)."""
    d, L = _layer_dims(data)
    lam = _mode_factors(d, L)[0]
    g = forward_dft(data)
    zero = tuple([0] * (d - 1))
    f = f_symbol(lam)
    f[zero] = 1.0
    g = g / f
    g[zero] = 0.0
    bottom = inverse_dft(g)
    if np.isrealobj(data):
        bottom = bottom.real
    return halfspace_strip(bottom, N)


def telescope_dirichlet(
    bottom: np.ndarray,
    top: np.ndarray,
    N: int,
    tol: float = 1e-10,
    aspect_bounds=DEFAULT_ASPECT_BOUNDS,
):
    """Strip solution with prescribed boundary layers via alternating
    half-space extensions.

    The layer means are carried by an affine-in-height profile; each mean
    zero part seeds a telescope whose successive seed norms contract
    geometrically.  Returns the strip and a dict with the two per-step
    seed-norm traces.
    """
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top layers differ in shape")
    if N < 1:
        raise ValueError(f"strip height must be positive, got {N}")
    d, L = _layer_dims(bottom)
    _check_aspect(L, N, aspect_bounds)

    m0 = float(np.mean(bottom))
    mN = float(np.mean(top))
    ys = np.arange(N + 1, dtype=float)
    affine = m0 * (N - ys) / N + mN * ys / N
    w = np.broadcast_to(affine, bottom.shape + (N + 1,)).copy()

    steps = (N, tol, halfspace_strip, lambda strip: strip[..., N], -1.0)
    w1, trace_bottom = _run_telescope(bottom - m0, *steps)
    w2, trace_top = _run_telescope(top - mN, *steps)
    w += w1 + w2[..., ::-1]
    return w, {"bottom": trace_bottom, "top": trace_top}


def telescope_neumann(
    bottom: np.ndarray,
    top: np.ndarray,
    N: int,
    tol: float = 1e-10,
    aspect_bounds=DEFAULT_ASPECT_BOUNDS,
):
    """Strip solution with prescribed normal differences via alternating
    half-space solves.

    ``bottom`` and ``top`` carry the forward difference at layer 0 and the
    backward difference at layer N.  Their means must agree, so the net
    flux ``bottom`` minus ``top`` sums to zero; the common mean is carried
    by a linear-in-height profile and the mean zero parts seed two
    telescopes.  Gauged to zero mean on layer 0.  Returns the strip and the
    two seed-norm traces.
    """
    from .lattice import check_zero_flux

    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top data differ in shape")
    if N < 2:
        raise ValueError(f"strip height must be at least 2, got {N}")
    d, L = _layer_dims(bottom)
    _check_aspect(L, N, aspect_bounds)

    flux = np.concatenate([bottom.ravel(), -top.ravel()])
    check_zero_flux(flux, "unequal layer means: bottom minus top")
    mb = float(np.mean(bottom))
    mt = float(np.mean(top))
    ys = np.arange(N + 1, dtype=float)
    w = np.broadcast_to(mb * ys, bottom.shape + (N + 1,)).copy()

    steps = (N, tol, _neumann_up, lambda strip: strip[..., N] - strip[..., N - 1], 1.0)
    w1, trace_bottom = _run_telescope(bottom - mb, *steps)
    w2, trace_top = _run_telescope(-(top - mt), *steps)
    w += w1 + w2[..., ::-1]
    return w, {"bottom": trace_bottom, "top": trace_top}


def periodized_poisson_kernel(z: int, d: int, L: int) -> np.ndarray:
    """Exit distribution on the periodized hyperplane of the walk from
    height ``z``: the z-th layer of the harmonic extension of a unit mass
    at the origin, normalized to total mass exactly 1."""
    if z < 1:
        raise ValueError(f"start height must be at least 1, got {z}")
    if L < 1:
        raise ValueError(f"half-period must be positive, got {L}")
    delta = np.zeros((2 * L,) * (d - 1))
    delta[tuple([0] * (d - 1))] = 1.0
    kernel = halfspace_layer(delta, z)
    return kernel / kernel.sum()


def tangential_difference(layer: np.ndarray, i: int, h: float) -> np.ndarray:
    """Scaled forward difference (u(x + h e_i) - u(x)) / h along axis ``i``."""
    layer = np.asarray(layer)
    return (np.roll(layer, -1, axis=i) - layer) / h


def normal_difference(lower: np.ndarray, upper: np.ndarray, h: float) -> np.ndarray:
    """Scaled difference (upper - lower) / h between consecutive layers."""
    return (np.asarray(upper) - np.asarray(lower)) / h
