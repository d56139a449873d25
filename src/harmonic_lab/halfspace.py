"""Spectral solvers for harmonic functions on periodic half-spaces and
strips, and the periodized Poisson kernel.

Layers are arrays of shape (2L,)*(d-1) in the wrap-around layout of
:mod:`harmonic_lab.spectral`; strip functions carry the height as one extra
final axis of length N+1.  Per Fourier mode k the harmonic layer recursion
reads u(k, y+1) + u(k, y-1) = 2 lambda(hk) u(k, y), whose decaying root is
the reciprocal of the propagation factor Q(lambda(hk)); moving up one layer
multiplies mode k by Q(lambda(hk))^(-1).  The rest of the paper's strip
chain (stacked upward strips, the Neumann strip solve and the alternating
half-space extensions, or telescopes) is test oracles in
``tests/proof_chain.py``, built on ``_mode_factors`` and ``_mode_sum``.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np

from .spectral import (
    forward_dft,
    index_grid,
    inverse_dft,
    lambda_symbol,
    q_symbol,
)

__all__ = [
    "tangential_angles",
    "halfspace_layer",
    "dirichlet_strip_solve",
    "periodized_poisson_kernel",
]

logger = logging.getLogger(__name__)


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


# no command calls this; the benchmark's tracer test reads it (through the
# boxes shim too), so it stays until ROADMAP item 6 rewrites that test
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
