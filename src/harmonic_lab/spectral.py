"""Discrete Fourier transform on periodic mesh lattices and the propagation
symbols of the discrete Laplacian.

Conventions
-----------
A periodic grid function with half-period L lives on the index set
I_L = {-L+1, ..., L} per axis, stored in wrap-around order: array position j
holds the value at coordinate j for 0 <= j <= L and at coordinate j - 2L for
j > L (``index_grid`` returns the coordinate of each position).  The mesh
size is h = pi / L, spatial points are x = h * m for m in I_L.

The forward transform of v is

    F(v)(k) = h^d * sum_x v(x) * exp(+i k . x),      k in I_L^d,

and the inverse transform of a coefficient field a is

    w(x) = (2 pi)^(-d) * sum_k a(k) * exp(-i k . x).

With h = pi / L the pair is an exact round trip.  Under this convention a
shift by one site along axis i multiplies the transform by exp(-i h k_i).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "index_grid",
    "forward_dft",
    "inverse_dft",
    "apply_multiplier",
    "principal_sqrt",
    "lambda_symbol",
    "q_symbol",
    "f_symbol",
    "neumann_symbol",
    "dirichlet_symbol",
    "GridSymbols",
    "grid_symbols",
    "scaled_symbol",
    "cosine_constant",
]


def index_grid(L: int) -> np.ndarray:
    """Integer coordinates of I_L = {-L+1..L} in storage order.

    Position j maps to j for j <= L and to j - 2L above, so the array reads
    [0, 1, ..., L, -L+1, ..., -1].
    """
    if L < 1:
        raise ValueError(f"half-period must be positive, got {L}")
    j = np.arange(2 * L)
    return np.where(j <= L, j, j - 2 * L)


def _resolve_axes(v: np.ndarray, axes):
    if axes is None:
        axes = tuple(range(v.ndim))
    else:
        axes = tuple(int(a) % v.ndim for a in axes)
    sizes = {v.shape[a] for a in axes}
    if len(sizes) != 1:
        raise ValueError(f"transformed axes must share one size, got {v.shape}")
    n = sizes.pop()
    if n < 2 or n % 2:
        raise ValueError(f"period must be even and at least 2, got {n}")
    return axes, n // 2


def forward_dft(v, axes=None) -> np.ndarray:
    """Transform a periodic grid function to its coefficient field.

    Parameters
    ----------
    v : array with an even extent 2L on every transformed axis.
    axes : axes to transform; all of them by default.  Untransformed axes
        are carried along, which is how strip functions are handled layer
        by layer.
    """
    v = np.asarray(v)
    axes, L = _resolve_axes(v, axes)
    h = math.pi / L
    # ifftn uses the exp(+2 pi i j k / n) kernel, matching exp(+i k x) on
    # the mesh; undo its 1/n normalization per transformed axis.
    scale = (h * 2 * L) ** len(axes)
    return scale * np.fft.ifftn(v, axes=axes)


def inverse_dft(a, axes=None) -> np.ndarray:
    """Inverse of :func:`forward_dft` on the same storage layout."""
    a = np.asarray(a)
    axes, _ = _resolve_axes(a, axes)
    return (2 * math.pi) ** (-len(axes)) * np.fft.fftn(a, axes=axes)


def apply_multiplier(a, u, axes=None) -> np.ndarray:
    """Apply the Fourier multiplier ``a`` to the grid function ``u``.

    Returns inverse_dft(a * forward_dft(u)).  The result is complex; it is
    real up to rounding whenever u is real and a(-k) = conj(a(k)) with
    indices taken modulo the period.
    """
    a = np.asarray(a)
    u = np.asarray(u)
    if a.shape != u.shape:
        raise ValueError(f"multiplier shape {a.shape} != data shape {u.shape}")
    return inverse_dft(a * forward_dft(u, axes=axes), axes=axes)


def principal_sqrt(z):
    """Principal branch square root, continuous off (-inf, 0), with 0 at 0.

    Accepts scalars or arrays; inputs on the open negative real axis are
    rejected.  The real part of the result is never negative.  This is
    numpy's complex square root, which takes the principal branch.
    """
    arr = np.asarray(z, dtype=complex)
    if np.any((arr.real < 0) & (arr.imag == 0)):
        raise ValueError("square root is not defined on the negative real axis")
    out = np.sqrt(arr)
    return complex(out) if out.ndim == 0 else out


def _as_angles(t, d: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if t.ndim == 0:
        t = t.reshape(1)
    if t.shape[-1] != d - 1:
        raise ValueError(
            f"expected {d - 1} tangential components on the last axis, got {t.shape}"
        )
    return t


def lambda_symbol(t, d: int):
    """Tangential symbol d - sum_i cos(t_i) of the layer recursion.

    ``t`` holds the d-1 tangential angles on its last axis (a scalar is
    accepted when d = 2).  Values lie in [1, 2d-1] for t in [-pi, pi]^(d-1).
    """
    t = _as_angles(t, d)
    return d - np.cos(t).sum(axis=-1)


def q_symbol(z):
    """Layer propagation factor z + sqrt(z+1) sqrt(z-1), off (-inf, 1).

    The reciprocal root of the same quadratic is 1/Q, and Q + 1/Q = 2z.
    """
    arr = np.asarray(z, dtype=complex)
    if np.any((arr.real < 1) & (arr.imag == 0)):
        raise ValueError("propagation factor is not defined on (-inf, 1)")
    return z + principal_sqrt(arr + 1) * principal_sqrt(arr - 1)


def f_symbol(z):
    """Normal difference symbol 1/Q(z) - 1."""
    return 1.0 / q_symbol(z) - 1.0


def _phase(t):
    """The shift symbol exp(-i t) - 1."""
    return np.exp(-1j * t) - 1.0


def _quotient(num, den, zero):
    """num / den with the value 0 on the mask ``zero``, where den may
    vanish; the operands broadcast against each other."""
    out = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
    return complex(out) if out.ndim == 0 else out


def _axis_angles(i: int, t, d: int):
    t = _as_angles(t, d)
    if not 0 <= i < d - 1:
        raise ValueError(f"tangential axis {i} out of range for d={d}")
    return t, t[..., i]


def neumann_symbol(i: int, t, d: int):
    """Ratio (exp(-i t_i) - 1) / f(lambda(t)), with value 0 at t = 0.

    ``i`` is the tangential axis, 0-based.
    """
    t, ti = _axis_angles(i, t, d)
    origin = np.all(t == 0.0, axis=-1)
    return _quotient(_phase(ti), f_symbol(lambda_symbol(t, d)), origin)


def dirichlet_symbol(i: int, t, d: int):
    """Ratio f(lambda(t)) / (exp(-i t_i) - 1), with value 0 where t_i = 0."""
    t, ti = _axis_angles(i, t, d)
    return _quotient(f_symbol(lambda_symbol(t, d)), _phase(ti), ti == 0.0)


class GridSymbols(NamedTuple):
    """f(lambda(t)) on the stored angle grid t = h k, k in I_L^(d-1), with
    h = pi / L (the grid of ``halfspace.tangential_angles(d, L)`` without
    its component axis), and the 1-D angles h * index_grid(L) of each axis.
    """

    f: np.ndarray
    angles: np.ndarray

    def _on_axis(self, i: int) -> np.ndarray:
        return self.angles.reshape((-1,) + (1,) * (self.f.ndim - 1 - i))

    def dirichlet(self, i: int) -> np.ndarray:
        """``dirichlet_symbol(i, t, d)`` on the grid."""
        t = self._on_axis(i)
        return _quotient(self.f, _phase(t), t == 0.0)

    def neumann(self, i: int) -> np.ndarray:
        """``neumann_symbol(i, t, d)`` on the grid."""
        zeros = [self._on_axis(j) == 0.0 for j in range(self.f.ndim)]
        origin = functools.reduce(np.logical_and, zeros)
        return _quotient(_phase(self._on_axis(i)), self.f, origin)


def grid_symbols(d: int, L: int) -> GridSymbols:
    """Evaluate f(lambda(t)) once on the stored angle grid of half-period L.

    lambda is summed from the 1-D cosines in axis order, which reproduces
    ``lambda_symbol`` bit for bit up to d = 8 (numpy sums 8 or more terms
    pairwise); every quotient symbol of the grid is then one division
    (``GridSymbols.dirichlet`` and ``GridSymbols.neumann``).
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    angles = (math.pi / L) * index_grid(L)
    cos = np.cos(angles)
    total = 0.0
    for i in range(d - 1):
        total = total + cos.reshape((-1,) + (1,) * (d - 2 - i))
    return GridSymbols(f_symbol(d - total), angles)


def scaled_symbol(symbol, h: float, xi):
    """Evaluate a tangential symbol at mesh frequencies: symbol(h * xi).

    ``xi`` must stay inside the fundamental frequency box |xi_i| <= pi / h.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(np.abs(xi) > math.pi / h * (1 + 1e-12)):
        raise ValueError("frequency outside the fundamental box")
    return symbol(h * xi)


def cosine_constant() -> float:
    """The infimum of (1 - cos s) / s^2 over s in [-pi, pi] minus 0.

    Attained at s = +-pi, value 2 / pi^2.
    """
    return 2.0 / math.pi**2
