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

``grid_symbols`` evaluates f(lambda) on the stored angle grid a block of
axis-0 rows at a time, once per entry, and both quotient symbols of a
block from it by one division each (``GridSymbols``).  The symbol report
never holds a whole (2L)^(d-1) grid: its peak is one block plus per-row
partial reductions, and a grid whose report would pass
``SYMBOL_GRID_BUDGET`` is refused before anything is allocated.
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
    "principal_sqrt",
    "lambda_symbol",
    "q_symbol",
    "f_symbol",
    "neumann_symbol",
    "dirichlet_symbol",
    "GridSymbols",
    "grid_symbols",
]


#: peak bytes the symbol report (``cli.run_symbol_report``) holds per entry
#: of the block of axis-0 rows it reads at a time, besides its per-row
#: partial reductions; 97-116 measured with tracemalloc at d = 2 to 6
SYMBOL_BYTES_PER_ENTRY = 120

#: ``grid_symbols`` refuses a grid whose report would pass this many bytes
SYMBOL_GRID_BUDGET = 2**31


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


def _real_or_complex(z) -> np.ndarray:
    """``z`` as a float64 array, or as a complex128 one when it is complex."""
    arr = np.asarray(z)
    return np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float)


def principal_sqrt(z):
    """Principal branch square root, continuous off (-inf, 0), with 0 at 0.

    Accepts scalars or arrays; inputs on the open negative real axis are
    rejected.  The real part of the result is never negative.  Complex input
    takes numpy's complex square root, which takes the principal branch.
    Real input gives a real float64 result, the real part of the complex
    root bit for bit, so -0.0 gives +0.0.
    """
    arr = _real_or_complex(z)
    if np.any((arr.real < 0) & (arr.imag == 0)):
        raise ValueError("square root is not defined on the negative real axis")
    out = np.sqrt(arr)
    if not np.iscomplexobj(out):
        out += 0.0  # -0.0 + 0.0 is +0.0
    return out.item() if out.ndim == 0 else out


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
    Real z (at least 1) gives a real Q, the real part of the complex
    evaluation bit for bit.
    """
    arr = _real_or_complex(z)
    if np.any((arr.real < 1) & (arr.imag == 0)):
        raise ValueError("propagation factor is not defined on (-inf, 1)")
    return arr + principal_sqrt(arr + 1) * principal_sqrt(arr - 1)


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


def _check_axis(i: int, d: int) -> None:
    if not 0 <= i < d - 1:
        raise ValueError(f"tangential axis {i} out of range for d={d}")


def _axis_angles(i: int, t, d: int):
    t = _as_angles(t, d)
    _check_axis(i, d)
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
    """f(lambda(t)) on axis-0 rows of the stored angle grid t = h k,
    k in I_L^(d-1), with h = pi / L (the grid of
    ``halfspace.tangential_angles(d, L)`` without its component axis), and
    the 1-D angles of each axis: h * index_grid(L) on the rows of axis 0
    that ``f`` holds, and on every other axis all of them.  lambda is at
    least 1 on the grid, so ``f`` is real (float64).
    """

    f: np.ndarray
    angles: tuple

    def _on_axis(self, i: int) -> np.ndarray:
        _check_axis(i, self.f.ndim + 1)
        return self.angles[i].reshape((-1,) + (1,) * (self.f.ndim - 1 - i))

    def dirichlet(self, i) -> np.ndarray:
        """``dirichlet_symbol(i, t, d)`` on the grid.

        ``i`` may also be an integer array of axes on the grid, such as
        ``dyadic.dominant_axes``: each entry then takes the symbol of its
        labelled axis, from that axis's angle at the entry.  This equals
        ``np.choose(i, [dirichlet(j) for j in ...])`` bit for bit without
        building the per-axis symbols.
        """
        for axis in (np.min(i), np.max(i)):
            _check_axis(int(axis), self.f.ndim + 1)
        # each entry picks its axis's phase and zero test from the 1-D axes
        t = [self._on_axis(j) for j in range(self.f.ndim)]
        zero = np.choose(i, [tj == 0.0 for tj in t])
        return _quotient(self.f, np.choose(i, [_phase(tj) for tj in t]), zero)

    def neumann(self, i: int) -> np.ndarray:
        """``neumann_symbol(i, t, d)`` on the grid."""
        zeros = [self._on_axis(j) == 0.0 for j in range(self.f.ndim)]
        origin = functools.reduce(np.logical_and, zeros)
        return _quotient(_phase(self._on_axis(i)), self.f, origin)


def grid_symbols(d: int, L: int):
    """The quotient symbols on the stored angle grid of half-period L, a
    block of axis-0 rows at a time.

    Returns a function of ``rows``, axis-0 storage positions (an integer
    array or a slice, all of them by default), that evaluates f(lambda(t))
    once on those rows and returns it as ``GridSymbols``; every quotient
    symbol is then one division (``GridSymbols.dirichlet`` and
    ``GridSymbols.neumann``).  lambda is summed from the 1-D cosines in axis
    order, which reproduces ``lambda_symbol`` bit for bit up to d = 8 (numpy
    sums 8 or more terms pairwise).  The estimate of the symbol report, one
    block of both symbols plus their partials
    (``dyadic.variation_footprint``), is checked first.
    """
    from . import dyadic

    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    k = index_grid(L)  # rejects L < 1 before the division
    block, partials = dyadic.variation_footprint(d - 1, L, 2)
    estimate = block * SYMBOL_BYTES_PER_ENTRY + partials
    if estimate > SYMBOL_GRID_BUDGET:
        raise ValueError(
            f"symbol grid d={d}, L={L} needs about {estimate >> 20} MiB for the "
            f"symbol report, above the {SYMBOL_GRID_BUDGET >> 20} MiB budget"
        )
    angles = (math.pi / L) * k
    cos = np.cos(angles)

    def evaluate(rows=slice(None)):
        total = 0.0
        for i, c in enumerate([cos[rows]] + [cos] * (d - 2)):
            total = total + c.reshape((-1,) + (1,) * (d - 2 - i))
        return GridSymbols(f_symbol(d - total), (angles[rows],) + (angles,) * (d - 2))

    return evaluate
