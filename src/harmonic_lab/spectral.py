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

Every grid here has real lambda >= 1, so Q and f are real: ``q_symbol``
takes real z >= 1 only.  ``grid_symbols`` returns the one row function
the symbol report reads: on a block of axis-0 rows of the stored angle
grid it evaluates f(lambda) once per entry and both symbols of the report
from it, by one division each; ``run_symbol_report`` reads it.  The
report never holds a whole (2L)^(d-1) grid: its peak is one block plus
per-row partial reductions, and a grid whose report would pass the
package's ``MEMORY_BUDGET`` is refused before anything is allocated.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import refuse_over_budget, refuse_repeats

__all__ = [
    "index_grid",
    "forward_dft",
    "inverse_dft",
    "lambda_symbol",
    "q_symbol",
    "f_symbol",
    "dirichlet_symbol",
    "grid_symbols",
    "run_symbol_report",
]


#: peak bytes the symbol report (``grid_symbols`` read by
#: ``dyadic.variation_table``) holds per entry of the block of axis-0 rows
#: it reads at a time, besides its per-row partial reductions; 97-116
#: measured with tracemalloc at d = 2 to 6
SYMBOL_BYTES_PER_ENTRY = 120


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
    """Layer propagation factor z + sqrt(z+1) sqrt(z-1) of real z >= 1, as
    float64.  The reciprocal root of the same quadratic is 1/Q, and
    Q + 1/Q = 2z.  Complex input raises a TypeError."""
    if np.iscomplexobj(z):
        raise TypeError(f"propagation factor takes real z only, got {np.asarray(z).dtype}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 1):
        raise ValueError("propagation factor is not defined on (-inf, 1)")
    return z + np.sqrt(z + 1) * np.sqrt(z - 1)


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


def dirichlet_symbol(i: int, t, d: int):
    """Ratio f(lambda(t)) / (exp(-i t_i) - 1), with value 0 where t_i = 0."""
    t, ti = _axis_angles(i, t, d)
    return _quotient(f_symbol(lambda_symbol(t, d)), _phase(ti), ti == 0.0)


def grid_symbols(d: int, L: int):
    """The two symbols of the symbol report on the stored angle grid
    t = h k, k in I_L^(d-1), with h = pi / L (the grid of
    ``halfspace.tangential_angles(d, L)`` without its component axis), a
    block of axis-0 rows at a time.

    Returns a function of ``rows``, an integer array of axis-0 storage
    positions, for ``dyadic.variation_table``.  It evaluates f(lambda(t))
    once per entry of those rows and returns, stacked on a last axis, the
    Neumann symbol (exp(-i t_0) - 1) / f of axis 0, with value 0 at t = 0,
    and the Dirichlet symbol glued by ``dyadic.dominant_axes``: each entry
    takes ``dirichlet_symbol(i, t, d)`` of its labelled axis i.  Each is
    one division.  lambda is summed from the 1-D cosines in axis order,
    which reproduces ``lambda_symbol`` bit for bit up to d = 8 (numpy sums 8
    or more terms pairwise); lambda is at least 1, so f is real.  The
    estimate of the report, one block of both symbols plus their partials
    (``dyadic.variation_footprint``), is checked first.
    """
    from . import dyadic

    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    k = index_grid(L)  # rejects L < 1 before the division
    block, partials = dyadic.variation_footprint(d - 1, L, 2)
    refuse_over_budget(f"symbol grid d={d}, L={L}", block * SYMBOL_BYTES_PER_ENTRY + partials)
    angles = (math.pi / L) * k
    cos = np.cos(angles)

    def symbols(rows):
        def on_axis(values, i):
            # axis i's 1-D values, on the given rows of axis 0
            return (values[rows] if i == 0 else values).reshape((-1,) + (1,) * (d - 2 - i))

        total = 0.0
        for i in range(d - 1):
            total = total + on_axis(cos, i)
        f = f_symbol(d - total)
        t = [on_axis(angles, i) for i in range(d - 1)]
        zero = [ti == 0.0 for ti in t]
        labels = dyadic.dominant_axes(d - 1, L, rows)
        neumann = _quotient(_phase(t[0]), f, functools.reduce(np.logical_and, zero))
        glued = _quotient(f, np.choose(labels, [_phase(ti) for ti in t]), np.choose(labels, zero))
        return np.stack([neumann, glued], axis=-1)

    return symbols


def run_symbol_report(d, l_list):
    """The symbol report: variation metrics of both ``grid_symbols`` per
    half-period in ``l_list`` and the spread of the Neumann maximum."""
    refuse_repeats("l_list", l_list)
    from . import dyadic

    naxes = d - 1
    blocks = []
    for L in map(int, l_list):
        # grid_symbols refuses an over-budget grid before anything is built
        table = dyadic.variation_table(grid_symbols(d, L), L, naxes)
        block = {"L": L}
        for j, name in enumerate(("neumann_axis0", "dirichlet_glued")):
            max_lvar, total = float(table.local[..., j].max()), float(table.total[j])
            block[name] = {
                "max_lvar": max_lvar,
                "total_var": total,
                "bound_factor": 4**naxes,
                "bound_ok": bool(total <= 4**naxes * max_lvar + 1e-12),
            }
        blocks.append(block)
    tracked = [block["neumann_axis0"]["max_lvar"] for block in blocks]
    spread = max(tracked) / min(tracked) if min(tracked) > 0 else None
    stability = {"max_lvar_spread": spread, "ok": spread is not None and spread <= 2.0}
    return {"command": "symbol-report", "d": int(d), "blocks": blocks, "stability": stability}
