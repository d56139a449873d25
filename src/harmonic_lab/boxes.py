"""Harmonic extension operators on the box {0,...,N}^d.

Builds the Dirichlet extension (boundary values prescribed), the Neumann
extension (inward normal differences prescribed), odd and even reflections
of face data, the face-by-face decomposition of a box harmonic function
into periodic strip solutions, and the tangential/normal gradient
comparison report those constructions feed.

Both box solvers are exact fast transforms, with no matrix assembled.  The
interior Dirichlet operator 2d*I - A is a sum of Dirichlet path Laplacians
and is diagonalized by the type-I sine transform (the odd reflection of
``odd_reflect``); the interior Neumann operator diag(deg) - A is a sum of
free path Laplacians and is diagonalized by the type-II cosine transform,
whose zero mode carries the mean-zero gauge.  See Buzbee, Golub & Nielson,
"On direct methods for solving Poisson's equations", SIAM J. Numer. Anal. 7
(1970).  Both transforms are built on ``numpy.fft``: the DST-I from the real
FFT of the odd extension, the DCT-II and its inverse from one real FFT of the
same length after Makhoul's even/odd reordering (Makhoul, "A fast cosine
transform in one and two dimensions", IEEE Trans. ASSP 28 (1980)).
"""

from __future__ import annotations

import logging

import numpy as np

from . import lattice
from .halfspace import dirichlet_strip_solve

__all__ = [
    "dirichlet_extension",
    "neumann_extension",
    "odd_reflect",
    "even_reflect",
    "face_decomposition_dirichlet",
    "gradient_comparison",
]

logger = logging.getLogger(__name__)

_REFLECT_CONSISTENCY_TOL = 1e-8
_BLOCK = 1 << 16  # entries per row-kernel call; bounds every transform temporary


def _box_dims(u: np.ndarray):
    d = u.ndim
    if d < 2:
        raise ValueError(f"box arrays need at least 2 axes, got {d}")
    sizes = set(u.shape)
    if len(sizes) != 1:
        raise ValueError(f"box array shape {u.shape} is not cubic")
    N = u.shape[0] - 1
    if N < 2:
        raise ValueError(f"box side length must be at least 2, got {N}")
    return d, N


def _along_every_axis(a, rows, spare):
    """Apply the row kernel ``rows`` along every axis of the cube ``a``,
    overwriting ``a`` and ``spare``, an array of the same shape.

    Each pass feeds the last axis to the kernel in blocks of about
    ``_BLOCK`` entries and writes the result with that axis rotated to the
    front, so after d passes the axes are back in order.  The passes
    alternate between ``a`` and the spare array, so a transform holds two
    arrays and one block of kernel temporaries.
    """
    n = a.shape[-1]
    step = max(1, _BLOCK // n)
    for _ in range(a.ndim):
        src = a.reshape(-1, n)
        dst = spare.reshape(n, -1).T  # row r of dst is spare[:, r]: the rotated layout
        for i in range(0, len(src), step):
            dst[i : i + step] = rows(src[i : i + step])
        a, spare = spare, a
    return a


def _dst1_rows(x):
    """Orthonormal DST-I of each row of ``x``, its own inverse: minus the
    imaginary part of the real FFT of the odd extension [0, x, 0, -x reversed]
    of length 2(n+1), scaled by 1/sqrt(2(n+1))."""
    n = x.shape[1]
    z = np.zeros((len(x), 2 * n + 2))
    z[:, 1 : n + 1] = x
    np.negative(x[:, ::-1], out=z[:, n + 2 :])
    return np.fft.rfft(z)[:, 1 : n + 1].imag * (-1.0 / np.sqrt(2.0 * (n + 1)))


def _quarter_wave(M):
    """Orthonormal DCT-II twiddle s_k exp(-i pi k / 2M) for k = 0..M//2, with
    s_0 = sqrt(1/M) and s_k = sqrt(2/M) otherwise."""
    k = np.arange(M // 2 + 1)
    t = np.sqrt(2.0 / M) * np.exp(-0.5j * np.pi * k / M)
    t[0] = np.sqrt(1.0 / M)
    return t


def _dct2_rows(x):
    """Orthonormal DCT-II of each row of ``x`` (Makhoul): reorder to the even
    entries followed by the odd ones reversed, take one real FFT Z of length
    M, and read y_k = Re(t_k Z_k) and y_{M-k} = -Im(t_k Z_k)."""
    M = x.shape[1]
    v = np.concatenate([x[:, ::2], x[:, 1::2][:, ::-1]], axis=1)
    z = np.fft.rfft(v) * _quarter_wave(M)
    y = np.empty(x.shape)
    y[:, : M // 2 + 1] = z.real
    np.negative(z.imag[:, (M + 1) // 2 - 1 : 0 : -1], out=y[:, M // 2 + 1 :])
    return y


def _dct3_rows(y):
    """Orthonormal DCT-III of each row of ``y``, the inverse of
    ``_dct2_rows``: rebuild Z_k = (y_k - i y_{M-k}) / t_k for k = 0..M//2,
    invert the real FFT, and undo the even/odd reordering."""
    M = y.shape[1]
    h = M // 2 + 1
    z = np.empty((len(y), h), dtype=complex)
    z.real = y[:, :h]
    z.imag[:, 0] = 0.0
    np.negative(y[:, M - 1 : M - h : -1], out=z.imag[:, 1:])
    v = np.fft.irfft(z / _quarter_wave(M), n=M)
    half = (M + 1) // 2
    x = np.empty(y.shape)
    x[:, ::2] = v[:, :half]
    x[:, 1::2] = v[:, half:][:, ::-1]
    return x


def _transform_solve(rhs, lam, forward, inverse):
    """Interior solution of the d-fold tensor sum of one path operator with
    eigenvalues ``lam``, diagonalized along every axis by the row transform
    ``forward``; ``inverse`` undoes ``forward``.  ``rhs`` is consumed: it
    and one spare array carry every pass, and the solution ends in it.  The
    eigenvalue sums are formed a block along axis 0 at a time, in axis
    order; a zero sum (the Neumann constant mode, the kernel) divides by
    inf, which gauges that mode to zero."""
    spare = np.empty(rhs.shape)
    coeffs = _along_every_axis(rhs, forward, spare)
    d, n = rhs.ndim, len(lam)
    step = max(1, _BLOCK // n ** (d - 1))
    for i in range(0, n, step):
        axes = [lam[i : i + step]] + [lam] * (d - 1)
        block = sum(np.meshgrid(*axes, indexing="ij", sparse=True))
        block[block == 0.0] = np.inf
        coeffs[i : i + step] /= block
    return _along_every_axis(coeffs, inverse, spare if coeffs is rhs else rhs)


def _dirichlet_boundary_rhs(f, d, N):
    rhs = np.zeros((N - 1,) * d)
    for i in range(d):
        # axis i in front: its two faces, the other axes on the interior
        src = np.moveaxis(f, i, 0)[(slice(None),) + (slice(1, N),) * (d - 1)]
        dst = np.moveaxis(rhs, i, 0)
        dst[0] += src[0]
        dst[-1] += src[N]
    return rhs


def dirichlet_extension(f: np.ndarray) -> np.ndarray:
    """Solve the interior Laplace equation with boundary values from ``f``.

    ``f`` is a full (N+1,)^d array; only its boundary entries are read and
    they are copied into the result bit for bit.  After boundary
    elimination the interior system (2d*I - A) u = rhs on (N-1)^d vertices
    is solved by an orthonormal type-I sine transform along every axis,
    whose modes k in {1..N-1}^d have eigenvalues
    sum_i (2 - 2 cos(pi k_i / N)).  Each axis transform is minus the
    imaginary part of one real FFT of the odd extension of length 2N; the
    DST-I is its own inverse.  The solution is unique, so no gauge is needed.
    """
    f = np.asarray(f, dtype=float)
    d, N = _box_dims(f)
    k = np.arange(1, N)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / N)
    rhs = _dirichlet_boundary_rhs(f, d, N)
    interior = _transform_solve(rhs, lam, _dst1_rows, _dst1_rows)
    out = f.copy()
    out[(slice(1, N),) * d] = interior
    return out


def _neumann_rhs(edges, g, d, N):
    """Interior right-hand side -sum of g over the normal edges entering each
    interior vertex, as one bincount over flat head indices.  It is taken
    from 0.0 rather than negated, so vertices without a head hold +0.0."""
    shape = (N - 1,) * d
    flat = np.ravel_multi_index(tuple((edges[:, 1] - 1).T), shape)
    return 0.0 - np.bincount(flat, weights=g, minlength=(N - 1) ** d).reshape(shape)


def neumann_extension(g: np.ndarray, d: int, N: int) -> np.ndarray:
    """Harmonic function whose inward normal differences match ``g``.

    ``g[j]`` belongs to the edge ``lattice.normal_edges(d, N)[j]``, and the
    values must sum to zero (no solution exists otherwise).  The
    interior system is the grid-graph Laplacian diag(deg) - A on (N-1)^d
    vertices, solved by an orthonormal type-II cosine transform along every
    axis, whose modes k in {0..N-2}^d have eigenvalues
    sum_i (2 - 2 cos(pi k_i / (N-1))).  Each axis transform and its inverse,
    the type-III transform, is one real FFT of length N-1 after Makhoul's
    even/odd reordering, with a quarter-wave twiddle.
    The constant mode k = 0 is the kernel; setting it to zero is the gauge,
    so the interior has mean zero.  Face vertices are filled through their
    unique inward edge; ridge and corner vertices carry no constraint and
    are set, in increasing boundary codimension, to the mean of their
    already filled neighbours.
    """
    edges = lattice.normal_edges(d, N)
    g = np.asarray(g, dtype=float)
    if g.shape != (len(edges),):
        raise ValueError(
            f"expected {len(edges)} normal edge values for d={d}, N={N}, "
            f"got shape {g.shape}"
        )
    # the rounding error of a sum of n terms stays below n * eps * sum|g|,
    # so only a total above that bound is a flux and not rounding
    total = float(g.sum())
    if abs(total) > len(g) * np.finfo(float).eps * float(np.abs(g).sum()):
        raise ValueError(
            f"normal data sums to {total:.3e}; a nonzero total flux admits "
            "no harmonic extension"
        )

    k = np.arange(N - 1)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / (N - 1))
    rhs = _neumann_rhs(edges, g, d, N)
    interior = _transform_solve(rhs, lam, _dct2_rows, _dct3_rows)
    out = np.full((N + 1,) * d, np.nan)
    out[(slice(1, N),) * d] = interior
    out[tuple(edges[:, 0].T)] = out[tuple(edges[:, 1].T)] - g

    # ridge and corner fill by increasing codimension over the boundary
    # vertices: the saturated coordinates step inward, summed in increasing
    # axis order
    verts = lattice.boundary_vertices(d, N)
    saturated = (verts == 0) | (verts == N)
    codim = saturated.sum(axis=1)
    for c in range(2, d + 1):
        ridge, sat = verts[codim == c], saturated[codim == c]
        acc = np.zeros(len(ridge))
        for i in range(d):
            step = ridge.copy()
            step[:, i] = np.clip(ridge[:, i], 1, N - 1)
            acc += np.where(sat[:, i], out[tuple(step.T)], 0.0)
        out[tuple(ridge.T)] = acc / c
    return out


def _reflect_scale(data):
    return max(1.0, float(np.abs(data).max(initial=0.0)))


def odd_reflect(data: np.ndarray, axis: int = 0) -> np.ndarray:
    """Extend face data of length N+1 to a 2N-periodic array odd about 0.

    The fixed points x = 0 and x = N must carry (numerically) zero values,
    otherwise no odd extension exists and a ValueError is raised.
    """
    data = np.asarray(data, dtype=float)
    N = data.shape[axis] - 1
    if N < 1:
        raise ValueError("need at least 2 samples along the reflection axis")
    ends = np.take(data, [0, N], axis=axis)
    worst = float(np.abs(ends).max())
    if worst > _REFLECT_CONSISTENCY_TOL * _reflect_scale(data):
        raise ValueError(
            f"data reaches {worst:.3e} at a fixed point of the odd "
            "reflection; an odd extension forces 0 there"
        )
    return _reflect(data, axis, -1.0)


def even_reflect(data: np.ndarray, axis: int = 0) -> np.ndarray:
    """Extend face data of length N+1 to a 2(N-1)-periodic array, even
    about the half-integer mirror between 0 and 1.

    Consistency requires data[1] = data[0] and data[N-1] = data[N] (the
    tangential differences across both mirrors vanish).
    """
    data = np.asarray(data, dtype=float)
    N = data.shape[axis] - 1
    if N < 2:
        raise ValueError("need at least 3 samples along the reflection axis")
    first = np.take(data, [0, 1], axis=axis)
    last = np.take(data, [N - 1, N], axis=axis)
    worst = max(
        float(np.abs(np.diff(first, axis=axis)).max()),
        float(np.abs(np.diff(last, axis=axis)).max()),
    )
    if worst > _REFLECT_CONSISTENCY_TOL * _reflect_scale(data):
        raise ValueError(
            f"tangential difference {worst:.3e} across an even mirror; "
            "an even extension needs equal values there"
        )
    keep = [slice(None)] * data.ndim
    keep[axis] = slice(0, min(N + 1, 2 * N - 2))
    tail = [slice(None)] * data.ndim
    tail[axis] = slice(N - 2, 1, -1)
    return np.concatenate([data[tuple(keep)], data[tuple(tail)]], axis=axis)


def _reflect(data, axis, sign):
    """2N-periodic extension of face data of length N+1 about the integer
    mirrors 0 and N, odd for ``sign`` -1 and even for +1.  The even
    extension needs no consistency constraint; the odd one needs zeros at
    the mirrors, which ``odd_reflect`` checks."""
    data = np.asarray(data, dtype=float)
    mirrored = np.take(data, np.arange(data.shape[axis] - 2, 0, -1), axis=axis)
    return np.concatenate([data, sign * mirrored], axis=axis)


def face_decomposition_dirichlet(u: np.ndarray, p):
    """Split a box harmonic function into d periodic strip solutions.

    Strip i reproduces the current remainder's faces x_i in {0, N}; axes
    already handled are extended oddly (so the strip vanishes where earlier
    strips matched the data), later axes evenly about the integer mirrors.
    Returns (strips, certificate); the certificate holds the reconstruction
    residual and each strip's gradient norm over the full boundary edge
    set in the l^p norm.
    """
    u = np.asarray(u, dtype=float)
    d, N = _box_dims(u)
    r = u.copy()
    strips = []
    for i in range(d):
        lo = np.take(r, 0, axis=i)
        hi = np.take(r, N, axis=i)
        for j in range(d):
            if j == i:
                continue
            ax = j if j < i else j - 1
            if j < i:
                lo = odd_reflect(lo, axis=ax)
                hi = odd_reflect(hi, axis=ax)
            else:
                lo = _reflect(lo, ax, 1.0)
                hi = _reflect(hi, ax, 1.0)
        strip = dirichlet_strip_solve(lo, hi, N)
        window = tuple([slice(0, N + 1)] * (d - 1) + [slice(None)])
        w = np.moveaxis(strip[window], -1, i)
        strips.append(w)
        r -= w

    residual = float(np.abs(r).max())
    scale = max(1.0, float(np.abs(u).max()))
    if residual > 1e-8 * scale:
        raise RuntimeError(
            f"face decomposition residual {residual:.3e} exceeds tolerance"
        )
    edges = lattice.full_edge_set(d, N)
    certificate = {
        "reconstruction_residual": residual,
        "gradient_norms": [
            lattice.lp_norm(lattice.edge_gradients(w, edges), p) for w in strips
        ],
    }
    return strips, certificate


def gradient_comparison(u: np.ndarray, p) -> dict:
    """Gradient norms of ``u`` over the tangential, normal, and full
    boundary edge sets, plus the two comparison ratios.

    Ratios with a zero denominator are reported as None.
    """
    u = np.asarray(u, dtype=float)
    d, N = _box_dims(u)
    tan = lattice.lp_norm(lattice.edge_gradients(u, lattice.tangential_edges(d, N)), p)
    nor = lattice.lp_norm(lattice.edge_gradients(u, lattice.normal_edges(d, N)), p)
    full = lattice.lp_norm(lattice.edge_gradients(u, lattice.full_edge_set(d, N)), p)
    return {
        "tan_norm": tan,
        "nor_norm": nor,
        "full_norm": full,
        "ratio_nor_tan": nor / tan if tan > 0 else None,
        "ratio_tan_nor": tan / nor if nor > 0 else None,
    }
