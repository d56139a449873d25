"""Harmonic extension operators on the box {0,...,N}^d.

Builds the Dirichlet extension (boundary values prescribed), the Neumann
extension (inward normal differences prescribed), the batched operators
from either kind of boundary data to the tangential and normal boundary
gradients, odd and even reflections of face data, the face-by-face
decomposition of a box harmonic function into periodic strip solutions, and
the tangential/normal gradient comparison report those constructions feed.

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

The gradient operators solve the same systems only where the gradients read
the solution: the right-hand side lives on the outer layer of the interior
and the gradients read the layer next to each face, so dense orthonormal
sine and cosine matrices applied along the faces and contracted along the
normal axis replace the transform passes over the whole interior.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import lattice

__all__ = [
    "dirichlet_extension",
    "neumann_extension",
    "dirichlet_operator",
    "neumann_operator",
    "odd_reflect",
    "even_reflect",
    "face_decomposition_dirichlet",
    "gradient_comparison",
]

logger = logging.getLogger(__name__)

_REFLECT_CONSISTENCY_TOL = 1e-8
_BLOCK = 1 << 16  # entries per row-kernel call; bounds every transform temporary


def __getattr__(name):
    # the strip solver, once imported here by name, resolved on first access
    # for code that still reads it from here (the benchmark's tracer tests do)
    if name == "dirichlet_strip_solve":
        from .halfspace import dirichlet_strip_solve

        return dirichlet_strip_solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _divide_by_eigenvalue_sums(coeffs, lam, d):
    """Divide the transform coefficients on the last d axes of ``coeffs``,
    in place, by the eigenvalue sums lam[k_0] + ... + lam[k_{d-1}] of the
    d-fold tensor sum of one path operator.  Leading axes are a batch.  The
    sums are formed a block along the first mode axis at a time, in axis
    order; a zero sum (the Neumann constant mode, the kernel) divides by
    inf, which gauges that mode to zero."""
    n = len(lam)
    modes = coeffs.reshape((-1,) + (n,) * d)
    step = max(1, _BLOCK // n ** (d - 1))
    for i in range(0, n, step):
        axes = [lam[i : i + step]] + [lam] * (d - 1)
        block = sum(np.meshgrid(*axes, indexing="ij", sparse=True))
        block[block == 0.0] = np.inf
        modes[:, i : i + step] /= block


def _transform_solve(rhs, lam, forward, inverse):
    """Interior solution of the d-fold tensor sum of one path operator with
    eigenvalues ``lam``, diagonalized along every axis by the row transform
    ``forward``; ``inverse`` undoes ``forward``.  ``rhs`` is consumed: it
    and one spare array carry every pass, and the solution ends in it."""
    spare = np.empty(rhs.shape)
    coeffs = _along_every_axis(rhs, forward, spare)
    _divide_by_eigenvalue_sums(coeffs, lam, rhs.ndim)
    return _along_every_axis(coeffs, inverse, spare if coeffs is rhs else rhs)


def _path_eigenvalues(kind, n):
    """Eigenvalues 2 - 2 cos(theta_k) of the path operator on n vertices:
    Dirichlet ends (modes k = 1..n, theta_k = pi k / (n+1)) or free ends
    (modes k = 0..n-1, theta_k = pi k / n)."""
    if kind == "dirichlet":
        return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


@lru_cache(maxsize=4)
def _path_matrix(kind, n):
    """Orthonormal n x n transform T diagonalizing the path operator, mode k
    in row k: the DST-I sqrt(2/(n+1)) sin(pi (k+1)(j+1) / (n+1)) for
    Dirichlet ends, the DCT-II s_k cos(pi k (2j+1) / 2n) with s_0 = sqrt(1/n)
    and s_k = sqrt(2/n) for free ends.  The integer phase is reduced modulo
    its period and looks up one table of that period.  Read-only, as callers
    share it."""
    k = np.arange(n)
    if kind == "dirichlet":
        period = 2 * n + 2
        phase = np.outer(k + 1, k + 1) % period
        T = np.sqrt(2.0 / (n + 1)) * np.sin(2.0 * np.pi / period * np.arange(period))[phase]
    else:
        period = 4 * n
        phase = np.outer(k, 2 * k + 1) % period
        T = np.sqrt(2.0 / n) * np.cos(2.0 * np.pi / period * np.arange(period))[phase]
        T[0] = np.sqrt(1.0 / n)
    T.flags.writeable = False
    return T


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
    lam = _path_eigenvalues("dirichlet", N - 1)
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


def _check_flux(g):
    """Raise a ValueError unless every row of the normal data ``g`` (edges
    on the last axis) sums to zero.  The rounding error of a sum of n terms
    stays below n * eps * sum|g|, so only a total above that bound is a flux
    and not rounding."""
    total = g.sum(axis=-1)
    bound = g.shape[-1] * np.finfo(float).eps * np.abs(g).sum(axis=-1)
    bad = np.flatnonzero(np.abs(total) > bound)
    if bad.size:
        raise ValueError(
            f"normal data sums to {float(total.flat[bad[0]]):.3e}; a nonzero "
            "total flux admits no harmonic extension"
        )


class _BoxMaps(NamedTuple):
    """Flat indices of one box, shared by the Neumann extension and both
    gradient operators.  Positions count boundary vertices in
    ``lattice.boundary_vertices`` order; the face layout orders the face
    vertices by (axis, side 0 or N, remaining coordinates in C order)."""

    flat: np.ndarray  # boundary vertex -> flat index into the (N+1)^d array
    tan_tail: np.ndarray  # tangential edge -> position of its tail
    tan_head: np.ndarray  # tangential edge -> position of its head
    nor_tail: np.ndarray  # normal edge -> position of its tail (a face vertex)
    edge_face: np.ndarray  # normal edge -> face layout index of its tail
    face_edge: np.ndarray  # face layout index -> normal edge, the inverse
    fill: tuple  # per codimension 2..d: (targets, sources), see _neumann_boundary


@lru_cache(maxsize=4)
def _box_maps(d, N):
    verts = lattice.boundary_vertices(d, N)
    shape = (N + 1,) * d
    flat = np.ravel_multi_index(tuple(verts.T), shape)

    def position(points):
        return np.searchsorted(flat, np.ravel_multi_index(tuple(points.T), shape))

    tan, nor = lattice.tangential_edges(d, N), lattice.normal_edges(d, N)
    tails = nor[:, 0]
    # a face vertex has exactly one coordinate at 0 or N: its face's axis
    on_face = (tails == 0) | (tails == N)
    axis = on_face.argmax(axis=1)
    side = tails[np.arange(len(tails)), axis] == N
    rest = tails[~on_face].reshape(len(tails), d - 1) - 1
    edge_face = (2 * axis + side) * (N - 1) ** (d - 1) + np.ravel_multi_index(
        tuple(rest.T), (N - 1,) * (d - 1)
    )
    face_edge = np.empty_like(edge_face)
    face_edge[edge_face] = np.arange(len(edge_face))

    # ridge and corner vertices by codimension, each with its inward
    # neighbours along its saturated axes in increasing axis order
    saturated = (verts == 0) | (verts == N)
    codim = saturated.sum(axis=1)
    fill = []
    for c in range(2, d + 1):
        targets = np.flatnonzero(codim == c)
        rows, axes = np.nonzero(saturated[targets])
        inward = verts[targets[rows]]
        step = (np.arange(len(rows)), axes)
        inward[step] = np.clip(inward[step], 1, N - 1)
        fill.append((targets, position(inward).reshape(len(targets), c).T))

    maps = _BoxMaps(
        flat, position(tan[:, 0]), position(tan[:, 1]), position(tails),
        edge_face, face_edge, tuple(fill),
    )
    for a in (*maps[:-1], *(a for pair in fill for a in pair)):
        a.flags.writeable = False  # every caller shares them
    return maps


def _neumann_boundary(layer, g, maps):
    """Boundary values (..., M) of the Neumann solution whose values at the
    heads of the normal edges are ``layer`` (..., E): each face vertex
    through its unique inward edge, then the ridge and corner vertices, which
    carry no constraint, in increasing boundary codimension, each set to the
    mean of its already filled inward neighbours, summed in increasing axis
    order."""
    out = np.empty(layer.shape[:-1] + maps.flat.shape)
    out[..., maps.nor_tail] = layer - g
    for targets, sources in maps.fill:
        acc = out[..., sources[0]]
        for source in sources[1:]:
            acc += out[..., source]
        out[..., targets] = acc / len(sources)
    return out


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
    _check_flux(g)
    lam = _path_eigenvalues("neumann", N - 1)
    rhs = _neumann_rhs(edges, g, d, N)
    interior = _transform_solve(rhs, lam, _dct2_rows, _dct3_rows)
    out = np.empty((N + 1,) * d)
    out[(slice(1, N),) * d] = interior
    maps = _box_maps(d, N)
    out.reshape(-1)[maps.flat] = _neumann_boundary(out[tuple(edges[:, 1].T)], g, maps)
    return out


def _along_face_axes(x, mat, m):
    """Apply ``mat`` (y = mat @ v) along each of the m face axes of ``x``,
    shaped (B, F, n**m): B samples of F faces, each an m-dimensional cube
    in C order.  Each pass transforms the last axis and rotates it to the
    front, so after m passes the axes are back in order.  The samples are
    the stacking axis of the matrix product, so each sample's arithmetic
    does not depend on how many share the batch (a BLAS product over rows
    of several samples at once does)."""
    B, F, n = x.shape[0], x.shape[1], len(mat)
    for _ in range(m):
        y = np.matmul(x.reshape(B, -1, n), mat.T)
        x = y.reshape(B, F, -1, n).transpose(0, 1, 3, 2).reshape(B, F, -1)
    return x


def _layer_values(faces, T, lam):
    """Values next to each face of the interior solution whose right-hand
    side is ``faces`` on the outer layer of the interior.

    ``faces`` has shape (B, 2d, n**(d-1)) in the face layout of
    ``_BoxMaps``: the data of face (axis i, side s) enters the interior
    vertices at index 0 (s = 0) or n-1 (s = 1) along axis i.  With T the
    orthonormal transform in which the interior operator has eigenvalue
    sums lam_k = lam[k_0] + ... + lam[k_{d-1}], and F^_{i,s} the
    (d-1)-dimensional transform of the data of face (i, s), the solution
    has the coefficients

        c_k = sum_i (T[k_i, 0] F^_{i,0} + T[k_i, n-1] F^_{i,1})(k without k_i) / lam_k

    and its values on the layer next to face (j, s) are the inverse face
    transform of sum_{k_j} T[k_j, 0 or n-1] c_k.  Every step is a matrix
    product or a broadcast over at most n^d entries per sample.
    """
    B, F, _ = faces.shape
    d, n = F // 2, len(lam)
    ends = T[:, [0, n - 1]]  # each mode's weight on the first and last layer
    hat = _along_face_axes(faces, T, d - 1)
    coeffs = np.zeros((B,) + (n,) * d)
    for i in range(d):
        along_i = coeffs.reshape(B, n**i, n, -1)
        for s in range(2):
            along_i += ends[:, s, None] * hat[:, 2 * i + s].reshape(B, n**i, 1, -1)
    _divide_by_eigenvalue_sums(coeffs, lam, d)
    layers = np.empty((B, d, 2, n ** (d - 1)))
    for j in range(d - 1):
        pair = np.matmul(ends.T, coeffs.reshape(B * n**j, n, -1))
        layers.reshape(B, d, 2, n**j, -1)[:, j] = pair.reshape(B, n**j, 2, -1).transpose(0, 2, 1, 3)
    layers[:, d - 1] = np.matmul(coeffs.reshape(B, -1, n), ends).transpose(0, 2, 1)
    return _along_face_axes(layers.reshape(B, F, -1), T.T, d - 1)


def _batch(x, size, what):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != size:
        raise ValueError(f"expected {size} {what} on the last axis, got shape {x.shape}")
    return x.reshape(-1, size)


def dirichlet_operator(d: int, N: int):
    """Batched map from Dirichlet boundary values to boundary gradients.

    Returns a function of ``f``, shaped (..., M): the values on the M
    vertices of ``lattice.boundary_vertices(d, N)``, in that order, one
    sample per leading index.  It returns ``(tan, nor)``, the gradients of
    each sample's harmonic extension along ``lattice.tangential_edges(d, N)``
    and ``lattice.normal_edges(d, N)``, shaped (..., E_T) and (..., E_N).
    These are the gradients of ``dirichlet_extension`` without its interior:
    the layer next to each face comes from dense orthonormal sine matrices
    (``_layer_values``), O(d n^d) work per sample with n = N-1 and no FFT.
    """
    maps = _box_maps(d, N)
    T, lam = _path_matrix("dirichlet", N - 1), _path_eigenvalues("dirichlet", N - 1)
    face_vertices = maps.nor_tail[maps.face_edge]

    def apply(f):
        lead = np.shape(f)[:-1]
        f = _batch(f, len(maps.flat), "boundary values")
        faces = f[:, face_vertices].reshape(len(f), 2 * d, -1)
        layer = _layer_values(faces, T, lam).reshape(len(f), -1)[:, maps.edge_face]
        tan = f[:, maps.tan_head] - f[:, maps.tan_tail]
        nor = layer - f[:, maps.nor_tail]
        return tan.reshape(lead + (-1,)), nor.reshape(lead + (-1,))

    return apply


def neumann_operator(d: int, N: int):
    """Batched map from Neumann normal data to boundary gradients.

    Returns a function of ``g``, shaped (..., E_N): normal data on
    ``lattice.normal_edges(d, N)``, each sample summing to zero, one sample
    per leading index.  It returns ``(tan, nor)``, the gradients of each
    sample's mean-zero harmonic extension along
    ``lattice.tangential_edges(d, N)`` and ``lattice.normal_edges(d, N)``,
    with the ridge and corner values of ``neumann_extension``.  The layer
    next to each face comes from dense orthonormal cosine matrices
    (``_layer_values``), O(d n^d) work per sample with n = N-1 and no FFT,
    so prime n costs no more than its neighbours.  A sample with a net flux
    raises a ValueError.
    """
    maps = _box_maps(d, N)
    T, lam = _path_matrix("neumann", N - 1), _path_eigenvalues("neumann", N - 1)

    def apply(g):
        lead = np.shape(g)[:-1]
        g = _batch(g, len(maps.nor_tail), "normal edge values")
        _check_flux(g)
        faces = np.negative(g[:, maps.face_edge]).reshape(len(g), 2 * d, -1)
        layer = _layer_values(faces, T, lam).reshape(len(g), -1)[:, maps.edge_face]
        boundary = _neumann_boundary(layer, g, maps)
        tan = boundary[:, maps.tan_head] - boundary[:, maps.tan_tail]
        nor = layer - boundary[:, maps.nor_tail]
        return tan.reshape(lead + (-1,)), nor.reshape(lead + (-1,))

    return apply


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
    from .halfspace import dirichlet_strip_solve

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
