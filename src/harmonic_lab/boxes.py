"""Harmonic functions on the box {0,...,N}^d, read on its boundary.

Builds the face map K, the batched operators from either kind of boundary
data (values prescribed, or inward normal differences) to the tangential
and normal boundary gradients, and the tangential/normal gradient
comparison: the one definition of the two norms, the full-boundary norm
derived from them and the ratios the sweeps report.  Neumann data is tested
with ``lattice.check_zero_flux``.

Each box problem has one exact solver, the matrix decomposition of Buzbee,
Golub & Nielson, "On direct methods for solving Poisson's equations", SIAM
J. Numer. Anal. 7 (1970), on dense orthonormal matrices with no FFT.  The
interior Dirichlet operator 2d*I - A is a sum of Dirichlet path Laplacians
and is diagonalized by the type-I sine matrix (the odd reflection of the
data about both ends); the interior Neumann operator diag(deg) - A is a
sum of free path Laplacians and is diagonalized by the type-II cosine
matrix, whose zero mode carries the mean-zero gauge.  The right-hand side
lives on the outer layer of the interior and the gradients read the
solution only on the layer next to each face, so the one map either
operator needs is K = P^T L^-1 P from face data to that layer
(``face_map``), with P the injection of the faces into the outer layer and
L the interior operator (inverted on the mean-zero modes for Neumann).  K
is symmetric.  It transforms the face data along the faces and divides by
the eigenvalue sums (``_coefficients``), then contracts along each face's
normal axis (``_layer_values``).  The operators wrap it: a gather of the
boundary data into the face layout, K, then sparse differences and, for
Neumann, the ridge and corner fill.  ``operator_certificate`` measures
both on exact lattice-harmonic functions, and ``cli.run_selftest`` gates
it; the full-field solve is a test reference in ``tests/oracles.py``, and
the reflections and the face-by-face strip split of the paper's proof
chain are test oracles in ``tests/proof_chain.py``.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import lattice

__all__ = [
    "face_map",
    "dirichlet_operator",
    "neumann_operator",
    "operator_certificate",
    "gradient_comparison",
]

logger = logging.getLogger(__name__)

_BLOCK = 1 << 16  # entries per block of eigenvalue sums; coefficients per sweep chunk


def __getattr__(name):
    # the strip solver, once imported here by name, resolved on first access
    # for code that still reads it from here (the benchmark's tracer tests do)
    if name == "dirichlet_strip_solve":
        from .halfspace import dirichlet_strip_solve

        return dirichlet_strip_solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


class _BoxMaps(NamedTuple):
    """Flat indices of one box, shared by both gradient operators.
    Positions count boundary vertices in ``lattice.boundary_vertices``
    order; the face layout orders the face vertices by (axis, side 0 or N,
    remaining coordinates in C order)."""

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


def _coefficients(faces, T, lam):
    """Transform coefficients, shaped (B,) + (n,)*d, of the interior solution
    whose right-hand side is ``faces`` on the outer layer of the interior.

    ``faces`` has shape (B, 2d, n**(d-1)) in the face layout of
    ``_BoxMaps``: the data of face (axis i, side s) enters the interior
    vertices at index 0 (s = 0) or n-1 (s = 1) along axis i.  With T the
    orthonormal transform in which the interior operator has eigenvalue
    sums lam_k = lam[k_0] + ... + lam[k_{d-1}], and F^_{i,s} the
    (d-1)-dimensional transform of the data of face (i, s), the solution
    has the coefficients

        c_k = sum_i (T[k_i, 0] F^_{i,0} + T[k_i, n-1] F^_{i,1})(k without k_i) / lam_k

    Every step is a matrix product or a broadcast over at most n^d entries
    per sample.
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
    return coeffs


def _layer_values(coeffs, T):
    """Values next to each face, in the face layout, of the interior
    solution with the coefficients ``coeffs`` of ``_coefficients``: on the
    layer next to face (j, s) they are the inverse face transform of
    sum_{k_j} T[k_j, 0 or n-1] c_k."""
    B, d, n = len(coeffs), coeffs.ndim - 1, len(T)
    ends = T[:, [0, n - 1]]
    layers = np.empty((B, d, 2, n ** (d - 1)))
    for j in range(d - 1):
        pair = np.matmul(ends.T, coeffs.reshape(B * n**j, n, -1))
        layers.reshape(B, d, 2, n**j, -1)[:, j] = pair.reshape(B, n**j, 2, -1).transpose(0, 2, 1, 3)
    layers[:, d - 1] = np.matmul(coeffs.reshape(B, -1, n), ends).transpose(0, 2, 1)
    return _along_face_axes(layers.reshape(B, 2 * d, -1), T.T, d - 1)


def _batch(x, size, what):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != size:
        raise ValueError(f"expected {size} {what} on the last axis, got shape {x.shape}")
    return x.reshape(-1, size)


def face_map(kind: str, d: int, N: int):
    """Batched face map K of the ``kind`` box problem, "dirichlet" or
    "neumann".

    Returns a function of ``x``, shaped (..., 2d (N-1)^(d-1)): data on the
    face vertices, one sample per leading index, in the face layout, which
    orders them by (axis, side 0 or N, remaining coordinates in C order).
    It returns, in the same layout and shape, the values on the layer next
    to each face of the interior solution whose right-hand side is ``x`` on
    the outer layer of the interior: K = P^T L^-1 P, with P the injection
    of the faces into that layer and L the interior operator 2d*I - A or,
    inverted on the mean-zero modes, diag(deg) - A.  K is symmetric.  It
    is ``_coefficients`` and then ``_layer_values``, O(d n^d) work per
    sample with n = N-1 and no FFT, so a prime n costs no more than its
    neighbours.
    """
    if kind not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown box problem {kind!r}")
    lattice._check_box(d, N)
    T, lam = _path_matrix(kind, N - 1), _path_eigenvalues(kind, N - 1)

    def apply(x):
        lead = np.shape(x)[:-1]
        x = _batch(x, 2 * d * (N - 1) ** (d - 1), "face values")
        coeffs = _coefficients(x.reshape(len(x), 2 * d, -1), T, lam)
        return _layer_values(coeffs, T).reshape(lead + (-1,))

    return apply


def dirichlet_operator(d: int, N: int):
    """Batched map from Dirichlet boundary values to boundary gradients.

    Returns a function of ``f``, shaped (..., M): the values on the M
    vertices of ``lattice.boundary_vertices(d, N)``, in that order, one
    sample per leading index.  It returns ``(tan, nor)``, the gradients of
    each sample's harmonic extension along ``lattice.tangential_edges(d, N)``
    and ``lattice.normal_edges(d, N)``, shaped (..., E_T) and (..., E_N):
    ``tan`` differences the data, and ``nor`` is K applied to the face
    values (``face_map``) minus the face values.
    """
    maps = _box_maps(d, N)
    K = face_map("dirichlet", d, N)
    face_vertices = maps.nor_tail[maps.face_edge]

    def apply(f):
        lead = np.shape(f)[:-1]
        f = _batch(f, len(maps.flat), "boundary values")
        layer = K(f[:, face_vertices])[:, maps.edge_face]
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
    ``lattice.tangential_edges(d, N)`` and ``lattice.normal_edges(d, N)``.
    The layer next to the faces is K applied to -g (``face_map``); the face
    values follow through each inward edge, and the ridge and corner
    values, which no equation constrains, are the neighbour means of
    ``_neumann_boundary``.  A sample with a net flux or a non-finite entry
    raises a ValueError.
    """
    maps = _box_maps(d, N)
    K = face_map("neumann", d, N)

    def apply(g):
        lead = np.shape(g)[:-1]
        g = _batch(g, len(maps.nor_tail), "normal edge values")
        lattice.check_zero_flux(g)
        layer = K(np.negative(g[:, maps.face_edge]))[:, maps.edge_face]
        boundary = _neumann_boundary(layer, g, maps)
        tan = boundary[:, maps.tan_head] - boundary[:, maps.tan_tail]
        nor = layer - boundary[:, maps.nor_tail]
        return tan.reshape(lead + (-1,)), nor.reshape(lead + (-1,))

    return apply


def operator_certificate(kind: str, d: int, N: int) -> float:
    """Largest difference between the ``kind`` operator's gradients of an
    exact lattice-harmonic u and u's own, relative to u's largest gradient,
    over u(x) = cosh(mu (x_a - N/2)) prod_{i != a} cos(theta x_i) for every
    axis a, with theta = pi/N and cosh mu = d - (d-1) cos theta.  The
    Dirichlet operator reads u's boundary values and the Neumann one its
    normal differences.  Neumann ridge and corner values are a convention,
    so there only tangential edges with no endpoint on a ridge count."""
    theta = np.pi / N
    mu = np.arccosh(d - (d - 1) * np.cos(theta))
    tan, nor = lattice.tangential_edges(d, N), lattice.normal_edges(d, N)
    a = np.arange(d)[:, None, None]  # one sample per axis

    def u(x):
        modes = np.where(np.arange(d) == a, np.cosh(mu * (x - N / 2)), np.cos(theta * x))
        return modes.prod(axis=-1)

    want_tan, want_nor = u(tan[:, 1]) - u(tan[:, 0]), u(nor[:, 1]) - u(nor[:, 0])
    if kind == "dirichlet":
        got_tan, got_nor = dirichlet_operator(d, N)(u(lattice.boundary_vertices(d, N)))
        keep = slice(None)
    else:
        got_tan, got_nor = neumann_operator(d, N)(want_nor)
        keep = (((tan == 0) | (tan == N)).sum(axis=-1) == 1).all(axis=1)
    want = np.concatenate([want_tan[:, keep], want_nor], axis=1)
    got = np.concatenate([got_tan[:, keep], got_nor], axis=1)
    return float(np.abs(got - want).max() / np.abs(want).max())


def gradient_comparison(tan: np.ndarray, nor: np.ndarray, p) -> dict:
    """l^p norms of one sample's gradients along the tangential edges
    (``tan``) and the normal edges (``nor``) and over the full boundary
    edge set, plus the two comparison ratios: nor/tan, the one the
    Dirichlet sweep reports, and tan/nor, the Neumann one.

    ``tan`` and ``nor`` are one row of an operator's output or the
    ``lattice.edge_gradients`` of a box function.  The full set, the edges
    with an endpoint on a face, is the tangential edges, the normal edges
    and their reversals, so its norm is the l^p norm of
    (tan_norm, nor_norm, nor_norm).  Ratios with a zero denominator are
    reported as None.
    """
    tan_norm, nor_norm = lattice.lp_norm(tan, p), lattice.lp_norm(nor, p)
    return {
        "tan_norm": tan_norm,
        "nor_norm": nor_norm,
        "full_norm": lattice.lp_norm([tan_norm, nor_norm, nor_norm], p),
        "ratio_nor_tan": nor_norm / tan_norm if tan_norm > 0 else None,
        "ratio_tan_nor": tan_norm / nor_norm if nor_norm > 0 else None,
    }
