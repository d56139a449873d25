"""Harmonic functions on the box {0,...,N}^d, read on its boundary.

Builds the face map K and the one batched operator from either kind of
boundary data (values prescribed, or inward normal differences) to the
tangential and normal boundary gradients, whose l^p norms the sweeps
compare.  Neumann data is tested with ``lattice.check_zero_flux``.

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
normal axis (``_layer_values``).  ``gradient_operator`` wraps it: a
gather of the boundary data into the face layout, K, then sparse
differences and, for Neumann, the ridge and corner fill.
``operator_certificate`` measures it on exact lattice-harmonic functions
of either kind, and ``sweeps.run_selftest`` gates that; the full-field solve
is a test reference in ``tests/oracles.py``, and the reflections and the
face-by-face strip split of the paper's proof chain are test oracles in
``tests/proof_chain.py``.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from . import lattice

__all__ = ["face_map", "gradient_operator", "operator_certificate"]

logger = logging.getLogger(__name__)


def __getattr__(name):
    # the strip solver, once imported here by name, resolved on first access
    # for code that still reads it from here (the benchmark's tracer tests do)
    if name == "dirichlet_strip_solve":
        from .halfspace import dirichlet_strip_solve

        return dirichlet_strip_solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _path_eigenvalues(kind, n):
    """Eigenvalues 2 - 2 cos(theta_k) of the path operator on n vertices:
    Dirichlet ends (modes k = 1..n, theta_k = pi k / (n+1)) or free ends
    (modes k = 0..n-1, theta_k = pi k / n)."""
    if kind == "dirichlet":
        return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


def _path_matrix(kind, n):
    """Orthonormal n x n transform T diagonalizing the path operator, mode k
    in row k: the DST-I sqrt(2/(n+1)) sin(pi (k+1)(j+1) / (n+1)) for
    Dirichlet ends, the DCT-II s_k cos(pi k (2j+1) / 2n) with s_0 = sqrt(1/n)
    and s_k = sqrt(2/n) for free ends.  The integer phase is reduced modulo
    its period and looks up one table of that period.  Read-only, as the
    pooled chunks of a sweep cell share it through one operator."""
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
    """Flat indices of one box, shared by both kinds of gradient operator.
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


def _box_maps(d, N):
    verts = lattice.boundary_vertices(d, N)
    shape = (N + 1,) * d
    flat = np.ravel_multi_index(tuple(verts.T), shape)

    def position(points):
        return np.searchsorted(flat, np.ravel_multi_index(tuple(points.T), shape))

    tan_tail, tan_head = (np.searchsorted(flat, ends)
                          for ends in lattice._edge_flats(d, N, "tangential"))
    nor_tail = np.searchsorted(flat, lattice._edge_flats(d, N, "normal")[0])
    tails = verts[nor_tail]
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

    maps = _BoxMaps(flat, tan_tail, tan_head, nor_tail, edge_face, face_edge, tuple(fill))
    for a in (*maps[:-1], *(a for pair in fill for a in pair)):
        a.flags.writeable = False  # the pooled chunks of a sweep cell share them
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
    # the only zero sum, of the Neumann constant mode, divides by inf: gauged to 0
    sums = sum(np.meshgrid(*[lam] * d, indexing="ij", sparse=True))
    if sums.flat[0] == 0.0:
        sums.flat[0] = np.inf
    coeffs /= sums
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
    if x.ndim != 2 or x.shape[1] != size:
        raise ValueError(f"expected {what} shaped (B, {size}), got shape {x.shape}")
    return x


def face_map(kind: str, d: int, N: int):
    """Batched face map K of the ``kind`` box problem, "dirichlet" or
    "neumann".

    Returns a function of ``x``, shaped (B, 2d (N-1)^(d-1)): data on the
    face vertices, one sample per row, in the face layout, which orders
    them by (axis, side 0 or N, remaining coordinates in C order).  It
    returns, in the same layout and shape, the values on the layer next to
    each face of the interior solution whose right-hand side is ``x`` on
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
    size = 2 * d * (N - 1) ** (d - 1)
    logger.debug("%s face map d=%d N=%d: %d faces, %d face values", kind, d, N, 2 * d, size)

    def apply(x):
        x = _batch(x, size, "face values")
        coeffs = _coefficients(x.reshape(len(x), 2 * d, -1), T, lam)
        return _layer_values(coeffs, T).reshape(len(x), -1)

    return apply


def gradient_operator(kind: str, d: int, N: int):
    """Batched map from the ``kind`` boundary data to boundary gradients.

    Returns a function of the data, shaped (B, M) for "dirichlet": values on
    the M vertices of ``lattice.boundary_vertices(d, N)``, in that order;
    or (B, E_N) for "neumann": normal differences on
    ``lattice.normal_edges(d, N)``, each row summing to zero.  One sample
    per row.  It returns ``(tan, nor)``, the gradients of each sample's
    harmonic extension (mean-zero for Neumann) along
    ``lattice.tangential_edges(d, N)`` and ``lattice.normal_edges(d, N)``,
    shaped (B, E_T) and (B, E_N).  The layer next to the faces is K
    (``face_map``) applied to the face values or to -g.  The Dirichlet
    boundary values are the data; the Neumann face values follow through
    each inward edge, and the ridge and corner values, which no equation
    constrains, are the neighbour means of ``_neumann_boundary``.  A
    Neumann sample with a net flux or a non-finite entry raises a
    ValueError.
    """
    K = face_map(kind, d, N)
    maps = _box_maps(d, N)
    if kind == "dirichlet":
        size, what, faces = len(maps.flat), "boundary values", maps.nor_tail[maps.face_edge]
    else:
        size, what, faces = len(maps.nor_tail), "normal edge values", maps.face_edge

    def apply(x):
        x = _batch(x, size, what)
        if kind == "dirichlet":
            layer = K(x[:, faces])[:, maps.edge_face]
            boundary = x
        else:
            lattice.check_zero_flux(x)
            layer = K(np.negative(x[:, faces]))[:, maps.edge_face]
            boundary = _neumann_boundary(layer, x, maps)
        tan = boundary[:, maps.tan_head] - boundary[:, maps.tan_tail]
        return tan, layer - boundary[:, maps.nor_tail]

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
        data, keep = u(lattice.boundary_vertices(d, N)), slice(None)
    else:
        data, keep = want_nor, (((tan == 0) | (tan == N)).sum(axis=-1) == 1).all(axis=1)
    got_tan, got_nor = gradient_operator(kind, d, N)(data)
    want = np.concatenate([want_tan[:, keep], want_nor], axis=1)
    got = np.concatenate([got_tan[:, keep], got_nor], axis=1)
    return float(np.abs(got - want).max() / np.abs(want).max())

