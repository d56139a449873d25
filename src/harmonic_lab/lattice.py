"""Lattice geometry, edge sets, discrete differential operators, and norms.

Box functions live on the integer box {0,...,N}^d and are stored as dense
arrays of shape (N+1,)*d, indexed directly by coordinates.  A vertex is a
boundary vertex when at least one coordinate equals 0 or N; otherwise it is
interior.  Oriented edges are (tail, head) pairs of vertices at lattice
distance one.

Vertex sets are read-only intp arrays of shape (M, d) and edge sets read-only
intp arrays of shape (E, 2, d), with ``edges[:, 0]`` the tails and
``edges[:, 1]`` the heads, in lexicographic (tail, head) order.  Edge sets
are built by index arithmetic from the tails on the boundary shell, with no
candidate edges for the rest of the box.

Periodic (strip) functions keep the height as the last axis, so ``u[..., y]``
is the layer at height y.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "boundary_vertices",
    "interior_vertices",
    "tangential_edges",
    "normal_edges",
    "full_edge_set",
    "discrete_laplacian",
    "laplacian_interior",
    "edge_gradient",
    "edge_gradients",
    "lp_norm",
    "normalized_lp_norm",
    "layer_mean",
]

#: accepted spellings of the maximum norm
INFINITY = "inf"


def _check_box(d, N):
    if d < 2:
        raise ValueError(f"box dimension must be at least 2, got {d}")
    if N < 2:
        raise ValueError(f"box side length must be at least 2, got {N}")


def _shell(d, N, width):
    # boolean (N+1,)*d mask of the vertices within `width` steps of a face
    axis = np.arange(N + 1)
    near = np.minimum(axis, N - axis) <= width
    mask = np.zeros((N + 1,) * d, dtype=bool)
    for i in range(d):
        mask |= near.reshape((-1,) + (1,) * (d - 1 - i))
    return mask


def _read_only(a):
    a.flags.writeable = False
    return a


# a sweep asks for the same two or three sets of one box in every cell; the
# arrays are read-only, so the cells can share them
@lru_cache(maxsize=4)
def _edges(d, N, kind):
    _check_box(d, N)
    # tails in lexicographic order; for a fixed tail the sorted heads are
    # tail - e_0, ..., tail - e_{d-1}, tail + e_{d-1}, ..., tail + e_0, so the
    # row-major nonzero of the (tail, direction) keep-mask is already sorted
    tails = np.argwhere(_shell(d, N, 1 if kind == "full" else 0))
    eye = np.eye(d, dtype=np.intp)
    heads = tails[:, None, :] + np.concatenate([-eye, eye[::-1]])
    inside = ((heads >= 0) & (heads <= N)).all(axis=2)
    head_on_face = ((heads == 0) | (heads == N)).any(axis=2)
    if kind == "tangential":
        keep = inside & head_on_face
    elif kind == "normal":
        keep = inside & ~head_on_face
    else:  # both endpoints in the box, at least one on a face
        tail_on_face = ((tails == 0) | (tails == N)).any(axis=1)
        keep = inside & (head_on_face | tail_on_face[:, None])
    rows, steps = np.nonzero(keep)
    return _read_only(np.stack([tails[rows], heads[rows, steps]], axis=1))


def boundary_vertices(d: int, N: int) -> np.ndarray:
    """All vertices of {0..N}^d with some coordinate on a face, as a
    read-only (M, d) intp array in lexicographic order."""
    _check_box(d, N)
    return _read_only(np.argwhere(_shell(d, N, 0)))


def interior_vertices(d: int, N: int) -> np.ndarray:
    """All vertices of the open box {1..N-1}^d, as a read-only (M, d) intp
    array in lexicographic order."""
    _check_box(d, N)
    return _read_only(np.argwhere(~_shell(d, N, 0)))


def tangential_edges(d: int, N: int) -> np.ndarray:
    """Oriented edges with both endpoints on the boundary shell.

    Each undirected boundary edge is listed in both orientations (64
    oriented edges for 32 undirected ones at d=2, N=8), while
    ``normal_edges`` lists each edge once.  An l^p norm over this set is
    therefore 2^(1/p) times the norm over the undirected edges.
    """
    return _edges(d, N, "tangential")


def normal_edges(d: int, N: int) -> np.ndarray:
    """Oriented edges from a boundary vertex into the open interior.

    Each edge is listed once, oriented inward from its face vertex, while
    ``tangential_edges`` lists each boundary edge in both orientations.
    """
    return _edges(d, N, "normal")


def full_edge_set(d: int, N: int) -> np.ndarray:
    """Oriented edges whose midpoint lies outside the closed inner box.

    These are the edges with at least one endpoint on the boundary shell:
    the tangential edges, the normal edges, and the reversals of the normal
    edges.
    """
    return _edges(d, N, "full")


def _resolve_periodic(periodic_axes, ndim):
    if periodic_axes is True:
        return tuple(range(ndim))
    if periodic_axes is False or periodic_axes is None:
        return ()
    return tuple(int(a) % ndim for a in periodic_axes)


def discrete_laplacian(u: np.ndarray, x, periodic_axes=()) -> float:
    """Neighbour sum minus 2d times the centre value at vertex ``x``.

    Axes listed in ``periodic_axes`` wrap modulo the array length; on the
    remaining axes every neighbour must exist or a ValueError names the
    missing vertex.
    """
    u = np.asarray(u)
    d = u.ndim
    x = tuple(int(c) for c in x)
    if len(x) != d:
        raise ValueError(f"vertex {x} has wrong dimension for a {d}-d grid")
    periodic = _resolve_periodic(periodic_axes, d)
    total = -2 * d * u[x]
    for i in range(d):
        for s in (-1, 1):
            c = x[i] + s
            if i in periodic:
                c %= u.shape[i]
            elif not 0 <= c < u.shape[i]:
                nbr = x[:i] + (c,) + x[i + 1 :]
                raise ValueError(f"neighbour {nbr} of {x} lies outside the domain")
            total = total + u[x[:i] + (c,) + x[i + 1 :]]
    return total


def laplacian_interior(u: np.ndarray, periodic_axes=()) -> np.ndarray:
    """Vectorized Laplacian at every vertex that is interior on the
    non-periodic axes.

    For a box array of shape (N+1,)*d the result has shape (N-1,)*d; periodic
    axes keep their full extent.
    """
    u = np.asarray(u)
    d = u.ndim
    periodic = _resolve_periodic(periodic_axes, d)
    core = tuple(
        slice(None) if ax in periodic else slice(1, -1) for ax in range(d)
    )
    acc = -2.0 * d * u[core]
    for ax in range(d):
        if ax in periodic:
            acc = acc + np.roll(u, -1, axis=ax)[core]
            acc = acc + np.roll(u, 1, axis=ax)[core]
        else:
            hi = list(core)
            hi[ax] = slice(2, None)
            lo = list(core)
            lo[ax] = slice(0, -2)
            acc = acc + u[tuple(hi)] + u[tuple(lo)]
    return acc


def edge_gradient(u: np.ndarray, e) -> float:
    """Value at the head minus value at the tail of an oriented edge."""
    tail, head = e
    u = np.asarray(u)
    for v in (tail, head):
        if any(not 0 <= c < n for c, n in zip(v, u.shape)):
            raise ValueError(f"edge endpoint {tuple(v)} lies outside the domain")
    return u[tuple(head)] - u[tuple(tail)]


def edge_gradients(u: np.ndarray, edges) -> np.ndarray:
    """Gradients of ``u`` along an (E, 2, d) array of oriented edges, as one
    array; an endpoint outside ``u`` raises a ValueError."""
    u = np.asarray(u)
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 3 or edges.shape[1:] != (2, u.ndim):
        raise ValueError(
            f"expected an (E, 2, {u.ndim}) edge array, got shape {edges.shape}"
        )
    if edges.size and (edges.min() < 0 or (edges.max(axis=(0, 1)) >= u.shape).any()):
        ends = edges.reshape(-1, u.ndim)
        bad = tuple(ends[((ends < 0) | (ends >= u.shape)).any(axis=1)][0].tolist())
        raise ValueError(f"edge endpoint {bad} lies outside the domain")
    return u[tuple(edges[:, 1].T)] - u[tuple(edges[:, 0].T)]


def _is_max_norm(p) -> bool:
    if isinstance(p, str):
        if p == INFINITY:
            return True
        raise ValueError(f"unknown norm exponent {p!r}")
    return math.isinf(p)


def lp_norm(values, p) -> float:
    """Unnormalized l^p norm: (sum |f|^p)^(1/p), plain max for p = "inf"."""
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0.0
    if _is_max_norm(p):
        return float(v.max())
    p = float(p)
    if p < 1:
        raise ValueError(f"norm exponent must be at least 1, got {p}")
    return float((v**p).sum() ** (1.0 / p))


def normalized_lp_norm(values, p, h: float, d: int | None = None) -> float:
    """Mesh-weighted norm (h^d sum |f|^p)^(1/p) for finite p.

    ``d`` defaults to the number of array axes; ``h`` must be pi over a
    positive integer.
    """
    if _is_max_norm(p):
        raise ValueError("normalized norm is defined for finite p only")
    p = float(p)
    if p < 1:
        raise ValueError(f"norm exponent must be at least 1, got {p}")
    L = round(math.pi / h)
    if L < 1 or abs(h * L - math.pi) > 1e-9:
        raise ValueError(f"mesh size {h} is not pi over a positive integer")
    v = np.abs(np.asarray(values, dtype=float))
    if d is None:
        d = v.ndim
    return float((h**d * (v**p).sum()) ** (1.0 / p))


def layer_mean(u: np.ndarray, y: int) -> float:
    """Arithmetic mean over the layer at height ``y`` (last axis)."""
    u = np.asarray(u)
    if not 0 <= y < u.shape[-1]:
        raise ValueError(f"layer {y} out of range 0..{u.shape[-1] - 1}")
    return float(np.mean(u[..., y]))
