"""Box geometry: the boundary vertices, the edge sets, edge gradients, the
l^p norm, and the zero-flux check of Neumann data.

Box functions live on the integer box {0,...,N}^d and are stored as dense
arrays of shape (N+1,)*d, indexed directly by coordinates.  A vertex is a
boundary vertex when at least one coordinate equals 0 or N; otherwise it is
interior.  Oriented edges are (tail, head) pairs of vertices at lattice
distance one.

The boundary vertex set is a read-only intp array of shape (M, d) and edge
sets are read-only intp arrays of shape (E, 2, d), with ``edges[:, 0]`` the
tails and ``edges[:, 1]`` the heads, in lexicographic (tail, head) order.
Edge sets are built by index arithmetic on C-order flat indices, from the
tails on the boundary shell and one head per tail and direction, with no
candidate edges for the rest of the box; the box operator reads those flat
indices, and the public sets unravel them.  The two sets are the
tangential and the normal edges; every edge with an endpoint on the shell
is a tangential edge, a normal edge or the reversal of one, so norms over
that full set follow from these two.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "boundary_vertices",
    "tangential_edges",
    "normal_edges",
    "edge_gradients",
    "lp_norm",
    "check_zero_flux",
]


def _check_box(d, N):
    if d < 2:
        raise ValueError(f"box dimension must be at least 2, got {d}")
    if N < 2:
        raise ValueError(f"box side length must be at least 2, got {N}")


def _shell(d, N):
    # boolean (N+1,)*d mask of the vertices on a face
    axis = np.arange(N + 1)
    near = (axis == 0) | (axis == N)
    mask = np.zeros((N + 1,) * d, dtype=bool)
    for i in range(d):
        mask |= near.reshape((-1,) + (1,) * (d - 1 - i))
    return mask


def _read_only(a):
    a.flags.writeable = False
    return a


def _edge_flats(d, N, kind):
    """Tails and heads of the ``kind`` edges as two (E,) intp arrays of
    C-order flat indices into the (N+1,)*d box, in lexicographic
    (tail, head) order."""
    _check_box(d, N)
    # tails in lexicographic order; for a fixed tail the sorted heads are
    # tail - e_0, ..., tail - e_{d-1}, tail + e_{d-1}, ..., tail + e_0, so the
    # row-major order of the (tail, direction) keep-mask is already sorted
    tails = np.flatnonzero(_shell(d, N))
    strides = [(N + 1) ** (d - 1 - i) for i in range(d)]
    saturated = np.zeros(len(tails), dtype=np.int8)  # coordinates on a face
    for stride in strides:
        coord = tails // stride % (N + 1)
        saturated += (coord == 0) | (coord == N)
    heads = np.empty((len(tails), 2 * d), dtype=np.intp)
    keep = np.empty(heads.shape, dtype=bool)
    for col in range(2 * d):
        axis, sign = (col, -1) if col < d else (2 * d - 1 - col, 1)
        coord = tails // strides[axis] % (N + 1)
        on_face = (coord == 0) | (coord == N)
        # the head reaches a face of this axis or stays on a face of another
        head_on_face = (coord == (1 if sign < 0 else N - 1)) | (saturated > on_face)
        inside = coord >= 1 if sign < 0 else coord <= N - 1
        keep[:, col] = inside & (head_on_face if kind == "tangential" else ~head_on_face)
        np.add(tails, sign * strides[axis], out=heads[:, col])
    return np.repeat(tails, keep.sum(axis=1)), heads[keep]


def _edges(d, N, kind):
    flats = np.stack(_edge_flats(d, N, kind), axis=1)
    return _read_only(np.stack(np.unravel_index(flats, (N + 1,) * d), axis=-1))


def boundary_vertices(d: int, N: int) -> np.ndarray:
    """All vertices of {0..N}^d with some coordinate on a face, as a
    read-only (M, d) intp array in lexicographic order."""
    _check_box(d, N)
    return _read_only(np.argwhere(_shell(d, N)))


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


# no command calls this; the benchmark's tracer test reads it, so it stays
# until ROADMAP item 6 rewrites that test
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


def lp_norm(values, p) -> float:
    """Unnormalized l^p norm: (sum |f|^p)^(1/p), plain max for p = inf.
    ``p`` is anything ``float`` reads ("inf" included) and at least 1.
    Where sum |f|^p overflows or falls below the normal doubles while
    max |f| is finite and nonzero, the norm is max |f| times the l^p norm
    of f / max |f|, whose sum lies in [1, len(f)]."""
    p = float(p)
    if not p >= 1:
        raise ValueError(f"norm exponent must be at least 1, got {p}")
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0.0
    top = v.max()
    if math.isinf(p):
        return float(top)
    with np.errstate(over="ignore"):
        total = (v**p).sum()
    if not np.finfo(float).tiny <= total < math.inf and 0 < top < math.inf:
        return float(top * ((v / top) ** p).sum() ** (1.0 / p))
    return float(total ** (1.0 / p))


def check_zero_flux(g):
    """Raise a ValueError unless every row of ``g`` (values on the last
    axis) is finite and sums to zero: Neumann data with a net flux has no
    harmonic extension.  The rounding error of a sum of n terms stays below
    n * eps * sum|g|, so only a total above that bound is a flux and not
    rounding, whatever the scale of ``g``.  A NaN or infinite entry fails
    every comparison with that bound, so it is rejected first."""
    g = np.asarray(g)
    if not np.isfinite(g).all():
        raise ValueError("normal data has a non-finite entry (NaN or inf)")
    n = g.shape[-1]
    total = g.sum(axis=-1)
    bad = np.flatnonzero(np.abs(total) > n * np.finfo(float).eps * np.abs(g).sum(axis=-1))
    if bad.size:
        net = total.flat[bad[0]]
        raise ValueError(
            f"normal data sums to {net:.3e} (mean {net / n:.3e}); a nonzero total "
            "flux admits no harmonic extension"
        )
