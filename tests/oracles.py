"""Independent reference implementations used to pin expected values.

Everything in here is deliberately slow and literal: direct nested sums
for the transform, full dense linear systems without elimination for the
solvers, full-field box solves by dense sine and cosine matrices along
every axis, pure-python loops for the dyadic variation quantities and the
box vertex and edge sets, and a random walk that takes every step.  None of it
shares code with the package under test.  The dyadic intervals as real
intervals, the sampled derivative bound on a dyadic rectangle and the
cosine constant 2 / pi^2 are paper quantities that only the tests use.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln


def index_values(L):
    'Frequency value stored at each array position: [0, 1, .., L, -L+1, .., -1].'
    vals = list(range(0, L + 1)) + list(range(-L + 1, 0))
    return np.array(vals)


def dft_forward_direct(v):
    """Literal evaluation of h^d sum_x v(x) exp(+i k.x) over the periodic
    grid x = h*nu, nu and k both running over {-L+1, ..., L} per axis."""
    v = np.asarray(v)
    d = v.ndim
    n = v.shape[0]
    assert all(s == n for s in v.shape)
    L = n // 2
    h = math.pi / L
    vals = index_values(L)
    out = np.zeros(v.shape, dtype=complex)
    for kpos in np.ndindex(v.shape):
        k = [vals[j] for j in kpos]
        acc = 0.0 + 0.0j
        for xpos in np.ndindex(v.shape):
            phase = sum(h * k[i] * vals[xpos[i]] for i in range(d))
            acc += v[xpos] * np.exp(1j * phase)
        out[kpos] = h**d * acc
    return out


def dft_inverse_direct(a):
    'Literal (2 pi)^-d sum_k a(k) exp(-i k.x), the inverse of the pair above.'
    a = np.asarray(a)
    d = a.ndim
    n = a.shape[0]
    L = n // 2
    h = math.pi / L
    vals = index_values(L)
    out = np.zeros(a.shape, dtype=complex)
    for xpos in np.ndindex(a.shape):
        x = [h * vals[j] for j in xpos]
        acc = 0.0 + 0.0j
        for kpos in np.ndindex(a.shape):
            phase = sum(vals[kpos[i]] * x[i] for i in range(d))
            acc += a[kpos] * np.exp(-1j * phase)
        out[xpos] = acc / (2 * math.pi) ** d
    return out


def dst1_matrix(n):
    """Orthonormal DST-I matrix, entry by entry:
    S[k, j] = sqrt(2/(n+1)) sin(pi (j+1)(k+1) / (n+1))."""
    S = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            S[k, j] = math.sqrt(2.0 / (n + 1)) * math.sin(math.pi * (j + 1) * (k + 1) / (n + 1))
    return S


def dct2_matrix(M):
    """Orthonormal DCT-II matrix, entry by entry:
    C[k, j] = s_k cos(pi k (2j+1) / 2M), s_0 = sqrt(1/M), s_k = sqrt(2/M)."""
    C = np.zeros((M, M))
    for k in range(M):
        s = math.sqrt((1.0 if k == 0 else 2.0) / M)
        for j in range(M):
            C[k, j] = s * math.cos(math.pi * k * (2 * j + 1) / (2 * M))
    return C


def along_every_axis(matrix, a):
    'Apply ``matrix`` along every axis of ``a``, one dense product per axis.'
    out = np.asarray(a, dtype=float)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(matrix, out, axes=([1], [axis])), 0, axis)
    return out


def dense_dirichlet_box(f):
    """Solve the box Dirichlet problem as one full linear system.

    Identity rows for boundary vertices, 5/7-point Laplacian rows for
    interior vertices, no elimination.
    """
    f = np.asarray(f, dtype=float)
    d = f.ndim
    N = f.shape[0] - 1
    verts = list(itertools.product(range(N + 1), repeat=d))
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for v in verts:
        i = pos[v]
        if all(0 < c < N for c in v):
            A[i, i] = -2 * d
            for ax in range(d):
                for s in (-1, 1):
                    w = v[:ax] + (v[ax] + s,) + v[ax + 1 :]
                    A[i, pos[w]] += 1.0
        else:
            A[i, i] = 1.0
            b[i] = f[v]
    sol = np.linalg.solve(A, b)
    return sol.reshape(f.shape)


def dense_neumann_box(g, d, N):
    """Solve the box Neumann problem as one full linear system.

    ``g`` holds the inward normal differences in lexicographic (tail, head)
    order.  The interior graph Laplacian is assembled densely, its first
    row is replaced by a pin on the first interior vertex, and the mean is
    removed afterwards.  Faces follow from their inward edge; ridges and
    corners, by increasing codimension, average their inward neighbours.
    """
    g = np.asarray(g, dtype=float)
    box = list(itertools.product(range(N + 1), repeat=d))
    inner = [v for v in box if all(0 < c < N for c in v)]
    pos = {v: i for i, v in enumerate(inner)}
    edges = sorted(
        (w, v)
        for v in inner
        for ax in range(d)
        for s in (-1, 1)
        for w in [v[:ax] + (v[ax] + s,) + v[ax + 1 :]]
        if w not in pos
    )
    assert len(edges) == len(g)
    n = len(inner)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for v in inner:
        i = pos[v]
        for ax in range(d):
            for s in (-1, 1):
                w = v[:ax] + (v[ax] + s,) + v[ax + 1 :]
                if w in pos:
                    A[i, i] += 1.0
                    A[i, pos[w]] -= 1.0
    for (tail, head), value in zip(edges, g):
        b[pos[head]] -= value
    A[0, :] = 0.0
    A[0, 0] = 1.0
    b[0] = 0.0
    sol = np.linalg.solve(A, b)
    sol -= sol.mean()

    out = np.full((N + 1,) * d, np.nan)
    for v, value in zip(inner, sol):
        out[v] = value
    for (tail, head), value in zip(edges, g):
        out[tail] = out[head] - value
    return _fill_ridges(out)


def _fill_ridges(out):
    """Set the ridge and corner vertices of the box array ``out``, whose
    interior and faces are filled: by increasing codimension, each to the
    mean of its inward neighbours along its saturated axes."""
    d, N = out.ndim, out.shape[0] - 1
    ends = (np.arange(N + 1) == 0) | (np.arange(N + 1) == N)
    codims = sum(np.meshgrid(*[ends.astype(int)] * d, indexing="ij", sparse=True))
    for codim in range(2, d + 1):
        for v in map(tuple, np.argwhere(codims == codim).tolist()):
            total = 0.0
            for ax in (ax for ax in range(d) if v[ax] in (0, N)):
                step = 1 if v[ax] == 0 else -1
                total += out[v[:ax] + (v[ax] + step,) + v[ax + 1 :]]
            out[v] = total / codim
    return out


def _path_operator(n, free_ends):
    """Laplacian of the path on n vertices, with Dirichlet ends (degree 2
    everywhere) or free ends (degree = number of path neighbours)."""
    A = np.eye(n, k=1) + np.eye(n, k=-1)
    return np.diag(A.sum(axis=1) if free_ends else np.full(n, 2.0)) - A


def _spectral_interior(rhs, T, P, gauge):
    """Solve (P (+) P (+) ... (+) P) u = rhs on the cube of ``rhs`` by the
    orthonormal T that diagonalizes the path operator P: transform along
    every axis, divide by the eigenvalue sums, transform back.  ``gauge``
    sets the constant mode, the kernel of the free-end operator, to 0."""
    lam = np.diag(T @ P @ T.T)
    sums = functools.reduce(np.add.outer, [lam] * rhs.ndim)
    if gauge:
        sums[(0,) * rhs.ndim] = np.inf
    return along_every_axis(T.T, along_every_axis(T, rhs) / sums)


def dirichlet_extension(f):
    """Harmonic extension of the boundary values of ``f``, a cubic
    (N+1,)*d array: the interior of (2d*I - A) u = b, b the sum of each
    interior vertex's boundary neighbours, solved by ``dst1_matrix`` along
    every axis.  The boundary is copied bit for bit and the interior of
    ``f`` is never read."""
    f = np.asarray(f, dtype=float)
    d, N = f.ndim, f.shape[0] - 1
    if d < 2 or N < 2 or set(f.shape) != {N + 1}:
        raise ValueError(f"expected a cubic array of side at least 3, got shape {f.shape}")
    inner = (slice(1, N),) * d
    boundary = f.copy()
    boundary[inner] = 0.0
    rhs = np.zeros((N - 1,) * d)
    for i in range(d):
        for lo in (0, 2):
            rhs += boundary[inner[:i] + (slice(lo, lo + N - 1),) + inner[i + 1 :]]
    out = f.copy()
    T, P = dst1_matrix(N - 1), _path_operator(N - 1, False)
    out[inner] = _spectral_interior(rhs, T, P, False)
    return out


def normal_edge_arrays(d, N):
    """Tails and heads, (E, d) each, of the normal edges in lexicographic
    (tail, head) order: every face vertex (one coordinate 0 or N, the
    others in 1..N-1) and its inward neighbour."""
    rest = np.array(list(itertools.product(range(1, N), repeat=d - 1)), dtype=int)
    rest = rest.reshape(-1, d - 1)
    tails, heads = [], []
    for i in range(d):
        for side, inward in ((0, 1), (N, N - 1)):
            tails.append(np.insert(rest, i, side, axis=1))
            heads.append(np.insert(rest, i, inward, axis=1))
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    order = np.lexsort(np.concatenate([tails, heads], axis=1).T[::-1])
    return tails[order], heads[order]


def neumann_extension(g, d, N):
    """Mean-zero harmonic function on {0..N}^d whose inward normal
    differences, in the order of ``normal_edge_arrays``, are ``g``: the
    interior of (diag(deg) - A) u = b, -g entered at each edge's head,
    solved by ``dct2_matrix`` along every axis with the constant mode set
    to 0; faces follow from their inward edge and ridges and corners from
    ``_fill_ridges``, as in ``dense_neumann_box``.  Data whose sum exceeds
    the rounding bound len(g) * eps * sum|g| has no solution."""
    g = np.asarray(g, dtype=float)
    tails, heads = normal_edge_arrays(d, N)
    if g.shape != (len(tails),):
        raise ValueError(f"expected {len(tails)} normal edge values, got shape {g.shape}")
    if abs(g.sum()) > len(g) * np.finfo(float).eps * np.abs(g).sum():
        raise ValueError(f"normal data carries a net flux {g.sum():.3e}")
    rhs = np.zeros((N - 1,) * d)
    np.add.at(rhs, tuple((heads - 1).T), -g)
    out = np.full((N + 1,) * d, np.nan)
    T, P = dct2_matrix(N - 1), _path_operator(N - 1, True)
    out[(slice(1, N),) * d] = _spectral_interior(rhs, T, P, True)
    out[tuple(tails.T)] = out[tuple(heads.T)] - g
    return _fill_ridges(out)


def _strip_vertices(lateral_shape, rows):
    return [
        x + (y,)
        for x in itertools.product(*(range(s) for s in lateral_shape))
        for y in rows
    ]


def dense_dirichlet_strip(bottom, top, N):
    """Dense solve of the strip Dirichlet problem, periodic in the lateral
    axes, boundary layers prescribed.  Returns the full strip including
    the boundary layers, lateral axes first, height last."""
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    lat = bottom.shape
    d = len(lat) + 1
    unknowns = _strip_vertices(lat, range(1, N))
    pos = {v: i for i, v in enumerate(unknowns)}
    n = len(unknowns)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for v in unknowns:
        i = pos[v]
        A[i, i] = -2 * d
        for ax in range(d - 1):
            for s in (-1, 1):
                w = list(v)
                w[ax] = (w[ax] + s) % lat[ax]
                A[i, pos[tuple(w)]] += 1.0
        for s in (-1, 1):
            y = v[-1] + s
            if y == 0:
                b[i] -= bottom[v[:-1]]
            elif y == N:
                b[i] -= top[v[:-1]]
            else:
                A[i, pos[v[:-1] + (y,)]] += 1.0
    sol = np.linalg.solve(A, b)
    out = np.zeros(lat + (N + 1,))
    out[..., 0] = bottom
    out[..., N] = top
    for v, value in zip(unknowns, sol):
        out[v] = value
    return out


def dense_neumann_strip(bottom, top, N):
    """Least-squares solve of the strip Neumann problem with the zero-mean
    gauge on layer 0.  Forward difference at the bottom, backward at the
    top, harmonic in between."""
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    lat = bottom.shape
    d = len(lat) + 1
    unknowns = _strip_vertices(lat, range(0, N + 1))
    pos = {v: i for i, v in enumerate(unknowns)}
    n = len(unknowns)
    rows = []
    rhs = []
    for v in _strip_vertices(lat, range(1, N)):
        row = np.zeros(n)
        row[pos[v]] = -2 * d
        for ax in range(d - 1):
            for s in (-1, 1):
                w = list(v)
                w[ax] = (w[ax] + s) % lat[ax]
                row[pos[tuple(w)]] += 1.0
        for s in (-1, 1):
            row[pos[v[:-1] + (v[-1] + s,)]] += 1.0
        rows.append(row)
        rhs.append(0.0)
    for x in itertools.product(*(range(s) for s in lat)):
        row = np.zeros(n)
        row[pos[x + (1,)]] = 1.0
        row[pos[x + (0,)]] = -1.0
        rows.append(row)
        rhs.append(bottom[x])
        row = np.zeros(n)
        row[pos[x + (N,)]] = 1.0
        row[pos[x + (N - 1,)]] = -1.0
        rows.append(row)
        rhs.append(top[x])
    gauge = np.zeros(n)
    for x in itertools.product(*(range(s) for s in lat)):
        gauge[pos[x + (0,)]] = 1.0
    rows.append(gauge)
    rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    out = np.zeros(lat + (N + 1,))
    for v, value in zip(unknowns, sol):
        out[v] = value
    return out


# the dyadic intervals as real intervals, and a sampled estimate of the
# derivative bound that controls the local variation of a smooth symbol
class DyadicInterval(NamedTuple):
    """A one-dimensional dyadic interval with its endpoint conventions."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def contains(self, x) -> bool:
        above = x >= self.lo if self.closed_lo else x > self.lo
        below = x <= self.hi if self.closed_hi else x < self.hi
        return bool(above and below)


def dyadic_interval(level: int) -> DyadicInterval:
    """The interval D(level) of the two-sided dyadic partition of the line."""
    if level == 0:
        return DyadicInterval(-1.0, 1.0, False, False)
    if level >= 1:
        return DyadicInterval(2.0 ** (level - 1), 2.0**level, True, False)
    m = -level
    return DyadicInterval(-(2.0**m), -(2.0 ** (m - 1)), False, True)


def derivative_variation_bound(A, k, L: int, points: int = 64) -> float:
    """Sampled estimate of max over flags of sup |xi^alpha * d^alpha A(xi)|
    on the dyadic rectangle ``k`` clipped to [-L+1, L] per axis.

    ``A`` maps arrays with the frequency components on the last axis to
    values.  Mixed first partials are estimated by central differences with
    step 1e-4 of the axis scale; the result is a diagnostic estimate, not a
    certified bound.
    """
    k = tuple(int(level) for level in k)
    d = len(k)
    axes = []
    steps = []
    for level in k:
        iv = dyadic_interval(level)
        lo, hi = max(iv.lo, -L + 1), min(iv.hi, float(L))
        if lo > hi:
            raise ValueError(f"dyadic rectangle {k} is empty at L={L}")
        scale = max(abs(lo), abs(hi), 1.0)
        step = 1e-4 * scale
        # stay strictly inside the open hull so the difference stencil is safe
        pad = 2 * step
        lo_s, hi_s = lo + pad, hi - pad
        if lo_s > hi_s:
            lo_s = hi_s = 0.5 * (lo + hi)
        axes.append(np.linspace(lo_s, hi_s, points))
        steps.append(step)
    grids = np.meshgrid(*axes, indexing="ij")
    xi = np.stack(grids, axis=-1)

    def stencil(alpha):
        # evaluate A on the 2^|alpha| shifted grids of the central stencil
        active = [ax for ax, flag in enumerate(alpha) if flag]
        vals = 0.0
        for signs in itertools.product((-1, 1), repeat=len(active)):
            shifted = xi.copy()
            coeff = 1.0
            for ax, s in zip(active, signs):
                shifted[..., ax] += s * steps[ax]
                coeff *= s / (2 * steps[ax])
            vals = vals + coeff * np.asarray(A(shifted))
        return vals

    best = 0.0
    for alpha in itertools.product((0, 1), repeat=d):
        deriv = stencil(alpha)
        weight = np.ones(xi.shape[:-1])
        for ax, flag in enumerate(alpha):
            if flag:
                weight = weight * xi[..., ax]
        best = max(best, float(np.abs(weight * deriv).max()))
    return best


def cosine_constant() -> float:
    """The infimum of (1 - cos s) / s^2 over s in [-pi, pi] minus 0.

    Attained at s = +-pi, value 2 / pi^2.
    """
    return 2.0 / math.pi**2


def complex_q_symbol(z):
    """Q(z) = z + sqrt(z+1) sqrt(z-1) in complex arithmetic on the principal
    branch, off (-inf, 1): the continuation of the real symbol off the
    spectral segment, which the resolvent-circle bound reads."""
    z = np.asarray(z, dtype=complex)
    return z + np.sqrt(z + 1) * np.sqrt(z - 1)


def complex_f_symbol(z):
    'f(z) = 1/Q(z) - 1 of ``complex_q_symbol``.'
    return 1.0 / complex_q_symbol(z) - 1.0


def neumann_symbol(i, t, d):
    """The Neumann ratio symbol (exp(-i t_i) - 1) / f(lambda(t)) point by
    point, with value 0 at t = 0: lambda = d - sum_j cos(t_j) and f = 1/Q - 1
    in real arithmetic (lambda >= 1).  ``t`` holds the d-1 tangential angles
    on its last axis (a scalar when d = 2); ``i`` is the tangential axis,
    0-based."""
    t = np.asarray(t, dtype=float).reshape(np.shape(t) or (1,))
    if t.shape[-1] != d - 1 or not 0 <= i < d - 1:
        raise ValueError(f"tangential axis {i} out of range for d={d}, angles {t.shape}")
    lam = d - np.cos(t).sum(axis=-1)
    f = 1.0 / (lam + np.sqrt(lam + 1) * np.sqrt(lam - 1)) - 1.0
    origin = np.all(t == 0.0, axis=-1)
    out = np.where(origin, 0.0, (np.exp(-1j * t[..., i]) - 1.0) / np.where(origin, 1.0, f))
    return complex(out) if out.ndim == 0 else out


# dyadic interval membership without the package's helpers
def interval_contains(level, x):
    if level == 0:
        return -1 < x < 1
    if level >= 1:
        return 2 ** (level - 1) <= x < 2**level
    m = -level
    return -(2**m) < x <= -(2 ** (m - 1))


def level_of(nu):
    'Scan for the unique dyadic level containing the integer nu.'
    for level in range(-60, 61):
        if interval_contains(level, nu):
            return level
    raise AssertionError(f"no dyadic interval contains {nu}")


def rectangle_integers(level, L):
    'Integers of I_L = {-L+1, .., L} lying in D(level), ascending.'
    return [nu for nu in range(-L + 1, L + 1) if interval_contains(level, nu)]


def glue_by_rectangle(family, L):
    """The glued symbol one dyadic rectangle at a time: the block of grid
    positions whose frequencies lie in rectangle k is copied from family[k]."""
    (shape,) = {np.shape(v) for v in family.values()}
    out = np.zeros(shape, dtype=complex)
    levels = [level for level in range(-60, 61) if rectangle_integers(level, L)]
    for k in itertools.product(levels, repeat=len(shape)):
        block = np.ix_(*[np.array(rectangle_integers(level, L)) % (2 * L) for level in k])
        out[block] = np.asarray(family[k])[block]
    return out


def _mixed_diff(a, nu, axes, period):
    if not axes:
        return a[tuple(c % period for c in nu)]
    ax, rest = axes[0], axes[1:]
    up = list(nu)
    up[ax] += 1
    return _mixed_diff(a, tuple(up), rest, period) - _mixed_diff(a, nu, rest, period)


def brute_lvar(a, k, L):
    """Local variation by explicit loops: max over flag vectors of the
    mixed sum/sup of |difference| over the rectangle, where each summed
    axis drops the maximum of its index set."""
    a = np.asarray(a)
    d = a.ndim
    sets_full = [rectangle_integers(level, L) for level in k]
    if any(len(s) == 0 for s in sets_full):
        return 0.0
    best = 0.0
    for alpha in itertools.product((0, 1), repeat=d):
        sets = []
        ok = True
        for ax, flag in enumerate(alpha):
            chosen = sets_full[ax][:-1] if flag else sets_full[ax]
            if not chosen:
                ok = False
                break
            sets.append(chosen)
        if not ok:
            continue
        axes = tuple(ax for ax, flag in enumerate(alpha) if flag)

        def reduce(prefix, depth):
            if depth == d:
                return abs(_mixed_diff(a, prefix, axes, a.shape[0]))
            vals = [reduce(prefix + (nu,), depth + 1) for nu in sets[depth]]
            return sum(vals) if alpha[depth] else max(vals)

        best = max(best, reduce((), 0))
    return best


def brute_total_variation(a, L):
    'Sup over nonempty dyadic rectangles of the full (untruncated) sums.'
    a = np.asarray(a)
    d = a.ndim
    levels = [
        level for level in range(-(L + 2).bit_length(), (L + 1).bit_length() + 1)
        if rectangle_integers(level, L)
    ]
    best = 0.0
    for k in itertools.product(levels, repeat=d):
        sets = [rectangle_integers(level, L) for level in k]
        for alpha in itertools.product((0, 1), repeat=d):
            axes = tuple(ax for ax, flag in enumerate(alpha) if flag)

            def reduce(prefix, depth):
                if depth == d:
                    return abs(_mixed_diff(a, prefix, axes, a.shape[0]))
                vals = [reduce(prefix + (nu,), depth + 1) for nu in sets[depth]]
                return sum(vals) if alpha[depth] else max(vals)

            best = max(best, reduce((), 0))
    return best


def whole_grid_variation_table(a, L):
    """``dyadic.variation_table`` of an array as it was before the library
    read symbols in blocks of rows: the whole symbol reordered at once,
    every flag vector's mixed difference formed on the whole grid and
    reduced over all axes, innermost first.  It returns (levels, local,
    total), the reference that the blocked table equals bit for bit."""
    a = np.asarray(a)
    d = a.ndim
    order = (np.arange(2 * L) + L + 1) % (2 * L)
    for ax in range(d):
        a = np.take(a, order, axis=ax)
    level = np.array([level_of(nu) for nu in range(-L + 1, L + 1)])
    starts = np.flatnonzero(np.diff(level, prepend=level[0] - 1))
    lasts = np.append(starts[1:], 2 * L) - 1
    local = total = np.zeros((len(starts),) * d)
    for alpha in itertools.product((0, 1), repeat=d):
        full = a
        for ax, flag in enumerate(alpha):
            if flag:
                full = np.roll(full, -1, axis=ax) - full
        full = np.abs(full)
        dropped = full.copy()
        for ax, flag in enumerate(alpha):
            if flag:
                dropped[(slice(None),) * ax + (lasts,)] = 0.0
        for ax in reversed(range(d)):
            reduce = np.add.reduceat if alpha[ax] else np.maximum.reduceat
            full = reduce(full, starts, axis=ax)
            dropped = reduce(dropped, starts, axis=ax)
        total = np.maximum(total, full)
        local = np.maximum(local, dropped)
    return tuple(level[starts].tolist()), local, float(total.max())


# tuple enumeration of the box vertex and edge sets, in sorted order


def _on_face(x, N):
    return any(c == 0 or c == N for c in x)


def _in_open_box(x, N):
    return all(0 < c < N for c in x)


def boundary_vertices(d, N):
    return [x for x in itertools.product(range(N + 1), repeat=d) if _on_face(x, N)]


def interior_vertices(d, N):
    return list(itertools.product(range(1, N), repeat=d))


def box_edges(d, N):
    'Every oriented nearest-neighbour edge with both endpoints in the box, sorted.'
    edges = []
    for tail in itertools.product(range(N + 1), repeat=d):
        for i in range(d):
            for s in (-1, 1):
                c = tail[i] + s
                if 0 <= c <= N:
                    edges.append((tail, tail[:i] + (c,) + tail[i + 1 :]))
    edges.sort()
    return edges


def tangential_edges(d, N):
    return [e for e in box_edges(d, N) if _on_face(e[0], N) and _on_face(e[1], N)]


def normal_edges(d, N):
    return [e for e in box_edges(d, N) if _on_face(e[0], N) and _in_open_box(e[1], N)]


def full_edge_set(d, N):
    'Edges whose doubled midpoint leaves the closed box [2, 2N-2]^d.'
    return [
        (tail, head)
        for tail, head in box_edges(d, N)
        if any(t + h < 2 or t + h > 2 * N - 2 for t, h in zip(tail, head))
    ]


def full_box_dirichlet_data(generator, rng, d, N):
    """The sweep's Dirichlet data as a whole (N+1,)*d field, built from full
    coordinate grids: an iid Gaussian draw of the box, one cosine mode
    cos(sum_i h k_i x_i) with h = pi/N and k drawn in [1, N), or the parity
    sign (+1 where the coordinate sum is even)."""
    shape = (N + 1,) * d
    if generator == "iid-gaussian":
        return rng.standard_normal(shape)
    grids = np.meshgrid(*[np.arange(N + 1)] * d, indexing="ij")
    if generator == "single-mode":
        k = rng.integers(1, N, size=d)
        h = math.pi / N
        return np.cos(sum(h * int(k[i]) * grids[i] for i in range(d)))
    return np.where(sum(grids) % 2 == 0, 1.0, -1.0)


def as_tuples(a):
    'A vertex array as a list of tuples, an edge array as a list of (tail, head) pairs.'
    rows = np.asarray(a).tolist()
    if np.ndim(a) == 3:
        return [(tuple(t), tuple(h)) for t, h in rows]
    return [tuple(x) for x in rows]


def laplacian_at(u, x, periodic_axes=()):
    'Neighbour sum minus 2d times the center; the listed axes wrap around.'
    u = np.asarray(u)
    d = u.ndim
    total = -2.0 * d * u[tuple(x)]
    for ax in range(d):
        for s in (-1, 1):
            w = list(x)
            w[ax] += s
            if ax in periodic_axes:
                w[ax] %= u.shape[ax]
            total += u[tuple(w)]
    return total


# reference walker for the half-lattice exit law
STEPWISE_ATTEMPTS = 11


def _stepwise_exit(gen, d, z, cap):
    """Literal steps in growing blocks, tracking only the horizontal offset
    and the current height.  None when the walk reaches the step cap."""
    offset = np.zeros(d - 1, dtype=np.int64)
    height = z
    done = 0
    block = 64
    while done < cap:
        n = int(min(block, cap - done))
        dirs = gen.integers(0, 2 * d, size=n)
        axis = np.asarray(dirs >> 1, dtype=np.intp)
        sign = np.where(dirs & 1, 1, -1)
        heights = height + np.cumsum(np.where(axis == d - 1, sign, 0))
        hits = np.flatnonzero(heights == 0)
        if hits.size:
            stop = int(hits[0])
            axis = axis[: stop + 1]
            sign = sign[: stop + 1]
            for i in range(d - 1):
                offset[i] += sign[axis == i].sum()
            return tuple(int(v) for v in offset)
        for i in range(d - 1):
            offset[i] += sign[axis == i].sum()
        height = int(heights[-1])
        done += n
        block = min(block * 4, 1 << 20)
    return None


def sample_exit(cfg, walk_index=0):
    """Horizontal displacement at first contact with height 0 for one walk
    of the configuration ``cfg`` (fields d, z, seed, max_steps).

    Each (walk_index, attempt) pair reads its own Philox stream; a walk
    reaching the step cap is retried on the next attempt's stream, and
    STEPWISE_ATTEMPTS capped attempts in a row raise.
    """
    for attempt in range(STEPWISE_ATTEMPTS):
        bits = np.random.Philox(key=cfg.seed, counter=[0, walk_index, attempt, 0])
        result = _stepwise_exit(
            np.random.Generator(bits), cfg.d, cfg.z, cfg.max_steps
        )
        if result is not None:
            return result
    raise RuntimeError(
        f"walk {walk_index} reached the step cap in {STEPWISE_ATTEMPTS} "
        f"consecutive attempts (z={cfg.z})"
    )


# first-passage law of the vertical coordinate and the step cap


def vertical_hit_cdf(z, cap):
    """The hitting-time table built whole: P(V = z) = 2^-z and the pmf
    ratio n(n+1) / ((n+z+2)(n-z+2)) in one array, then one cumprod and
    one cumsum over all of it.  The streamed build must match it bit for
    bit."""
    n = np.arange(z, cap - 1, 2, dtype=np.float64)
    cdf = np.empty(n.size + 1)
    cdf[0] = 2.0**-z
    ratio = cdf[1:]
    np.add(n, 1.0, out=ratio)
    ratio *= n
    den = n + (z + 2)
    n -= z - 2
    den *= n
    ratio /= den
    np.cumprod(cdf, out=cdf)
    return np.cumsum(cdf, out=cdf)


def first_passage_cdf(z, cap):
    """P(V <= n) for n = z, z+2, ... <= cap, from the closed form
    P(V = n) = (z/n) C(n, (n+z)/2) 2^-n summed in log-gamma terms."""
    ns = np.arange(z, cap + 1, 2, dtype=np.float64)
    log_pmf = (
        math.log(z)
        - np.log(ns)
        + gammaln(ns + 1.0)
        - gammaln((ns + z) / 2.0 + 1.0)
        - gammaln((ns - z) / 2.0 + 1.0)
        - ns * math.log(2.0)
    )
    return np.cumsum(np.exp(log_pmf))


def first_passage_pmf(z, n):
    """Exact P(V = n) for the 1-d simple walk started at height z."""
    if n < z or (n - z) % 2:
        return Fraction(0)
    return Fraction(z * math.comb(n, (n + z) // 2), n * 2**n)


def first_passage_tail(z, k):
    """Exact P(V > z + 2k) by the reflection principle: the walk from z is
    still above 0 after n = z + 2k steps exactly when a Bin(n, 1/2) count
    lies in [k, k + z - 1]."""
    n = z + 2 * k
    term = math.comb(n, k)
    total = 0
    for x in range(k, k + z):
        total += term
        term = term * (n - x) // (x + 1)
    return Fraction(total, 2**n)


def first_passage_pmfs(z, cap):
    """Exact P(V = n) for n = z, z+2, ... <= cap, from P(V = z) = 2^-z by
    the pmf ratio in rational arithmetic: equal to first_passage_pmf term
    by term, without a large binomial coefficient per term."""
    p = Fraction(1, 2**z)
    for n in range(z, cap + 1, 2):
        yield p
        p *= Fraction(n * (n + 1), (n + z + 2) * (n - z + 2))


def first_passage_cdf_fixed(z, cap, bits=256):
    """floor(2^bits P(V <= n)) for n = z, z+2, ... <= cap, from
    P(V = z) = 2^-z and the pmf ratio in integer arithmetic.  Every floor
    rounds down, so entry k lies below the exact value by fewer than
    (k + 1)^2 2^(z + 1) units of 2^-bits."""
    p = 1 << (bits - z)
    total = p
    scaled = [total]
    for n in range(z, cap - 1, 2):
        p = p * n * (n + 1) // ((n + z + 2) * (n - z + 2))
        total += p
        scaled.append(total)
    return scaled


def invert_first_passage_cdf(z, cap, u, start=0, bits=256):
    """For each u in [0, 1]: the first k >= start with P(V <= z + 2k) >= u,
    or the table length if there is none, and the distance from u to the
    nearest table entry.  The entries come from first_passage_cdf_fixed,
    within (k + 1)^2 2^(z + 1 - bits) of the exact rationals, so for every u
    farther than that from them the counts invert the exact table."""
    scaled = first_passage_cdf_fixed(z, cap, bits)
    one = 1 << bits
    counts = []
    gaps = []
    for x in u:
        level = Fraction(float(x)) * one
        assert level.denominator == 1, "u must lie on the 2^-bits grid"
        at = bisect.bisect_left(scaled, level.numerator)
        counts.append(max(at, start))
        near = [abs(level.numerator - scaled[i]) for i in (at - 1, at)
                if 0 <= i < len(scaled)]
        gaps.append(min(near) / one)
    return np.array(counts), np.array(gaps)


def unresolved_probability(d, z, cap):
    """Exact probability that a walk from height z in Z^d takes more than
    cap steps to reach height 0: one minus the sum over v <= cap of
    P(V = v) P(H <= cap - v), where the horizontal move count H before
    the v-th vertical move is negative binomial with success chance 1/d."""
    p = Fraction(1, d)
    resolved = Fraction(0)
    for v in range(z, cap + 1, 2):
        fits = sum(
            math.comb(v + h - 1, h) * p**v * (1 - p) ** h
            for h in range(cap - v + 1)
        )
        resolved += first_passage_pmf(z, v) * fits
    return 1 - resolved


def replay_unresolved(cfg, n_samples, block):
    """Unresolved mask of walks 0..n_samples-1, replayed walk by walk from
    the block streams the sampler documents: block b reads Philox at
    counter (0, b, 0, 1), draws one uniform per walk for the vertical
    count, then one negative binomial per walk for the horizontal count.
    A walk is unresolved when its vertical count lies beyond the cap or
    its total step count exceeds it."""
    support = list(range(cfg.z, cfg.max_steps + 1, 2))
    pmf = (float(p) for p in first_passage_pmfs(cfg.z, cfg.max_steps))
    cum = list(itertools.accumulate(pmf))
    beyond = cfg.z + 2 * len(support)
    masks = []
    for b in range(-(-n_samples // block)):
        bits = np.random.Philox(key=cfg.seed, counter=[0, b, 0, 1])
        gen = np.random.Generator(bits)
        u = gen.random(block)
        vertical = np.array(
            [next((v for v, c in zip(support, cum) if c >= x), beyond) for x in u]
        )
        horizontal = gen.negative_binomial(vertical, 1.0 / cfg.d)
        masks.append((u > cum[-1]) | (vertical + horizontal > cfg.max_steps))
    return np.concatenate(masks)[:n_samples]
