"""Independent reference implementations used to pin expected values.

Everything in here is deliberately slow and literal: direct nested sums
for the transform, full dense linear systems without elimination for the
solvers, pure-python loops for the dyadic variation quantities and the box
vertex and edge sets, and a random walk that takes every step.  None of it
shares code with the package under test.
"""

import bisect
import itertools
import math
from fractions import Fraction

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
    for codim in range(2, d + 1):
        for v in box:
            saturated = [ax for ax in range(d) if v[ax] in (0, N)]
            if len(saturated) != codim:
                continue
            total = 0.0
            for ax in saturated:
                step = 1 if v[ax] == 0 else -1
                total += out[v[:ax] + (v[ax] + step,) + v[ax + 1 :]]
            out[v] = total / codim
    return out


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


def as_tuples(a):
    'A vertex array as a list of tuples, an edge array as a list of (tail, head) pairs.'
    rows = np.asarray(a).tolist()
    if np.ndim(a) == 3:
        return [(tuple(t), tuple(h)) for t, h in rows]
    return [tuple(x) for x in rows]


def laplacian_at(u, x):
    'Neighbour sum minus 2d times the center, no periodic wrapping.'
    u = np.asarray(u)
    d = u.ndim
    total = -2.0 * d * u[tuple(x)]
    for ax in range(d):
        for s in (-1, 1):
            w = list(x)
            w[ax] += s
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
