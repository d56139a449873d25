"""The paper's comparison chain on periodic strips and half-spaces, kept as
test oracles: strips stacked from upward extensions, the Neumann strip
solve, alternating half-space extensions (telescopes), scaled boundary
differences, the Laplacian with periodic axes, odd and even reflections of
face data, and the face-by-face split of a box harmonic function into
periodic strip solutions.

No command runs any of it; the tests check it against the dense solves of
``oracles`` and against the library's strip, layer and box solvers, whose
per-mode factors and mode sum it reuses.
"""

import numpy as np

from harmonic_lab import boxes, lattice
from harmonic_lab.halfspace import _layer_dims, _mode_factors, _mode_sum, dirichlet_strip_solve
from harmonic_lab.spectral import f_symbol, forward_dft, inverse_dft

#: iteration ceiling for the telescope constructions
MAX_TELESCOPE_STEPS = 200

#: aspect ratio window L/N accepted by the telescope constructions
DEFAULT_ASPECT_BOUNDS = (0.25, 4.0)

_REFLECT_CONSISTENCY_TOL = 1e-8


def halfspace_strip(bottom: np.ndarray, N: int) -> np.ndarray:
    """Layers 0..N of the upward harmonic extension, height on the last axis."""
    bottom = np.asarray(bottom)
    d, L = _layer_dims(bottom)
    F = forward_dft(bottom)
    return _mode_sum(F, np.zeros_like(F), _mode_factors(d, L)[1], N, np.isrealobj(bottom))


def neumann_strip_solve(bottom: np.ndarray, top: np.ndarray, N: int) -> np.ndarray:
    """Harmonic strip function with prescribed normal differences.

    ``bottom`` is the forward difference w(., 1) - w(., 0) and ``top`` the
    backward difference w(., N) - w(., N-1).  Each data layer must sum to
    zero; the result is gauged to zero mean on layer 0.  Heights below 2
    leave the per-mode system rank deficient and are rejected.
    """
    bottom = np.asarray(bottom)
    top = np.asarray(top)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top data differ in shape")
    if N < 2:
        raise ValueError(f"strip height must be at least 2, got {N}")
    lattice.check_zero_flux(bottom.ravel(), "bottom layer")
    lattice.check_zero_flux(top.ravel(), "top layer")
    d, L = _layer_dims(bottom)
    q = _mode_factors(d, L)[1]
    gb = forward_dft(bottom)
    gt = forward_dft(top)

    # per-mode 2x2 system for the coefficients of Q^(-y) and Q^(-(N-y))
    qN = q ** (-float(N))
    m11 = 1.0 / q - 1.0
    m12 = qN * (q - 1.0)
    m21 = -qN * (q - 1.0)
    m22 = 1.0 - 1.0 / q
    det = m11 * m22 - m12 * m21
    zero = tuple([0] * (d - 1))
    det[zero] = 1.0  # the mean mode carries no data and stays zero
    A = (gb * m22 - gt * m12) / det
    B = (gt * m11 - gb * m21) / det
    A[zero] = 0.0
    B[zero] = 0.0
    return _mode_sum(A, B, q, N, np.isrealobj(bottom) and np.isrealobj(top))


def _check_aspect(L, N):
    lo, hi = DEFAULT_ASPECT_BOUNDS
    ratio = L / N
    if not lo <= ratio <= hi:
        raise ValueError(
            f"aspect ratio L/N = {ratio:.3g} outside [{lo}, {hi}]; "
            "the telescope construction assumes comparable side lengths"
        )


def _run_telescope(seed, N, tol, solve, defect, down_sign):
    """Alternating-extension loop for one mean-zero seed layer.

    ``solve(seed, N)`` is the upward strip that matches ``seed`` at the
    bottom, and ``defect(strip)`` reads the next seed off its top.  Up steps
    add the strip; down steps add ``down_sign`` times its flip, which
    cancels the pending top defect while leaving a new bottom defect, so
    both orientations read the next seed off the unflipped strip.  Returns
    the accumulated strip and the seed-norm trace.
    """
    norm0 = float(np.linalg.norm(seed.ravel()))
    trace = [norm0]
    w = np.zeros(seed.shape + (N + 1,))
    threshold = tol * norm0
    up = True
    for _ in range(MAX_TELESCOPE_STEPS):
        if trace[-1] <= threshold:
            return w, trace
        if len(trace) >= 4 and trace[-1] >= trace[-2]:
            raise RuntimeError(
                "telescope iteration stopped contracting: seed norms "
                f"{trace[-2]:.6e} -> {trace[-1]:.6e}"
            )
        strip = solve(seed, N)
        w = w + (strip if up else down_sign * strip[..., ::-1])
        seed = defect(strip)
        trace.append(float(np.linalg.norm(seed.ravel())))
        up = not up
    raise RuntimeError(
        f"telescope did not reach tolerance {tol} within "
        f"{MAX_TELESCOPE_STEPS} steps"
    )


def _neumann_up(data, N):
    """Upward solve whose bottom forward difference is ``data`` (mean zero):
    layer 0 has transform F(data) / f(lambda)."""
    d, L = _layer_dims(data)
    lam = _mode_factors(d, L)[0]
    g = forward_dft(data)
    zero = tuple([0] * (d - 1))
    f = f_symbol(lam)
    f[zero] = 1.0
    g = g / f
    g[zero] = 0.0
    bottom = inverse_dft(g)
    if np.isrealobj(data):
        bottom = bottom.real
    return halfspace_strip(bottom, N)


def telescope_dirichlet(bottom: np.ndarray, top: np.ndarray, N: int, tol: float = 1e-10):
    """Strip solution with prescribed boundary layers via alternating
    half-space extensions, for L/N within ``DEFAULT_ASPECT_BOUNDS``.

    The layer means are carried by an affine-in-height profile; each mean
    zero part seeds a telescope whose successive seed norms contract
    geometrically.  Returns the strip and a dict with the two per-step
    seed-norm traces.
    """
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top layers differ in shape")
    if N < 1:
        raise ValueError(f"strip height must be positive, got {N}")
    d, L = _layer_dims(bottom)
    _check_aspect(L, N)

    m0 = float(np.mean(bottom))
    mN = float(np.mean(top))
    ys = np.arange(N + 1, dtype=float)
    affine = m0 * (N - ys) / N + mN * ys / N
    w = np.broadcast_to(affine, bottom.shape + (N + 1,)).copy()

    steps = (N, tol, halfspace_strip, lambda strip: strip[..., N], -1.0)
    w1, trace_bottom = _run_telescope(bottom - m0, *steps)
    w2, trace_top = _run_telescope(top - mN, *steps)
    w += w1 + w2[..., ::-1]
    return w, {"bottom": trace_bottom, "top": trace_top}


def telescope_neumann(bottom: np.ndarray, top: np.ndarray, N: int, tol: float = 1e-10):
    """Strip solution with prescribed normal differences via alternating
    half-space solves, for L/N within ``DEFAULT_ASPECT_BOUNDS``.

    ``bottom`` and ``top`` carry the forward difference at layer 0 and the
    backward difference at layer N.  Their means must agree, so the net
    flux ``bottom`` minus ``top`` sums to zero; the common mean is carried
    by a linear-in-height profile and the mean zero parts seed two
    telescopes.  Gauged to zero mean on layer 0.  Returns the strip and the
    two seed-norm traces.
    """
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    if bottom.shape != top.shape:
        raise ValueError("bottom and top data differ in shape")
    if N < 2:
        raise ValueError(f"strip height must be at least 2, got {N}")
    d, L = _layer_dims(bottom)
    _check_aspect(L, N)

    flux = np.concatenate([bottom.ravel(), -top.ravel()])
    lattice.check_zero_flux(flux, "unequal layer means: bottom minus top")
    mb = float(np.mean(bottom))
    mt = float(np.mean(top))
    ys = np.arange(N + 1, dtype=float)
    w = np.broadcast_to(mb * ys, bottom.shape + (N + 1,)).copy()

    steps = (N, tol, _neumann_up, lambda strip: strip[..., N] - strip[..., N - 1], 1.0)
    w1, trace_bottom = _run_telescope(bottom - mb, *steps)
    w2, trace_top = _run_telescope(-(top - mt), *steps)
    w += w1 + w2[..., ::-1]
    return w, {"bottom": trace_bottom, "top": trace_top}


def tangential_difference(layer: np.ndarray, i: int, h: float) -> np.ndarray:
    """Scaled forward difference (u(x + h e_i) - u(x)) / h along axis ``i``."""
    layer = np.asarray(layer)
    return (np.roll(layer, -1, axis=i) - layer) / h


def normal_difference(lower: np.ndarray, upper: np.ndarray, h: float) -> np.ndarray:
    """Scaled difference (upper - lower) / h between consecutive layers."""
    return (np.asarray(upper) - np.asarray(lower)) / h


def laplacian_interior(u: np.ndarray, periodic_axes: tuple = ()) -> np.ndarray:
    """Vectorized Laplacian at every vertex that is interior on the
    non-periodic axes; strip functions wrap their lateral axes.

    For a box array of shape (N+1,)*d the result has shape (N-1,)*d; periodic
    axes keep their full extent.
    """
    u = np.asarray(u)
    d = u.ndim
    periodic = {a % d for a in periodic_axes}
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


def _scale(data):
    return float(np.abs(data).max(initial=0.0))


def _odd(data, axis, scale):
    """The odd ``_reflect`` of ``data``, once its values at the fixed points
    0 and N are checked to vanish relative to ``scale``."""
    N = data.shape[axis] - 1
    if N < 1:
        raise ValueError("need at least 2 samples along the reflection axis")
    worst = float(np.abs(np.take(data, [0, N], axis=axis)).max())
    if worst > _REFLECT_CONSISTENCY_TOL * scale:
        raise ValueError(
            f"data reaches {worst:.3e} at a fixed point of the odd "
            "reflection; an odd extension forces 0 there"
        )
    return _reflect(data, axis, -1.0)


def odd_reflect(data: np.ndarray, axis: int = 0) -> np.ndarray:
    """Extend face data of length N+1 to a 2N-periodic array odd about 0.

    The fixed points x = 0 and x = N must carry zero values up to rounding
    relative to the largest value of ``data``, otherwise no odd extension
    exists and a ValueError is raised.
    """
    data = np.asarray(data, dtype=float)
    return _odd(data, axis, _scale(data))


def even_reflect(data: np.ndarray, axis: int = 0) -> np.ndarray:
    """Extend face data of length N+1 to a 2(N-1)-periodic array, even
    about the half-integer mirror between 0 and 1.

    Consistency requires data[1] = data[0] and data[N-1] = data[N] (the
    tangential differences across both mirrors vanish) up to rounding
    relative to the largest value of ``data``.
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
    if worst > _REFLECT_CONSISTENCY_TOL * _scale(data):
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
    The remainder can be rounding noise everywhere, so its odd reflections
    and the reconstruction are checked against the scale of ``u``.
    Returns (strips, certificate); the certificate holds the reconstruction
    residual and each strip's gradient norm over the full boundary edge
    set in the l^p norm, from ``boxes.gradient_comparison``.
    """
    u = np.asarray(u, dtype=float)
    d, N = _box_dims(u)
    scale = _scale(u)
    r = u.copy()
    strips = []
    for i in range(d):
        lo, hi = np.take(r, 0, axis=i), np.take(r, N, axis=i)
        for j in range(d):
            if j != i:
                ax = j if j < i else j - 1
                lo, hi = [_odd(x, ax, scale) if j < i else _reflect(x, ax, 1.0) for x in (lo, hi)]
        strip = dirichlet_strip_solve(lo, hi, N)
        window = tuple([slice(0, N + 1)] * (d - 1) + [slice(None)])
        w = np.moveaxis(strip[window], -1, i)
        strips.append(w)
        r -= w

    residual = float(np.abs(r).max())
    if residual > 1e-8 * scale:
        raise RuntimeError(
            f"face decomposition residual {residual:.3e} exceeds tolerance"
        )
    tan, nor = lattice.tangential_edges(d, N), lattice.normal_edges(d, N)
    certificate = {
        "reconstruction_residual": residual,
        "gradient_norms": [
            boxes.gradient_comparison(
                lattice.edge_gradients(w, tan), lattice.edge_gradients(w, nor), p
            )["full_norm"]
            for w in strips
        ],
    }
    return strips, certificate
