"""Output checks for the benchmark workloads.

Every check holds for any seed and returns a list of failure messages, empty
when the output is correct.  None of them imports ``harmonic_lab``: the
sweep check recomputes the smallest boxes with a dense solve written here,
and the report checks compare against ``reference.json``, which holds the
deterministic values harmonic-lab 0.1.0 printed for the kernel-mc and
symbol-d3 workloads.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

#: CSV columns the sweep commands pin (tests/test_cli.py checks the same)
SWEEP_COLUMNS = ["d", "N", "p", "sample", "seed", "tan_norm", "nor_norm", "ratio", "runtime_ms"]

#: relative agreement required between the sweep rows and the dense recompute
DENSE_RTOL = 1e-9

#: relative agreement required for values a deterministic code path computes
REFERENCE_RTOL = 1e-9

#: in-window mass plus accounted out-of-window mass must be 1 within this
MASS_ATOL = 1e-12

#: the walk sampler resamples walks longer than this many steps
STEP_CAP = 10_000_000

#: failure probability, per z, of the statistical TV bound
TV_FAILURE_PROB = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _close(a, b, rtol):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sweeps: a dense oracle for the smallest boxes
# ---------------------------------------------------------------------------


def _box_edges(d, N):
    """Every oriented nearest-neighbour edge of {0..N}^d as (tails, heads)
    integer arrays, sorted lexicographically by (tail, head)."""
    grid = np.indices((N + 1,) * d).reshape(d, -1).T
    tails, heads = [], []
    for axis in range(d):
        for step in (-1, 1):
            head = grid.copy()
            head[:, axis] += step
            ok = (head[:, axis] >= 0) & (head[:, axis] <= N)
            tails.append(grid[ok])
            heads.append(head[ok])
    tails = np.concatenate(tails)
    heads = np.concatenate(heads)
    order = np.lexsort(np.concatenate([tails, heads], axis=1).T[::-1])
    return tails[order], heads[order]


def _on_boundary(v, N):
    return ((v == 0) | (v == N)).any(axis=1)


def _interior_index(v, N):
    """Flat C-order index of interior vertices in the (N-1)^d interior."""
    return np.ravel_multi_index(tuple((v - 1).T), (N - 1,) * v.shape[1])


def _norms(u, tails, heads, p):
    grads = u[tuple(heads.T)] - u[tuple(tails.T)]
    return float((np.abs(grads) ** p).sum() ** (1.0 / p))


def _edge_classes(d, N):
    tails, heads = _box_edges(d, N)
    bt, bh = _on_boundary(tails, N), _on_boundary(heads, N)
    return (tails[bt & bh], heads[bt & bh]), (tails[bt & ~bh], heads[bt & ~bh])


def _interior_system(d, N):
    """Interior graph Laplacian deg - A on the (N-1)^d interior, dense."""
    tails, heads = _box_edges(d, N)
    inner = ~_on_boundary(tails, N) & ~_on_boundary(heads, N)
    n = (N - 1) ** d
    M = np.zeros((n, n))
    np.add.at(M, (_interior_index(heads[inner], N), _interior_index(tails[inner], N)), -1.0)
    M[np.diag_indices(n)] = -M.sum(axis=1)
    return M


def dense_dirichlet(f):
    """Harmonic extension of the boundary values of ``f`` by dense LU."""
    d, N = f.ndim, f.shape[0] - 1
    _, (nt, nh) = _edge_classes(d, N)
    n = (N - 1) ** d
    # 2d*I - A: the interior Laplacian plus one per boundary neighbour
    M = _interior_system(d, N)
    rhs = np.zeros(n)
    idx = _interior_index(nh, N)
    np.add.at(M, (idx, idx), 1.0)
    np.add.at(rhs, idx, f[tuple(nt.T)])
    u = f.copy()
    u[(slice(1, N),) * d] = np.linalg.solve(M, rhs).reshape((N - 1,) * d)
    return u


def dense_neumann(g, d, N):
    """Mean-zero harmonic function on the interior whose inward normal
    differences are ``g`` (one value per normal edge, lexicographic order);
    face vertices follow from their inward edge, ridges and corners take the
    mean of their inward neighbours in increasing codimension."""
    _, (nt, nh) = _edge_classes(d, N)
    n = (N - 1) ** d
    rhs = np.zeros(n)
    np.subtract.at(rhs, _interior_index(nh, N), g)
    # adding the all-ones matrix fixes the constant mode to mean zero
    interior = np.linalg.solve(_interior_system(d, N) + 1.0 / n, rhs)
    u = np.full((N + 1,) * d, np.nan)
    u[(slice(1, N),) * d] = interior.reshape((N - 1,) * d)
    u[tuple(nt.T)] = u[tuple(nh.T)] - g
    grid = np.indices((N + 1,) * d).reshape(d, -1).T
    codim = ((grid == 0) | (grid == N)).sum(axis=1)
    for c in range(2, d + 1):
        for x in grid[codim == c]:
            inward = np.where(x == 0, 1, np.where(x == N, N - 1, x))
            nbrs = [tuple(np.where(np.arange(d) == i, inward, x)) for i in range(d) if inward[i] != x[i]]
            u[tuple(x)] = np.mean([u[v] for v in nbrs])
    return u


def _dense_norms(kind, d, N, seed, p_list):
    """{p: (tan_norm, nor_norm)} for one cell, regenerating the CLI's
    iid-gaussian data from the cell seed the row records."""
    (tt, th), (nt, nh) = _edge_classes(d, N)
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        u = dense_dirichlet(rng.standard_normal((N + 1,) * d))
    else:
        raw = rng.standard_normal(len(nt))
        u = dense_neumann(raw - raw.mean(), d, N)
    return {p: (_norms(u, tt, th, p), _norms(u, nt, nh, p)) for p in p_list}


def check_sweep(path, kind, d_list, n_list, p_list, samples):
    """Failures in a sweep CSV: header, row set, norms, ratio direction, and
    agreement of the smallest-N cells with the dense oracle."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != SWEEP_COLUMNS:
        return [f"sweep header {header} differs from the pinned {SWEEP_COLUMNS}"]
    failures = []
    expected = len(d_list) * len(n_list) * len(p_list) * samples
    if len(rows) != expected:
        failures.append(f"sweep has {len(rows)} rows, expected {expected}")
    cells = {}
    for row in rows:
        rec = dict(zip(header, row))
        try:
            d, N, sample, seed = (int(rec[k]) for k in ("d", "N", "sample", "seed"))
            p, tan, nor, ratio = (float(rec[k]) for k in ("p", "tan_norm", "nor_norm", "ratio"))
        except ValueError:
            failures.append(f"sweep row {row} does not parse")
            continue
        where = f"d={d} N={N} p={p} sample={sample}"
        if not (tan > 0 and nor > 0 and math.isfinite(tan) and math.isfinite(nor)):
            failures.append(f"{where}: norms {tan}, {nor} are not finite and positive")
            continue
        want = nor / tan if kind == "dirichlet" else tan / nor
        if not _close(ratio, want, 1e-12):
            failures.append(f"{where}: ratio {ratio} is not the {kind} quotient {want}")
        cells.setdefault((d, N, sample, seed), {})[p] = (tan, nor)
    keys = {(d, N, s) for d, N, s, _ in cells}
    if keys != {(d, N, s) for d in d_list for N in n_list for s in range(samples)}:
        failures.append("sweep rows do not cover every (d, N, sample) cell once")
    n_min = min(n_list)
    for (d, N, sample, seed), by_p in sorted(cells.items()):
        if N != n_min:
            continue
        oracle = _dense_norms(kind, d, N, seed, sorted(by_p))
        for p, (tan, nor) in by_p.items():
            if not (_close(tan, oracle[p][0], DENSE_RTOL) and _close(nor, oracle[p][1], DENSE_RTOL)):
                failures.append(
                    f"d={d} N={N} p={p} sample={sample}: norms ({tan}, {nor}) differ "
                    f"from the dense solve {oracle[p]}"
                )
    return failures


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def tv_bound(mean_bound, z, d, n):
    """Statistical bound on the MC-vs-spectral total variation of n walks.

    The mean term bounds E[TV] by Jensen, 0.5 * sum sqrt(p(1-p)/n), and is
    stored per z in reference.json.  One walk moves the TV by at most 1/n,
    so by McDiarmid it exceeds its mean by t with probability at most
    exp(-2 n t^2); t is set for TV_FAILURE_PROB.  Resampling capped walks
    draws from the law conditioned on length <= STEP_CAP, which is within
    P(capped) ~ z sqrt(2d / (pi STEP_CAP)) of the exact law in TV; the bound
    allows twice that estimate.
    """
    spread = math.sqrt(math.log(1.0 / TV_FAILURE_PROB) / (2.0 * n))
    capped = z * math.sqrt(2.0 * d / (math.pi * STEP_CAP))
    return mean_bound + spread + 2.0 * capped


def check_kernel_report(payload, reference):
    """Failures in a kernel-report JSON payload: the deterministic columns
    against the reference, mass accounting, and the TV bound per z."""
    ref = reference["kernel-mc"]
    failures = []
    for key in ("d", "L", "n_samples"):
        if payload.get(key) != ref[key]:
            failures.append(f"kernel report {key}={payload.get(key)}, expected {ref[key]}")
    blocks = payload.get("blocks", [])
    if [b.get("z") for b in blocks] != [b["z"] for b in ref["blocks"]]:
        return failures + ["kernel report blocks do not match the reference z list"]
    for block, want in zip(blocks, ref["blocks"]):
        z = block["z"]
        if not _close(block["kernel_variation"], want["kernel_variation"], REFERENCE_RTOL):
            failures.append(f"z={z}: kernel_variation {block['kernel_variation']} != {want['kernel_variation']}")
        offsets = block["offsets"]
        if [e["offset"] for e in offsets] != [o for o, _, _ in want["offsets"]]:
            failures.append(f"z={z}: offsets differ from the reference window")
            continue
        for entry, (off, spectral, continuum) in zip(offsets, want["offsets"]):
            if not (
                _close(entry["spectral_p"], spectral, REFERENCE_RTOL)
                and _close(entry["continuum"], continuum, REFERENCE_RTOL)
            ):
                failures.append(f"z={z} offset {off}: deterministic kernel columns differ from the reference")
        mass = sum(e["mc_p"] for e in offsets) + block["out_of_window"] + block.get("unresolved", 0.0)
        if abs(mass - 1.0) > MASS_ATOL:
            failures.append(f"z={z}: in-window plus accounted mass is {mass!r}, not 1")
        limit = tv_bound(want["expected_tv_bound"], z, ref["d"], ref["n_samples"])
        tv = block["tv_mc_vs_spectral"]
        if not 0.0 <= tv <= limit:
            failures.append(f"z={z}: tv_mc_vs_spectral {tv} outside [0, {limit:.4f}]")
    return failures


def check_symbol_report(payload, reference):
    """Failures in a symbol-report JSON payload: every bound and the
    stability flag hold, and the values match the reference."""
    ref = reference["symbol-d3"]
    failures = []
    if payload.get("d") != ref["d"]:
        failures.append(f"symbol report d={payload.get('d')}, expected {ref['d']}")
    blocks = payload.get("blocks", [])
    if [b.get("L") for b in blocks] != [b["L"] for b in ref["blocks"]]:
        return failures + ["symbol report blocks do not match the reference L list"]
    for block, want in zip(blocks, ref["blocks"]):
        for name in ("neumann_axis0", "dirichlet_glued"):
            got, exp = block[name], want[name]
            if not got["bound_ok"]:
                failures.append(f"L={block['L']} {name}: variation bound fails")
            if got["bound_factor"] != exp["bound_factor"]:
                failures.append(f"L={block['L']} {name}: bound factor {got['bound_factor']} != {exp['bound_factor']}")
            for key in ("max_lvar", "total_var"):
                if not _close(got[key], exp[key], REFERENCE_RTOL):
                    failures.append(f"L={block['L']} {name}: {key} {got[key]} != {exp[key]}")
    stability = payload.get("stability", {})
    if not stability.get("ok"):
        failures.append(f"symbol report stability fails: {stability}")
    elif not _close(stability["max_lvar_spread"], ref["stability"]["max_lvar_spread"], REFERENCE_RTOL):
        failures.append(f"max_lvar_spread {stability['max_lvar_spread']} differs from the reference")
    return failures
