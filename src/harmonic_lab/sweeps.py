"""The gradient comparison sweeps and the self test.

``run_sweep`` extends random boundary data over a grid of (d, N) cells,
records the tangential and normal gradient norms and their ratio per
exponent p, and summarizes how the per-N maximum ratio grows with N.
``run_selftest`` runs both sweeps serially and on a pool, certifies the
gradient operators and the symbol metrics, and returns its spec, rows and
failed checks.  Every cell derives its own generator seed from
(seed, d, N, sample), so thread scheduling cannot change any emitted value.

The command line imports this module only when a sweep or the self test
runs, and writes what it returns; this module imports nothing from it.  A
sweep builds each (d, N) cell when its first chunk is due and drops it
after its last.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
import math
import operator
import time
from dataclasses import dataclass

from . import GENERATORS, cell_seed, refuse_repeats

__all__ = ["SweepSpec", "run_sweep", "run_selftest"]

logger = logging.getLogger(__name__)

SELFTEST_SEED = 20240801

#: largest gap, relative to the largest gradient, the selftest allows between
#: a gradient operator's output and the gradients of an exact harmonic function
OPERATOR_RTOL = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    d_list: tuple
    n_list: tuple
    p_list: tuple
    samples: int
    seed: int
    generator: str = "iid-gaussian"

    def __post_init__(self):
        # operator.index refuses a float count instead of truncating it
        put, index = functools.partial(object.__setattr__, self), operator.index
        put("d_list", tuple(map(index, self.d_list)))
        put("n_list", tuple(map(index, self.n_list)))
        put("p_list", tuple(map(float, self.p_list)))
        put("samples", index(self.samples))
        put("seed", index(self.seed))
        if not self.d_list or min(self.d_list) < 2:
            raise ValueError("every dimension must be at least 2")
        if not self.n_list or min(self.n_list) < 2:
            raise ValueError("every box side must be at least 2")
        if not self.p_list or not all(p > 1 for p in self.p_list):
            raise ValueError("every exponent must exceed 1")
        if self.samples < 1:
            raise ValueError("need at least one sample per cell")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        for name in ("d_list", "n_list", "p_list"):
            refuse_repeats(name, getattr(self, name))


def _dirichlet_data(generator, rng, vertices, N):
    """Dirichlet values at ``vertices``, boundary vertices of {0..N}^d as a
    lexicographic (M, d) array, in their order.  iid-gaussian keeps them from
    a draw of the whole (N+1,)*d box, one axis-0 slab at a time, which
    defines its stream; the others evaluate there."""
    import numpy as np

    d = vertices.shape[1]
    if generator == "iid-gaussian":
        out = np.empty(len(vertices))
        cut = np.searchsorted(vertices[:, 0], np.arange(N + 2))
        for i, j in zip(cut, cut[1:]):
            out[i:j] = rng.standard_normal((N + 1,) * (d - 1))[tuple(vertices[i:j, 1:].T)]
        return out
    x = vertices.T
    if generator == "single-mode":
        k = rng.integers(1, N, size=d)
        logger.debug("single-mode wave vector %s for d=%d N=%d", k, d, N)
        h = math.pi / N
        return np.cos(sum(h * int(k[i]) * x[i] for i in range(d)))
    return np.where(sum(x) % 2 == 0, 1.0, -1.0)


def _neumann_data(generator, rng, edges, N):
    """Mean-zero normal data; ``g[j]`` belongs to ``edges[j]``, the normal
    edges ``lattice.normal_edges(d, N)``."""
    import numpy as np

    d = edges.shape[-1]
    if generator == "iid-gaussian":
        raw = rng.standard_normal(len(edges))
    elif generator == "single-mode":
        k = rng.integers(1, N, size=d)
        logger.debug("single-mode wave vector %s for d=%d N=%d", k, d, N)
        h = math.pi / N
        raw = np.cos(edges[:, 0].astype(float) @ (h * k.astype(float)))
        m = edges[:, 0] @ k % (2 * N)  # cos(pi m / N) is constant iff min(m, 2N - m) is
        if np.ptp(np.minimum(m, 2 * N - m)) == 0:
            raise ValueError("generated normal data is identically zero")
    else:
        raw = np.where(edges[:, 0].sum(axis=1) % 2 == 0, 1.0, -1.0)
    g = raw - raw.mean()
    if np.abs(g).max() <= len(raw) * np.finfo(float).eps * np.abs(raw).sum():
        raise ValueError("generated normal data is identically zero")
    return g


def _chunk_rows(kind, spec, d, N, samples, cell):
    """Rows of the cells (d, N, sample) for ``samples``, drawn on the points
    of ``cell`` and solved as one batch by its operator; each row's
    runtime_ms is its share of the chunk's time.  Norms are ``lp_norm``'s;
    the ratio is nor/tan or tan/nor by ``kind``, None at a zero denominator."""
    import numpy as np

    from .lattice import lp_norm

    apply, points = cell
    generate = _dirichlet_data if kind == "dirichlet" else _neumann_data
    try:
        started = time.perf_counter()
        seeds = [cell_seed(spec.seed, d, N, sample) for sample in samples]
        batch = np.stack(
            [generate(spec.generator, np.random.default_rng(s), points, N) for s in seeds]
        )
        # each sample's gradients, reused for every exponent
        norms = [
            [(p, lp_norm(tan, p), lp_norm(nor, p)) for p in spec.p_list]
            for tan, nor in zip(*apply(batch))
        ]
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    except Exception as exc:
        if len(samples) == 1:
            raise RuntimeError(
                f"cell d={d} N={N} sample={samples[0]} failed: {exc}"
            ) from exc
        # rerun the cells one at a time, so the error names the failing one
        for sample in samples:
            _chunk_rows(kind, spec, d, N, [sample], cell)
        raise RuntimeError(
            f"cells d={d} N={N} samples={samples[0]}..{samples[-1]} failed: {exc}"
        ) from exc
    per_row_ms = round(elapsed_ms / (len(samples) * len(spec.p_list)), 3)
    return [
        dict(d=d, N=N, p=p, sample=sample, seed=seed, tan_norm=tan, nor_norm=nor,
             ratio=top / bottom if bottom > 0 else None, runtime_ms=per_row_ms)
        for sample, seed, by_p in zip(samples, seeds, norms)
        for p, tan, nor in by_p
        for top, bottom in [(nor, tan) if kind == "dirichlet" else (tan, nor)]
    ]


def _summarize(rows):
    per = {}
    for row in rows:
        ratio = row["ratio"]
        if ratio is None:
            continue
        by_n = per.setdefault((row["d"], row["p"]), {})
        by_n[row["N"]] = max(by_n.get(row["N"], 0.0), ratio)
    summary = {}
    for d, p in sorted(per):
        by_n = per[(d, p)]
        ns = sorted(by_n)
        first = by_n[ns[0]]
        growth = by_n[ns[-1]] / first if first > 0 else None
        summary[f"d={d},p={p}"] = {
            "max_ratio_by_N": {str(n): by_n[n] for n in ns},
            "growth": growth,
        }
    return summary


def _tasks(kind, spec):
    """The chunks (d, N, samples, cell) in (d, N) order, each of at most
    boxes._BLOCK interior coefficients or of one sample; a cell (operator,
    data points) is built for its first chunk and dropped after its last."""
    from . import boxes, lattice

    points = lattice.boundary_vertices if kind == "dirichlet" else lattice.normal_edges
    for d, N in itertools.product(spec.d_list, spec.n_list):
        cell = (boxes.gradient_operator(kind, d, N), points(d, N))
        size = boxes._chunk_samples(d, N)
        for s in range(0, spec.samples, size):
            yield d, N, range(s, min(s + size, spec.samples)), cell
        del cell


def run_sweep(kind, spec: SweepSpec, threads: int = 1):
    """Rows and summary of the "dirichlet" or "neumann" extension sweep; the
    ratio is nor/tan or tan/nor.  A pool holds at most threads + 1 chunks;
    it raises the first chunk that fails and logs any other failure."""
    from . import boxes

    cells = list(itertools.product(spec.d_list, spec.n_list))
    chunks = sum(-(-spec.samples // boxes._chunk_samples(d, N)) for d, N in cells)
    for d, N in cells:
        # every cell, before the first is built, with a chunk per busy worker
        boxes._refuse_over_budget(d, N, min(threads, chunks))
    run, tasks, rows = functools.partial(_chunk_rows, kind, spec), _tasks(kind, spec), []
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            # a FIFO window of chunks that spans cell boundaries
            pending = collections.deque()
            try:
                for future in itertools.starmap(functools.partial(pool.submit, run), tasks):
                    pending.append(future)
                    if len(pending) > threads:
                        rows += pending.popleft().result()
                while pending:
                    rows += pending.popleft().result()
            except Exception:
                # the first failure is raised: the chunks not yet started are
                # dropped, and what the running ones raise is logged
                for future in pending:
                    future.cancel()
                for future in pending:
                    if not future.cancelled() and future.exception() is not None:
                        logger.error("%s", future.exception())
                raise
    else:
        # starmap drops each task before it asks for the next
        for chunk in itertools.starmap(run, tasks):
            rows += chunk
    rows.sort(key=lambda r: (r["d"], r["N"], r["p"], r["sample"]))
    return rows, _summarize(rows)


def run_selftest(threads=1):
    """Small deterministic pipeline check.

    Runs both sweeps twice, serially and on a pool of ``max(2, threads)``
    workers (so the default of 1 checks a pool too), requires identical
    rows, certifies the gradient operator of each kind on exact lattice-harmonic
    functions (``boxes.operator_certificate``) at the sweep's own sizes and
    at N=4 for d=3 and 4, and checks the variation bound and the cross-L
    stability of the symbol metrics.  Returns the sweep spec, the pooled
    rows of both sweeps with the runtime column zeroed, so a file of them
    is byte-reproducible, and the failed checks, one message each.
    """
    from . import boxes
    from .spectral import run_symbol_report  # a sweep alone does not load spectral

    failures = []
    spec = SweepSpec((2,), (4, 8), (2.0,), samples=3, seed=SELFTEST_SEED)
    all_rows, pooled = [], max(2, threads)
    for kind in ("dirichlet", "neumann"):
        rows_single, summary = run_sweep(kind, spec, 1)
        rows_pooled, _ = run_sweep(kind, spec, pooled)
        for rows in (rows_single, rows_pooled):
            for row in rows:
                row["runtime_ms"] = 0.0
        if rows_single != rows_pooled:
            failures.append(f"{kind} sweep rows differ between 1 and {pooled} threads")
        for key, block in summary.items():
            growth = block["growth"]
            if growth is None or not math.isfinite(growth) or growth <= 0:
                failures.append(f"{kind} growth diagnostic degenerate for {key}")
        for d, N in [*itertools.product(spec.d_list, spec.n_list), (3, 4), (4, 4)]:
            gap = boxes.operator_certificate(kind, d, N)
            if not gap <= OPERATOR_RTOL:
                failures.append(
                    f"{kind} operator misses exact harmonic gradients by "
                    f"{gap:.3e} (relative) at d={d} N={N}"
                )
        all_rows.extend(rows_pooled)

    symbol = run_symbol_report(2, (4, 8))
    for block in symbol["blocks"]:
        for name in ("neumann_axis0", "dirichlet_glued"):
            if not block[name]["bound_ok"]:
                failures.append(f"variation bound fails for {name} at L={block['L']}")
    if not symbol["stability"]["ok"]:
        failures.append("neumann max_lvar drifts across L by more than a factor 2")

    return spec, all_rows, failures
