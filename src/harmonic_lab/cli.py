"""Experiment driver for the gradient comparison sweeps and kernel reports.

Subcommands:

* ``dirichlet-sweep``: extend random boundary data over a grid of (d, N),
  record tangential/normal gradient norms and the nor/tan ratio per
  exponent p, and report how the per-N maximum ratio grows with N.
* ``neumann-sweep``: the same pipeline for prescribed normal differences,
  with the tan/nor ratio.
* ``kernel-report``: Monte Carlo exit distributions against the spectral
  and continuum Poisson kernels.
* ``symbol-report``: dyadic variation metrics of the multiplier symbols
  over a list of grid sizes.
* ``selftest``: small deterministic run exercising the pipelines and
  checking thread-count independence; exits 2 when a check fails.

Reports are deterministic for a given spec and seed: every cell derives
its own generator seed from (seed, d, N, sample), so thread scheduling
cannot change any emitted value.  CSV sweep rows carry exactly the
columns d,N,p,sample,seed,tan_norm,nor_norm,ratio,runtime_ms.

A sweep builds each (d, N) cell when its first chunk is due and drops it
after its last.  Each command imports numpy and the library modules it
runs when it starts, and output files are named by a CRC-32 of the run
descriptor, so parsing and validating the arguments loads no library
module, no OpenSSL and no numpy.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import itertools
import json
import logging
import math
import operator
import os
import sys
import time
import zlib
from dataclasses import dataclass

__all__ = ["SweepSpec", "run_sweep", "run_kernel_report", "run_symbol_report",
           "run_selftest", "main"]

logger = logging.getLogger(__name__)

CSV_COLUMNS = (
    "d",
    "N",
    "p",
    "sample",
    "seed",
    "tan_norm",
    "nor_norm",
    "ratio",
    "runtime_ms",
)

GENERATORS = ("iid-gaussian", "single-mode", "checkerboard")

SELFTEST_SEED = 20240801

#: fields of each window entry of a kernel-report block, one row per offset
KERNEL_COLUMNS = ("offset", "mc_p", "mc_se", "spectral_p", "continuum")

#: largest gap, relative to the largest gradient, the selftest allows between
#: a gradient operator's output and the gradients of an exact harmonic function
OPERATOR_RTOL = 1e-12

#: library functions this module once imported by name, resolved on first
#: access for code that still reads them from here (the benchmark's tracer
#: tests do)
_FORWARDED = {
    "periodized_poisson_kernel": "halfspace",
    "tangential_angles": "halfspace",
    "dirichlet_symbol": "spectral",
}


def __getattr__(name):
    if name in _FORWARDED:
        module = importlib.import_module(f".{_FORWARDED[name]}", __package__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _refuse_repeats(name, values):
    """Raise a ValueError naming ``name`` if ``values`` holds a value twice."""
    values = tuple(values)
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeats a value: {values}")


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
            _refuse_repeats(name, getattr(self, name))


def _cell_seed(seed, *parts):
    import numpy as np

    ss = np.random.SeedSequence([int(seed)] + [int(v) for v in parts])
    return int(ss.generate_state(1, np.uint64)[0])


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

    operator, points = cell
    generate = _dirichlet_data if kind == "dirichlet" else _neumann_data
    try:
        started = time.perf_counter()
        seeds = [_cell_seed(spec.seed, d, N, sample) for sample in samples]
        batch = np.stack(
            [generate(spec.generator, np.random.default_rng(s), points, N) for s in seeds]
        )
        # each sample's gradients, reused for every exponent
        norms = [
            [(p, lp_norm(tan, p), lp_norm(nor, p)) for p in spec.p_list]
            for tan, nor in zip(*operator(batch))
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
        dict(d=d, N=N, p=p, sample=sample, seed=cell_seed, tan_norm=tan, nor_norm=nor,
             ratio=top / bottom if bottom > 0 else None, runtime_ms=per_row_ms)
        for sample, cell_seed, by_p in zip(samples, seeds, norms)
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
        size = max(1, boxes._BLOCK // (N - 1) ** d)
        for s in range(0, spec.samples, size):
            yield d, N, range(s, min(s + size, spec.samples)), cell
        del cell


def run_sweep(kind, spec: SweepSpec, threads: int = 1):
    """Rows and summary of the "dirichlet" or "neumann" extension sweep; the
    ratio is nor/tan or tan/nor.  A pool holds at most threads + 1 chunks;
    it raises the first chunk that fails and logs any other failure."""
    from . import boxes

    for d, N in itertools.product(spec.d_list, spec.n_list):
        boxes._refuse_over_budget(d, N)  # every cell, before the first is built
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


def run_kernel_report(d, z_list, L, n_samples, seed=0):
    _refuse_repeats("z_list", z_list)
    import numpy as np

    from . import walks
    from .halfspace import periodized_poisson_kernel

    for z in z_list:  # WalkConfig's own error for a bad z, before a seed is derived
        walks.WalkConfig(d, int(z))
    blocks = []
    window = min(8, L - 1)
    for z in z_list:
        z = int(z)
        cfg = walks.WalkConfig(d=d, z=z, seed=_cell_seed(seed, d, z))
        kernel = periodized_poisson_kernel(z, d, L)
        # every window offset as a row, in the lexicographic order of the counts
        grid = np.indices((2 * window + 1,) * (d - 1)).reshape(d - 1, -1).T - window
        tv = 0.5 * float(np.abs(walks.mc_exit_array(cfg, n_samples, L) - kernel).sum())
        estimate = walks.poisson_kernel_mc(cfg, n_samples, window)
        mc_p = estimate.counts.ravel() / n_samples
        # columns: the binomial standard error of each frequency, the
        # spectral kernel at offset mod 2L, one continuum evaluation
        rows = zip(
            grid.tolist(),
            mc_p.tolist(),
            np.sqrt(mc_p * (1.0 - mc_p) / n_samples).tolist(),
            kernel[tuple(np.mod(grid, 2 * L).T)].tolist(),
            walks.continuum_kernel(grid, z, d).ravel().tolist(),
        )
        blocks.append(
            {
                "z": z,
                "tv_mc_vs_spectral": tv,
                "kernel_variation": walks.kernel_variation_constant(z, L, d),
                "window": window,
                "out_of_window": estimate.out_count / n_samples,
                "unresolved": estimate.unresolved_count / n_samples,
                "offsets": [dict(zip(KERNEL_COLUMNS, row)) for row in rows],
            }
        )
    return {
        "command": "kernel-report",
        "d": int(d),
        "L": int(L),
        "n_samples": int(n_samples),
        "seed": int(seed),
        "blocks": blocks,
    }


def run_symbol_report(d, l_list):
    _refuse_repeats("l_list", l_list)
    from . import dyadic
    from .spectral import grid_symbols

    naxes = d - 1
    blocks = []
    for L in map(int, l_list):
        # grid_symbols refuses an over-budget grid before anything is built
        table = dyadic.variation_table(grid_symbols(d, L), L, naxes)
        block = {"L": L}
        for j, name in enumerate(("neumann_axis0", "dirichlet_glued")):
            max_lvar, total = float(table.local[..., j].max()), float(table.total[j])
            block[name] = {
                "max_lvar": max_lvar,
                "total_var": total,
                "bound_factor": 4**naxes,
                "bound_ok": bool(total <= 4**naxes * max_lvar + 1e-12),
            }
        blocks.append(block)
    tracked = [block["neumann_axis0"]["max_lvar"] for block in blocks]
    spread = max(tracked) / min(tracked) if min(tracked) > 0 else None
    return {
        "command": "symbol-report",
        "d": int(d),
        "blocks": blocks,
        "stability": {
            "max_lvar_spread": spread,
            "ok": spread is not None and spread <= 2.0,
        },
    }


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy floats repr as np.float64(...)
    return str(value)


def _write_csv_lines(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in header))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spec_hash(descriptor):
    canonical = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode()):08x}"


def _output_path(out_dir, command, descriptor, fmt):
    os.makedirs(out_dir, exist_ok=True)
    stem = command.replace("-", "_")
    return os.path.join(out_dir, f"{stem}_{_spec_hash(descriptor)}.{fmt}")


def _sweep_descriptor(command, spec):
    return dict(command=command, d=list(spec.d_list), N=list(spec.n_list),
                p=list(spec.p_list), samples=spec.samples, seed=spec.seed,
                generator=spec.generator)


def _emit(out_dir, fmt, descriptor, payload, header, rows):
    """Write ``rows`` as CSV or ``payload`` as JSON, as ``fmt`` asks, in
    ``out_dir`` under the name hashed from ``descriptor``; returns the path."""
    path = _output_path(out_dir, descriptor["command"], descriptor, fmt)
    if fmt == "csv":
        _write_csv_lines(path, header, rows)
    else:
        _write_json(path, payload)
    return path


def _cmd_sweep(args, kind):
    spec = SweepSpec(args.d, args.n_list, args.p_list, args.samples, args.seed, args.generator)
    rows, summary = run_sweep(kind, spec, args.threads)
    descriptor = _sweep_descriptor(f"{kind}-sweep", spec)
    payload = {"spec": descriptor, "rows": rows, "summary": summary}
    print(_emit(args.out, args.format, descriptor, payload, CSV_COLUMNS, rows))
    for key, block in summary.items():
        print(f"{key}: growth={block['growth']}")
    return 0


def _cmd_kernel(args):
    payload = run_kernel_report(args.d, args.z_list, args.L, args.samples, args.seed)
    descriptor = dict(command="kernel-report", d=args.d, z=list(args.z_list), L=args.L,
                      n_samples=args.samples, seed=args.seed)
    rows = [
        dict(entry, z=block["z"], offset=";".join(str(v) for v in entry["offset"]))
        for block in payload["blocks"]
        for entry in block["offsets"]
    ]
    print(_emit(args.out, args.format, descriptor, payload, ("z", *KERNEL_COLUMNS), rows))
    for block in payload["blocks"]:
        print(
            f"z={block['z']}: tv={block['tv_mc_vs_spectral']:.4f} "
            f"variation={block['kernel_variation']:.4f} "
            f"unresolved={block['unresolved']:.2e}"
        )
    return 0


def _cmd_symbol(args):
    payload = run_symbol_report(args.d, args.l_list)
    descriptor = {"command": "symbol-report", "d": args.d, "L": list(args.l_list)}
    header = ("L", "symbol", "max_lvar", "total_var", "bound_ok")
    rows = [
        dict(block[name], L=block["L"], symbol=name)
        for block in payload["blocks"]
        for name in ("neumann_axis0", "dirichlet_glued")
    ]
    print(_emit(args.out, args.format, descriptor, payload, header, rows))
    print(f"stability: {payload['stability']}")
    return 0


def run_selftest(out_dir=".", threads=1, fmt="csv"):
    """Small deterministic pipeline check.

    Runs both sweeps twice, serially and on a pool of ``max(2, threads)``
    workers (so the default of 1 checks a pool too), requires identical
    rows, certifies the gradient operator of each kind on exact lattice-harmonic
    functions (``boxes.operator_certificate``) at the sweep's own sizes and
    at N=4 for d=3 and 4, checks the variation bound and the cross-L
    stability of the symbol metrics, and writes the sweep rows with the
    runtime column zeroed so the file is byte-reproducible.
    """
    from . import boxes

    failures = []
    spec = SweepSpec((2,), (4, 8), (2.0,), samples=3, seed=SELFTEST_SEED)
    emitted, pooled = [], max(2, threads)
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
        emitted.extend(rows_pooled)

    symbol = run_symbol_report(2, (4, 8))
    for block in symbol["blocks"]:
        for name in ("neumann_axis0", "dirichlet_glued"):
            if not block[name]["bound_ok"]:
                failures.append(f"variation bound fails for {name} at L={block['L']}")
    if not symbol["stability"]["ok"]:
        failures.append("neumann max_lvar drifts across L by more than a factor 2")

    descriptor = _sweep_descriptor("selftest", spec)
    path = _emit(out_dir, fmt, descriptor, {"spec": descriptor, "rows": emitted},
                 CSV_COLUMNS, emitted)

    if failures:
        for failure in failures:
            print(f"selftest FAIL: {failure}", file=sys.stderr)
        return 2
    print(path)
    print("selftest ok")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 1; code 2 is reserved for selftest
    acceptance failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _list_parser(convert, name):
    """Argument type for a comma-separated list of ``convert`` values."""

    def parse(text):
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} list {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


_int_list = _list_parser(int, "integer")
_float_list = _list_parser(float, "float")


def _seed(text):
    """Argument type for the master seed: an integer of at least 0."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed must be a non-negative integer, got {text!r}"
    )


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=0, help="master seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--threads", type=int, default=1, help="worker threads")
    sub.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="lowest level of log records written to stderr",
    )


def build_parser():
    parser = _Parser(
        prog="harmonic-lab",
        description="Gradient comparison sweeps and kernel reports on lattice boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("dirichlet", "neumann"):
        p = sub.add_parser(f"{kind}-sweep", help=f"{kind} extension sweep over (d, N, p) cells")
        p.add_argument("--d", type=_int_list, default=[2], help="dimensions, e.g. 2,3")
        p.add_argument("--n-list", type=_int_list, default=[8, 16, 32])
        p.add_argument("--p-list", type=_float_list, default=[2.0])
        p.add_argument("--samples", type=int, default=10)
        p.add_argument("--generator", choices=GENERATORS, default="iid-gaussian")
        _add_common(p)
        p.set_defaults(func=lambda args, kind=kind: _cmd_sweep(args, kind))

    p = sub.add_parser("kernel-report", help="MC vs spectral vs continuum kernels")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--z-list", type=_int_list, default=[1, 3, 10])
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--samples", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("symbol-report", help="dyadic variation of multiplier symbols")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l-list", type=_int_list, default=[8, 16, 32])
    _add_common(p)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("selftest", help="deterministic pipeline check")
    _add_common(p)
    p.set_defaults(func=lambda args: run_selftest(args.out, args.threads, args.format))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
