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

Each command imports the library modules it runs when it starts, so parsing
the arguments loads none of them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SweepSpec",
    "run_dirichlet_sweep",
    "run_neumann_sweep",
    "run_kernel_report",
    "run_symbol_report",
    "run_selftest",
    "main",
]

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

#: largest gap, relative to the largest gradient, the selftest allows between
#: the gradient operators and the full-field extensions
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


@dataclass(frozen=True)
class SweepSpec:
    d_list: tuple
    n_list: tuple
    p_list: tuple
    samples: int
    seed: int
    generator: str = "iid-gaussian"

    def __post_init__(self):
        object.__setattr__(self, "d_list", tuple(int(v) for v in self.d_list))
        object.__setattr__(self, "n_list", tuple(int(v) for v in self.n_list))
        object.__setattr__(self, "p_list", tuple(float(v) for v in self.p_list))
        if not self.d_list or min(self.d_list) < 2:
            raise ValueError("every dimension must be at least 2")
        if not self.n_list or min(self.n_list) < 2:
            raise ValueError("every box side must be at least 2")
        if not self.p_list or min(self.p_list) <= 1.0:
            raise ValueError("every exponent must exceed 1")
        if self.samples < 1:
            raise ValueError("need at least one sample per cell")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")


def _cell_seed(seed, *parts):
    ss = np.random.SeedSequence([int(seed)] + [int(v) for v in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _full_grids(d, N):
    axes = [np.arange(N + 1)] * d
    return np.meshgrid(*axes, indexing="ij")


def _dirichlet_data(generator, rng, d, N):
    shape = (N + 1,) * d
    if generator == "iid-gaussian":
        return rng.standard_normal(shape)
    if generator == "single-mode":
        k = rng.integers(1, N, size=d)
        logger.debug("single-mode wave vector %s for d=%d N=%d", k, d, N)
        h = math.pi / N
        grids = _full_grids(d, N)
        phase = sum(h * int(k[i]) * grids[i] for i in range(d))
        return np.cos(phase)
    parity = sum(_full_grids(d, N)) % 2
    return np.where(parity == 0, 1.0, -1.0)


def _neumann_data(generator, rng, d, N):
    """Mean-zero normal data; ``g[j]`` belongs to ``lattice.normal_edges(d, N)[j]``."""
    from . import lattice

    edges = lattice.normal_edges(d, N)
    if generator == "iid-gaussian":
        raw = rng.standard_normal(len(edges))
    elif generator == "single-mode":
        k = rng.integers(1, N, size=d)
        logger.debug("single-mode wave vector %s for d=%d N=%d", k, d, N)
        h = math.pi / N
        raw = np.cos(edges[:, 0].astype(float) @ (h * k.astype(float)))
    else:
        raw = np.where(edges[:, 0].sum(axis=1) % 2 == 0, 1.0, -1.0)
    g = raw - raw.mean()
    if float(np.abs(g).max(initial=0.0)) == 0.0:
        raise ValueError("generated normal data is identically zero")
    return g


def _chunk_inputs(kind, spec, d, N, samples):
    """Cell seeds and the operator input for ``samples`` of cell (d, N): the
    Dirichlet values on ``lattice.boundary_vertices(d, N)`` or the Neumann
    normal data, one row per sample."""
    from . import lattice

    if kind == "dirichlet":
        boundary = tuple(lattice.boundary_vertices(d, N).T)
    seeds, rows = [], []
    for sample in samples:
        seeds.append(_cell_seed(spec.seed, d, N, sample))
        rng = np.random.default_rng(seeds[-1])
        if kind == "dirichlet":
            rows.append(_dirichlet_data(spec.generator, rng, d, N)[boundary])
        else:
            rows.append(_neumann_data(spec.generator, rng, d, N))
    return seeds, np.stack(rows)


def _operator(kind, d, N):
    from . import boxes

    build = boxes.dirichlet_operator if kind == "dirichlet" else boxes.neumann_operator
    return build(d, N)


def _chunk_rows(kind, spec, d, N, samples):
    """Rows of the cells (d, N, sample) for ``samples``, solved as one batch;
    each row's runtime_ms is its share of the chunk's time."""
    from . import lattice

    try:
        started = time.perf_counter()
        seeds, batch = _chunk_inputs(kind, spec, d, N, samples)
        # each sample's gradients, reused for every exponent
        norms = [
            [(p, lattice.lp_norm(tan, p), lattice.lp_norm(nor, p)) for p in spec.p_list]
            for tan, nor in zip(*_operator(kind, d, N)(batch))
        ]
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    except Exception as exc:
        if len(samples) == 1:
            raise RuntimeError(
                f"cell d={d} N={N} sample={samples[0]} failed: {exc}"
            ) from exc
        # rerun the cells one at a time, so the error names the failing one
        for sample in samples:
            _chunk_rows(kind, spec, d, N, [sample])
        raise RuntimeError(
            f"cells d={d} N={N} samples={samples[0]}..{samples[-1]} failed: {exc}"
        ) from exc
    per_row_ms = round(elapsed_ms / (len(samples) * len(spec.p_list)), 3)
    rows = []
    for sample, cell_seed, cell in zip(samples, seeds, norms):
        for p, tan, nor in cell:
            # the same ratios as boxes.gradient_comparison: nor/tan for
            # Dirichlet data, tan/nor for Neumann data
            num, den = (nor, tan) if kind == "dirichlet" else (tan, nor)
            rows.append(
                {
                    "d": d,
                    "N": N,
                    "p": p,
                    "sample": sample,
                    "seed": cell_seed,
                    "tan_norm": tan,
                    "nor_norm": nor,
                    "ratio": num / den if den > 0 else None,
                    "runtime_ms": per_row_ms,
                }
            )
    return rows


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


def _run_sweep(kind, spec, threads):
    from . import boxes

    tasks = []
    for d in spec.d_list:
        for N in spec.n_list:
            # each chunk holds at most boxes._BLOCK interior coefficients
            # (one sample when a single one holds more)
            size = max(1, boxes._BLOCK // (N - 1) ** d)
            tasks += [
                (d, N, range(s, min(s + size, spec.samples)))
                for s in range(0, spec.samples, size)
            ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda t: _chunk_rows(kind, spec, *t), tasks))
    else:
        chunks = [_chunk_rows(kind, spec, *t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["d"], r["N"], r["p"], r["sample"]))
    return rows, _summarize(rows)


def run_dirichlet_sweep(spec: SweepSpec, threads: int = 1):
    """Rows and summary for the boundary-value extension sweep; the ratio
    column is nor_norm / tan_norm."""
    return _run_sweep("dirichlet", spec, threads)


def run_neumann_sweep(spec: SweepSpec, threads: int = 1):
    """Rows and summary for the normal-difference extension sweep; data is
    projected to zero sum per cell and the ratio column is tan / nor."""
    return _run_sweep("neumann", spec, threads)


def run_kernel_report(d, z_list, L, n_samples, seed=0):
    from . import walks
    from .halfspace import periodized_poisson_kernel

    blocks = []
    window = min(8, L - 1)
    for z in z_list:
        z = int(z)
        cfg = walks.WalkConfig(d=d, z=z, seed=_cell_seed(seed, d, z))
        kernel = periodized_poisson_kernel(z, d, L)
        freq = walks.mc_exit_array(cfg, n_samples, L)
        tv = 0.5 * float(np.abs(freq - kernel).sum())
        estimate = walks.poisson_kernel_mc(cfg, n_samples, window)
        offsets = []
        for off in itertools.product(range(-window, window + 1), repeat=d - 1):
            p_mc, se = estimate.probabilities.get(off, (0.0, 0.0))
            spectral = float(kernel[tuple(np.mod(off, 2 * L))])
            x = off[0] if d == 2 else np.array(off, dtype=float)
            offsets.append(
                {
                    "offset": list(off),
                    "mc_p": p_mc,
                    "mc_se": se,
                    "spectral_p": spectral,
                    "continuum": float(walks.continuum_kernel(x, z, d)),
                }
            )
        blocks.append(
            {
                "z": z,
                "tv_mc_vs_spectral": tv,
                "kernel_variation": walks.kernel_variation_constant(z, L, d),
                "window": window,
                "out_of_window": estimate.out_of_window,
                "unresolved": estimate.unresolved,
                "offsets": offsets,
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
    from . import dyadic
    from .spectral import grid_symbols

    naxes = d - 1
    blocks = []
    tracked = []
    for L in l_list:
        L = int(L)
        # f(lambda) once per grid, then one division per quotient symbol;
        # every rectangle shares the Dirichlet symbol of its dominant axis
        grid = grid_symbols(d, L)
        dirichlet = [grid.dirichlet(i) for i in range(naxes)]
        family = {
            k: dirichlet[dyadic.dominant_axis(k)]
            for k in itertools.product(dyadic._nonempty_levels(L), repeat=naxes)
        }
        glued = dyadic.glue_local_symbols(family, L)

        def metrics(symbol_values):
            table = dyadic.variation_table(symbol_values, L)
            max_lvar = float(table.local.max())
            return {
                "max_lvar": max_lvar,
                "total_var": table.total,
                "bound_factor": 4**naxes,
                "bound_ok": bool(table.total <= 4**naxes * max_lvar + 1e-12),
            }

        neumann_block = metrics(grid.neumann(0))
        tracked.append(neumann_block["max_lvar"])
        blocks.append(
            {
                "L": L,
                "neumann_axis0": neumann_block,
                "dirichlet_glued": metrics(glued),
            }
        )
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
    return hashlib.sha256(canonical.encode()).hexdigest()[:8]


def _output_path(out_dir, command, descriptor, fmt):
    os.makedirs(out_dir, exist_ok=True)
    stem = command.replace("-", "_")
    return os.path.join(out_dir, f"{stem}_{_spec_hash(descriptor)}.{fmt}")


def _sweep_descriptor(command, spec):
    return {
        "command": command,
        "d": list(spec.d_list),
        "N": list(spec.n_list),
        "p": list(spec.p_list),
        "samples": spec.samples,
        "seed": spec.seed,
        "generator": spec.generator,
    }


def _emit(args, descriptor, payload, header, rows):
    """Write ``rows`` as CSV or ``payload`` as JSON, as ``args.format`` asks,
    under the name hashed from ``descriptor``, and print the path."""
    path = _output_path(args.out, descriptor["command"], descriptor, args.format)
    if args.format == "csv":
        _write_csv_lines(path, header, rows)
    else:
        _write_json(path, payload)
    print(path)


def _cmd_sweep(args, kind):
    spec = SweepSpec(
        d_list=tuple(args.d),
        n_list=tuple(args.n_list),
        p_list=tuple(args.p_list),
        samples=args.samples,
        seed=args.seed,
        generator=args.generator,
    )
    rows, summary = _run_sweep(kind, spec, args.threads)
    descriptor = _sweep_descriptor(f"{kind}-sweep", spec)
    payload = {"spec": descriptor, "rows": rows, "summary": summary}
    _emit(args, descriptor, payload, CSV_COLUMNS, rows)
    for key, block in summary.items():
        print(f"{key}: growth={block['growth']}")
    return 0


def _cmd_kernel(args):
    payload = run_kernel_report(args.d, args.z_list, args.L, args.samples, args.seed)
    descriptor = {
        "command": "kernel-report",
        "d": args.d,
        "z": list(args.z_list),
        "L": args.L,
        "n_samples": args.samples,
        "seed": args.seed,
    }
    header = ("z", "offset", "mc_p", "mc_se", "spectral_p", "continuum")
    rows = [
        dict(entry, z=block["z"], offset=";".join(str(v) for v in entry["offset"]))
        for block in payload["blocks"]
        for entry in block["offsets"]
    ]
    _emit(args, descriptor, payload, header, rows)
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
    _emit(args, descriptor, payload, header, rows)
    print(f"stability: {payload['stability']}")
    return 0


def _operator_gap(kind, spec, d, N):
    """Largest difference between the gradients of the ``kind`` operator and
    those of the full-field extension on the sweep data of every sample of
    (d, N), relative to the largest extension gradient."""
    from . import boxes, lattice

    _, batch = _chunk_inputs(kind, spec, d, N, range(spec.samples))
    if kind == "dirichlet":
        fields = np.zeros((len(batch),) + (N + 1,) * d)
        fields[(slice(None),) + tuple(lattice.boundary_vertices(d, N).T)] = batch
        fields = [boxes.dirichlet_extension(f) for f in fields]
    else:
        fields = [boxes.neumann_extension(g, d, N) for g in batch]
    edges = np.concatenate([lattice.tangential_edges(d, N), lattice.normal_edges(d, N)])
    want = np.stack([lattice.edge_gradients(u, edges) for u in fields])
    got = np.concatenate(_operator(kind, d, N)(batch), axis=1)
    return float(np.abs(got - want).max() / np.abs(want).max())


def run_selftest(out_dir=".", threads=1, fmt="csv"):
    """Small deterministic pipeline check.

    Runs both sweeps twice (single-threaded and with the requested thread
    count), requires identical rows, checks the gradient operators against
    the full-field extensions on the sweep's own cells, checks the variation
    bound and the cross-L stability of the symbol metrics, and writes the
    sweep rows with the runtime column zeroed so the file is
    byte-reproducible.
    """
    failures = []
    spec = SweepSpec(
        d_list=(2,),
        n_list=(4, 8),
        p_list=(2.0,),
        samples=3,
        seed=SELFTEST_SEED,
    )
    emitted = []
    for kind in ("dirichlet", "neumann"):
        rows_single, summary = _run_sweep(kind, spec, 1)
        rows_pooled, _ = _run_sweep(kind, spec, threads)
        for rows in (rows_single, rows_pooled):
            for row in rows:
                row["runtime_ms"] = 0.0
        if rows_single != rows_pooled:
            failures.append(
                f"{kind} sweep rows differ between 1 and {threads} threads"
            )
        for key, block in summary.items():
            growth = block["growth"]
            if growth is None or not math.isfinite(growth) or growth <= 0:
                failures.append(f"{kind} growth diagnostic degenerate for {key}")
        for d in spec.d_list:
            for N in spec.n_list:
                gap = _operator_gap(kind, spec, d, N)
                if not gap <= OPERATOR_RTOL:
                    failures.append(
                        f"{kind} operator and extension gradients differ by "
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
    path = _output_path(out_dir, "selftest", descriptor, fmt)
    if fmt == "csv":
        _write_csv_lines(path, CSV_COLUMNS, emitted)
    else:
        _write_json(path, {"spec": descriptor, "rows": emitted})

    if failures:
        for failure in failures:
            print(f"selftest FAIL: {failure}", file=sys.stderr)
        return 2
    print(path)
    print("selftest ok")
    return 0


def _cmd_selftest(args):
    return run_selftest(out_dir=args.out, threads=args.threads, fmt=args.format)


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


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed")
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
        p = sub.add_parser(
            f"{kind}-sweep",
            help=f"{kind} extension sweep over (d, N, p) cells",
        )
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
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level, format="%(levelname)s %(name)s: %(message)s"
    )
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
