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

No module imports this one: the sweeps live in ``harmonic_lab.sweeps``,
the symbol report in ``spectral`` and the shared rules in the package.
Each command imports what it runs when it starts, argument types refuse
the values the library would, and output files are named by a CRC-32 of
the run descriptor, so importing this module and parsing the arguments
load only ``argparse``: no library module, no ``dataclasses``, ``logging``
or ``json``, no OpenSSL and no numpy.  A new command, such as a constant
report, goes in its own module, imported by its handler, and returns
rows for ``_emit``, which alone names, formats and writes every file.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import zlib

__all__ = ["run_kernel_report", "main"]

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

#: fields of each window entry of a kernel-report block, one row per offset
KERNEL_COLUMNS = ("offset", "mc_p", "mc_se", "spectral_p", "continuum")

#: peak bytes of a kernel report per entry of its (2L)^(d-1) kernel grid;
#: tracemalloc read 56-78 at d = 2 to 4
KERNEL_BYTES_PER_ENTRY = 80

#: peak bytes of a kernel report per walk and per dimension d; tracemalloc
#: read 57-70 per walk at d = 2, 70 at d = 3, 100 at d = 4 and 168 at d = 7
KERNEL_BYTES_PER_WALK_AXIS = 40

#: peak bytes of a kernel report per window offset of each z, whose row
#: the payload holds as a dict of Python floats and the CSV copies again;
#: tracemalloc read 590-700 (JSON) and 720-820 (CSV) at d = 4 to 6
KERNEL_BYTES_PER_OFFSET = 1024

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


def run_kernel_report(d, z_list, L, n_samples, seed=0):
    from . import cell_seed, refuse_over_budget, refuse_repeats

    refuse_repeats("z_list", z_list)
    window = min(8, L - 1)
    estimate = (KERNEL_BYTES_PER_ENTRY * (2 * L) ** (d - 1)
                + KERNEL_BYTES_PER_WALK_AXIS * d * n_samples
                + KERNEL_BYTES_PER_OFFSET * len(z_list) * (2 * window + 1) ** (d - 1))
    refuse_over_budget(f"kernel report d={d}, L={L}, samples={n_samples}", estimate)
    import numpy as np

    from . import walks
    from .halfspace import periodized_poisson_kernel

    for z in z_list:  # WalkConfig's own error for a bad z, before a seed is derived
        walks.WalkConfig(d, int(z))
    blocks = []
    # every window offset as a row, in the lexicographic order of the counts
    grid = np.indices((2 * window + 1,) * (d - 1)).reshape(d - 1, -1).T - window
    for z in z_list:
        z = int(z)
        cfg = walks.WalkConfig(d=d, z=z, seed=cell_seed(seed, d, z))
        kernel = periodized_poisson_kernel(z, d, L)
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


def _emit(out_dir, fmt, descriptor, payload, header, rows):
    """Write ``rows`` (columns ``header``) as CSV or ``payload`` as JSON, as
    ``fmt`` asks, to ``out_dir/<stem>_<crc32>.<fmt>``: the descriptor's
    command and the CRC-32 of its canonical JSON; returns the path."""
    import json

    def field(value):
        if isinstance(value, float):
            return repr(float(value))  # numpy floats repr as np.float64(...)
        return "" if value is None else str(value)

    canonical = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    stem = descriptor["command"].replace("-", "_")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}_{zlib.crc32(canonical.encode()):08x}.{fmt}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            for line in [header, *([row[c] for c in header] for row in rows)]:
                fh.write(",".join(map(field, line)) + "\n")
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def _sweep_descriptor(command, spec):
    return dict(command=command, d=list(spec.d_list), N=list(spec.n_list),
                p=list(spec.p_list), samples=spec.samples, seed=spec.seed,
                generator=spec.generator)


def _cmd_sweep(args, kind):
    from .sweeps import SweepSpec, run_sweep

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
    from . import refuse_repeats

    refuse_repeats("l_list", args.l_list)  # before spectral loads numpy
    from .spectral import run_symbol_report

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


def _cmd_selftest(args):
    from .sweeps import run_selftest

    spec, rows, failures = run_selftest(args.threads)
    descriptor = _sweep_descriptor("selftest", spec)
    path = _emit(args.out, args.format, descriptor, {"spec": descriptor, "rows": rows},
                 CSV_COLUMNS, rows)
    for failure in failures:
        print(f"selftest FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(path, "selftest ok", sep="\n")
    return 2 if failures else 0


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


def _int_at_least(low, refusal):
    """Argument type for an integer of at least ``low``; anything else is
    refused with ``refusal``, the library's own condition for the value."""

    def parse(text):
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{refusal}, got {text!r}")

    return parse


_seed = _int_at_least(0, "seed must be a non-negative integer")
_dimension = _int_at_least(2, "dimension must be an integer of at least 2")
_half_period = _int_at_least(1, "half-period must be a positive integer")
_sample_count = _int_at_least(1, "sample count must be a positive integer")
_thread_count = _int_at_least(1, "thread count must be a positive integer")
_half_period_list = _list_parser(_half_period, "half-period")


def _add_common(sub, seeded=True):
    if seeded:  # the self test runs at its own fixed seed
        sub.add_argument("--seed", type=_seed, default=0, help="master seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--threads", type=_thread_count, default=1, help="worker threads")
    sub.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="lowest level of log records written to stderr",
    )


def build_parser():
    from . import GENERATORS

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
    p.add_argument("--d", type=_dimension, default=2)
    p.add_argument("--z-list", type=_int_list, default=[1, 3, 10])
    p.add_argument("--L", type=_half_period, default=64)
    p.add_argument("--samples", type=_sample_count, default=20000)
    _add_common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("symbol-report", help="dyadic variation of multiplier symbols")
    p.add_argument("--d", type=_dimension, default=2)
    p.add_argument("--l-list", type=_half_period_list, default=[8, 16, 32])
    _add_common(p)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("selftest", help="deterministic pipeline check")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    import logging

    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
