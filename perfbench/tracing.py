"""Outside-in tracing of one harmonic-lab CLI run, by module.

Every function in each module's ``__all__`` is wrapped, and the wrapper is
rebound in every ``harmonic_lab`` namespace that holds the original, so calls
through names imported elsewhere (``cli`` imports ``periodized_poisson_kernel``
by name, ``halfspace`` imports the spectral DFTs) are traced too.  A span is
(name, start, end, parent); spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its children.

Run as a script, it traces one CLI invocation in this process and writes the
per-module metrics and the spans as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py OUT.json -- kernel-report --d 2
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import sys
import time

import numpy as np

MODULES = ("lattice", "spectral", "dyadic", "halfspace", "boxes", "walks", "cli")

SOLVERS = ("boxes.dirichlet_extension", "boxes.neumann_extension")
SAMPLERS = ("walks.mc_exit_array", "walks.poisson_kernel_mc")
SYMBOLS = ("spectral.dirichlet_symbol", "spectral.neumann_symbol")

# self-time groups named by the per-module metrics
EDGE_SETS = ("lattice.tangential_edges", "lattice.normal_edges", "lattice.full_edge_set", "lattice.boundary_vertices")
SYMBOL_FUNCS = SYMBOLS + ("spectral.lambda_symbol", "spectral.q_symbol", "spectral.f_symbol", "spectral.principal_sqrt")
VARIATION = ("dyadic.local_variation", "dyadic.total_variation", "dyadic.alpha_difference", "dyadic.glue_local_symbols")


def _solver_key(a, result):
    if "f" in a:
        return (a["f"].ndim, a["f"].shape[0] - 1, result)
    return (int(a["d"]), int(a["N"]), result)


def _symbol_key(a, result):
    return (int(a["i"]), np.shape(a["t"]))


#: per traced name, what to keep from each call (bound arguments, result);
#: evaluated after the span closes
OBSERVE = {
    "lattice.edge_gradients": lambda a, r: len(a["edges"]),
    "boxes.dirichlet_extension": _solver_key,
    "boxes.neumann_extension": _solver_key,
    "walks.mc_exit_array": lambda a, r: (a["cfg"].z, a["n_samples"]),
    "walks.poisson_kernel_mc": lambda a, r: (a["cfg"].z, a["n_samples"]),
    "spectral.dirichlet_symbol": _symbol_key,
    "spectral.neumann_symbol": _symbol_key,
    "cli.run_kernel_report": lambda a, r: r["n_samples"] * len(r["blocks"]),
}


class Tracer:
    """Span recorder.  ``install`` rebinds the wrappers, ``uninstall``
    restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.observed = {}  # name -> [(span index, kept value)]
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        observe = OBSERVE.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                kept = observe(bound.arguments, result)
                self.observed.setdefault(name, []).append((index, kept))
            return result

        traced.span_name = name
        return traced

    def install(self):
        modules = [importlib.import_module(f"harmonic_lab.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class CappedWalkCounter(logging.Handler):
    """Sums the capped attempts that ``harmonic_lab.walks`` reports in its
    'capped attempts while sampling' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.capped = 0

    def emit(self, record):
        if "capped attempts" in str(record.msg):
            self.capped += int(record.args[0])


def max_interior_residual(u):
    """Largest |sum of neighbours - 2d * centre| over the interior of a box
    array, computed here rather than by ``harmonic_lab.lattice``."""
    d = u.ndim
    core = (slice(1, -1),) * d
    acc = -2.0 * d * u[core]
    for axis in range(d):
        for lo, hi in ((0, -2), (2, None)):
            sl = list(core)
            sl[axis] = slice(lo, hi)
            acc = acc + u[tuple(sl)]
    return float(np.abs(acc).max())


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def module_metrics(tracer, capped):
    """The per-module metrics of one traced run.  A metric whose layer the
    workload does not reach reads 0."""
    own = tracer.self_times()
    by_name = {}
    by_module = dict.fromkeys(MODULES, 0.0)
    for (name, *_), t in zip(tracer.spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        by_module[name.split(".")[0]] += t

    def self_s(names):
        return sum(by_name.get(n, 0.0) for n in names)

    solves = sorted(
        (i, key) for name in SOLVERS for i, key in tracer.observed.get(name, [])
    )
    cold, warm, seen, residual = 0.0, [], set(), 0.0
    for i, (d, N, u) in solves:
        if (d, N) in seen:
            warm.append(own[i] * 1e3)
        else:
            seen.add((d, N))
            cold += own[i]
        residual = max(residual, max_interior_residual(u))

    gathers = [n for _, n in tracer.observed.get("lattice.edge_gradients", [])]
    sampled = [k for name in SAMPLERS for k in tracer.observed.get(name, [])]
    first_call, zs = 0.0, set()
    for i, (z, _) in sorted(sampled):
        if z not in zs:
            zs.add(z)
            first_call += own[i]
    simulated = sum(n for _, (_, n) in sampled)
    reported = sum(n for _, n in tracer.observed.get("cli.run_kernel_report", []))
    symbols = [(name, key) for name in SYMBOLS for _, key in tracer.observed.get(name, [])]
    distinct = len(set(symbols))

    metrics = {f"{m}.self_s": (by_module[m], "s") for m in MODULES if m != "cli"}
    metrics.update({
        "lattice.edge_sets_s": (self_s(EDGE_SETS), "s"),
        "lattice.edge_gradients_s": (self_s(["lattice.edge_gradients"]), "s"),
        "lattice.edges_gathered": (sum(gathers), "count"),
        "lattice.gathers_per_cell": (len(gathers) / len(solves) if solves else 0.0, "ratio"),
        "boxes.solve_cold_s": (cold, "s"),
        "boxes.solve_warm_ms_p50": (_percentile(warm, 50), "ms"),
        "boxes.solve_warm_ms_p90": (_percentile(warm, 90), "ms"),
        "boxes.solves": (len(solves), "count"),
        "boxes.max_residual": (residual, "abs"),
        "walks.sample_s": (self_s(SAMPLERS), "s"),
        "walks.first_call_s": (first_call, "s"),
        "walks.walks_simulated": (simulated, "count"),
        "walks.simulated_per_reported": (simulated / reported if reported else 0.0, "ratio"),
        "walks.capped_attempts": (capped, "count"),
        "halfspace.kernel_s": (self_s(["halfspace.periodized_poisson_kernel"]), "s"),
        "spectral.symbol_s": (self_s(SYMBOL_FUNCS), "s"),
        "spectral.symbol_evals": (len(symbols), "count"),
        "spectral.symbol_evals_per_distinct": (len(symbols) / distinct if distinct else 0.0, "ratio"),
        "spectral.dft_s": (self_s(["spectral.forward_dft", "spectral.inverse_dft"]), "s"),
        "dyadic.variation_s": (self_s(VARIATION), "s"),
        "dyadic.rectangles": (sum(1 for span in tracer.spans if span[0] == "dyadic.local_variation"), "count"),
        "cli.self_s": (by_module["cli"], "s"),
    })
    return metrics


def traced_main(argv):
    """Run ``harmonic_lab.cli.main(argv)`` under a fresh tracer; returns
    (exit code, tracer, capped walk attempts)."""
    from harmonic_lab import cli

    tracer = Tracer()
    counter = CappedWalkCounter()
    walks_logger = logging.getLogger("harmonic_lab.walks")
    walks_logger.addHandler(counter)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        walks_logger.removeHandler(counter)
    return code, tracer, counter.capped


def main(args):
    out, sep, *argv = args
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- CLI-ARGS...")
    code, tracer, capped = traced_main(argv)
    # post_s is the time spent here after the traced run, which the caller
    # subtracts when it takes the tracing overhead from wall times
    returned = time.perf_counter()
    payload = {
        "exit_code": code,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in module_metrics(tracer, capped).items()},
        "spans": tracer.spans,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
        json.dump({"post_s": time.perf_counter() - returned}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
