"""harmonic-lab benchmark: four CLI workloads, end to end and by module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dirichlet-growth --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each workload runs the ``harmonic-lab`` CLI from ``src/`` as fresh child
processes, one at a time (a closed loop with one client, ``--threads 1``),
so every run pays its cold work again.  ``--trace 0`` measures the children
untraced; ``--trace 1`` runs the workload once under ``tracing.py`` for the
per-module split.  Without ``--trace`` both modes run.  Every output is
checked (``checks.py``).  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

#: BLAS and OpenMP threads for the children (and this process); at most nproc
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (numpy must see the pinned thread count)

import checks  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".perfbench_run"

#: fresh set-up children per untraced run; setup_s is their median
SETUP_PROBES = 5

#: untraced workload children per run, at least, whatever ``--seconds`` says
MIN_CHILDREN = 2

#: no child may outlive this many seconds after the run started
RUN_DEADLINE_S = 170.0

SWEEP_GRID = dict(d_list=[2, 3], n_list=[8, 16, 32], p_list=[1.5, 2.0, 3.0], samples=10)


def _csv(values):
    return ",".join(f"{v:g}" for v in values)


def _sweep(kind):
    g = SWEEP_GRID
    argv = [
        f"{kind}-sweep", "--d", _csv(g["d_list"]), "--n-list", _csv(g["n_list"]),
        "--p-list", _csv(g["p_list"]), "--samples", str(g["samples"]),
    ]
    return argv, lambda path, ref: checks.check_sweep(path, kind, **g)


def _report(argv, check):
    def run_check(path, ref):
        with open(path, encoding="utf-8") as fh:
            return check(json.load(fh), ref)

    return argv + ["--format", "json"], run_check


#: workload name -> (CLI argv without seed and output options, output check)
WORKLOADS = {
    "dirichlet-growth": _sweep("dirichlet"),
    "neumann-growth": _sweep("neumann"),
    "kernel-mc": _report(
        ["kernel-report", "--d", "2", "--z-list", "1,3,10", "--L", "64", "--samples", "20000"],
        checks.check_kernel_report,
    ),
    "symbol-d3": _report(
        ["symbol-report", "--d", "3", "--l-list", "32,64,128"], checks.check_symbol_report
    ),
}

SETUP_CODE = "import sys\nfrom harmonic_lab import cli\ncli.build_parser().parse_args(sys.argv[1:])"


class Run:
    """One benchmark invocation: the child environment, scratch directory
    and deadline shared by every child it starts."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.src = os.path.abspath("src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.scratch = os.path.join(RUN_DIR, f"{workload}-seed{seed}-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self.children = 0

    def child(self, argv):
        """Run one child to completion: (wall seconds, peak RSS in MB, exit
        code, stdout and stderr text).  Peak RSS comes from this child's own
        rusage (os.wait4), not the high-water mark over all children."""
        self.children += 1
        log = os.path.join(self.scratch, f"child{self.children}.log")
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        with open(log, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode(errors="replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, text

    def cli_argv(self, out_dir):
        argv, _ = WORKLOADS[self.workload]
        return argv + ["--seed", str(self.seed), "--threads", "1", "--out", out_dir]

    def workload_child(self, prefix=("-m", "harmonic_lab.cli")):
        """One checked workload child: (wall, rss, failure messages)."""
        out_dir = os.path.join(self.scratch, f"out{self.children + 1}")
        wall, rss, code, text = self.child([*prefix, *self.cli_argv(out_dir)])
        failures = [] if code == 0 else [f"exit code {code}: {text.strip()[-2000:]}"]
        if code == 0:
            files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
            if len(files) != 1:
                failures.append(f"expected one output file, found {files}")
            else:
                _, check = WORKLOADS[self.workload]
                failures += check(os.path.join(out_dir, files[0]), checks.load_reference())
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, rss, failures

    def setup_probe(self):
        wall, _, code, text = self.child(["-c", SETUP_CODE, *self.cli_argv(self.scratch)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}: {text.strip()}")
        return wall

    def environment(self):
        """What the result depends on besides the code: recorded with it."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {
            "workload": self.workload,
            "argv": WORKLOADS[self.workload][0],
            "seed": self.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas['name']} {blas['version']}",
            "git_sha": _git_sha(),
        }


def _git_sha():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def tail_percentile(values):
    """(percentile, value) for the highest whole percentile that keeps at
    least ten samples above it, or None when fewer than 20 samples make
    every such percentile lower than the median."""
    n = len(values)
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if q < 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _describe(name, values, unit):
    line = f"  {name:<12} median {statistics.median(values):.4f} {unit}  (n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return line + "; no tail percentile below 20 samples)"
    return line + f"; p{tail[0]} {tail[1]:.4f} {unit})"


def measure_end_to_end(run, seconds):
    """Untraced children for ``seconds``: wall, peak RSS and set-up time."""
    env = run.environment()
    setup = [run.setup_probe() for _ in range(SETUP_PROBES)]
    walls, rss, failures = [], [], []
    start = time.perf_counter()
    # past the minimum, start a child only when one more of median length
    # still ends in time
    while len(walls) < MIN_CHILDREN or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, peak, problems = run.workload_child()
        walls.append(wall)
        rss.append(peak)
        failures.append(problems)
    failed = sum(1 for f in failures if f)
    print(f"workload {run.workload}  seed {run.seed}  untraced")
    print("  env " + json.dumps(env, sort_keys=True))
    print(_describe("wall_s", walls, "s"))
    print(_describe("setup_s", setup, "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    print(f"  {'fail_frac':<12} {failed}/{len(walls)} = {failed / len(walls):.4f} ratio")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return env, metrics, samples, failures


def measure_traced(run):
    """One untraced and one traced child: the per-module metrics."""
    env = run.environment()
    wall_plain, _, plain_failures = run.workload_child()
    spans_path = os.path.join(RUN_DIR, f"{run.workload}-seed{run.seed}.spans.json")
    wall_traced, _, traced_failures = run.workload_child(
        prefix=(os.path.join(BENCH_DIR, "tracing.py"), spans_path, "--")
    )
    metrics = {}
    if not traced_failures:
        with open(spans_path, encoding="utf-8") as fh:
            payload = json.loads(fh.readline())
            post_s = json.loads(fh.readline())["post_s"]
        metrics = {k: (v["value"], v["unit"]) for k, v in payload["metrics"].items()}
        metrics["trace.overhead_s"] = (wall_traced - post_s - wall_plain, "s")
    print(f"workload {run.workload}  seed {run.seed}  traced")
    print("  env " + json.dumps(env, sort_keys=True))
    modules = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    library = sum(v for k, v in modules.items() if k != "cli") or 1.0
    print("  split " + ", ".join(
        f"{m} {100.0 * v / library:.1f}%" for m, v in sorted(modules.items(), key=lambda kv: -kv[1]) if m != "cli"
    ))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    return env, metrics, {"wall_plain_s": [wall_plain], "wall_traced_s": [wall_traced]}, [plain_failures, traced_failures]


def run_one(workload, seed, seconds, traced):
    run = Run(workload, seed)
    try:
        env, metrics, samples, failures = measure_traced(run) if traced else measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    for problems in failures:
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
    failed = sum(1 for f in failures if f)
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = os.path.join(RUN_DIR, f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "result": result}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="harmonic-lab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0 untraced, 1 traced; both when omitted")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "harmonic_lab", "cli.py")):
        print("error: run from the root of a harmonic-lab checkout (src/harmonic_lab is missing)", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    ok = True
    for workload in workloads:
        for traced in modes:
            result = run_one(workload, args.seed, args.seconds, traced)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
