"""Tests of the benchmark's tracer, output checks and contract.

Run from the repository root with ``python -m pytest perfbench``.
"""

import copy
import csv
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
from harmonic_lab import boxes, cli, dyadic, halfspace, lattice, spectral, walks

MODULES = {"lattice": lattice, "spectral": spectral, "dyadic": dyadic, "halfspace": halfspace,
           "boxes": boxes, "walks": walks, "cli": cli}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_wrappers_reach_every_namespace_and_are_removed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for short, module in MODULES.items():
            for name in module.__all__:
                if inspect.isfunction(getattr(module, name)):
                    assert getattr(module, name).span_name == f"{short}.{name}"
        # names imported by other modules are rebound too
        assert cli.periodized_poisson_kernel.span_name == "halfspace.periodized_poisson_kernel"
        assert cli.tangential_angles.span_name == "halfspace.tangential_angles"
        assert cli.dirichlet_symbol.span_name == "spectral.dirichlet_symbol"
        assert walks.periodized_poisson_kernel.span_name == "halfspace.periodized_poisson_kernel"
        assert halfspace.forward_dft.span_name == "spectral.forward_dft"
        assert boxes.dirichlet_strip_solve.span_name == "halfspace.dirichlet_strip_solve"
    finally:
        tracer.uninstall()
    assert not hasattr(cli.periodized_poisson_kernel, "span_name")
    assert not hasattr(lattice.edge_gradients, "span_name")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["cli.main", 0.0, 10.0, -1],
        ["boxes.dirichlet_extension", 1.0, 4.0, 0],
        ["lattice.edge_gradients", 2.0, 3.0, 1],
        ["lattice.edge_gradients", 5.0, 6.0, 0],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_traced_sweep_counts_cells_gathers_and_residuals(tmp_path):
    code, tracer, _ = tracing.traced_main(
        ["dirichlet-sweep", "--d", "2,3", "--n-list", "4,8", "--p-list", "2,3",
         "--samples", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    metrics = {k: v for k, (v, _) in tracing.module_metrics(tracer, 0).items()}
    assert metrics["boxes.solves"] == 8
    assert metrics["lattice.gathers_per_cell"] == 6.0  # 3 edge sets for each of 2 exponents
    assert 0 < metrics["boxes.max_residual"] < 1e-9
    assert metrics["boxes.solve_cold_s"] > 0
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(total)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    tracer = tracing.Tracer()
    produced = {k: u for k, (_, u) in tracing.module_metrics(tracer, 0).items()}
    produced["trace.overhead_s"] = "s"  # added by run.py from the two wall times
    assert produced == declared


def test_traced_kernel_report_counts_walks_and_capped_attempts(tmp_path):
    code, tracer, capped = tracing.traced_main(
        ["kernel-report", "--d", "2", "--z-list", "1", "--L", "8", "--samples", "50",
         "--out", str(tmp_path)]
    )
    assert code == 0
    metrics = {k: v for k, (v, _) in tracing.module_metrics(tracer, capped).items()}
    assert metrics["walks.walks_simulated"] == 100
    assert metrics["walks.simulated_per_reported"] == 2.0
    assert metrics["halfspace.kernel_s"] > 0


def test_capped_walk_counter_reads_the_warning_counts():
    counter = tracing.CappedWalkCounter()
    logger = walks.logger
    logger.addHandler(counter)
    try:
        logger.warning("%d capped attempts while sampling %d walks (z=%d); each was resampled", 7, 10, 1)
        logger.warning("walk %d hit the %d-step cap on attempt %d; resampling", 1, 5, 0)
    finally:
        logger.removeHandler(counter)
    assert counter.capped == 7


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_sweep_check_rejects_perturbed_rows(tmp_path, capsys, kind):
    grid = dict(d_list=[2, 3], n_list=[4, 6], p_list=[2.0, 3.0], samples=2)
    assert cli.main([f"{kind}-sweep", "--d", "2,3", "--n-list", "4,6", "--p-list", "2,3",
                     "--samples", "2", "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.splitlines()[0]
    assert checks.check_sweep(path, kind, **grid) == []
    good = os.path.join(tmp_path, "good.csv")
    shutil.copy(path, good)

    def scale_tan(rows):
        # a consistent row (ratio recomputed) that the dense oracle refutes
        row = rows[1]
        tan, nor = float(row[5]) * 1.001, float(row[6])
        row[5], row[7] = repr(tan), repr(nor / tan if kind == "dirichlet" else tan / nor)

    _rewrite(path, scale_tan)
    assert any("dense solve" in f for f in checks.check_sweep(path, kind, **grid))

    shutil.copy(good, path)
    _rewrite(path, lambda rows: rows[2].__setitem__(7, repr(float(rows[2][7]) * 1.01)))
    assert any("quotient" in f for f in checks.check_sweep(path, kind, **grid))

    shutil.copy(good, path)
    _rewrite(path, lambda rows: rows.pop())
    assert checks.check_sweep(path, kind, **grid)


def _exact_kernel_payload(reference):
    ref = reference["kernel-mc"]
    blocks = []
    for want in ref["blocks"]:
        offsets = [{"offset": off, "mc_p": p, "mc_se": 0.0, "spectral_p": p, "continuum": c}
                   for off, p, c in want["offsets"]]
        blocks.append({"z": want["z"], "window": want["window"], "tv_mc_vs_spectral": 0.0,
                       "kernel_variation": want["kernel_variation"],
                       "out_of_window": 1.0 - sum(e["mc_p"] for e in offsets), "offsets": offsets})
    return {"command": "kernel-report", "d": ref["d"], "L": ref["L"],
            "n_samples": ref["n_samples"], "seed": 0, "blocks": blocks}


def test_kernel_check_rejects_mass_that_does_not_sum_to_one():
    reference = checks.load_reference()
    payload = _exact_kernel_payload(reference)
    assert checks.check_kernel_report(payload, reference) == []

    lost = copy.deepcopy(payload)
    lost["blocks"][1]["out_of_window"] -= 1e-4
    assert any("mass" in f for f in checks.check_kernel_report(lost, reference))

    unresolved = copy.deepcopy(payload)
    unresolved["blocks"][0]["out_of_window"] -= 0.01
    unresolved["blocks"][0]["unresolved"] = 0.01
    assert checks.check_kernel_report(unresolved, reference) == []

    drifted = copy.deepcopy(payload)
    drifted["blocks"][2]["offsets"][3]["spectral_p"] *= 1.0 + 1e-6
    assert checks.check_kernel_report(drifted, reference)

    noisy = copy.deepcopy(payload)
    noisy["blocks"][2]["tv_mc_vs_spectral"] = 0.2
    assert any("tv_mc_vs_spectral" in f for f in checks.check_kernel_report(noisy, reference))


def test_symbol_check_requires_bounds_and_reference_values():
    reference = checks.load_reference()
    payload = copy.deepcopy(reference["symbol-d3"])
    assert checks.check_symbol_report(payload, reference) == []

    broken = copy.deepcopy(payload)
    broken["blocks"][0]["dirichlet_glued"]["bound_ok"] = False
    assert any("bound fails" in f for f in checks.check_symbol_report(broken, reference))

    drifted = copy.deepcopy(payload)
    drifted["blocks"][2]["neumann_axis0"]["total_var"] *= 1.0 + 1e-6
    assert any("total_var" in f for f in checks.check_symbol_report(drifted, reference))


# ---------------------------------------------------------------------------
# reporting and the command contract
# ---------------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    q, value = run.tail_percentile([float(v) for v in range(100)])
    assert q == 90
    assert sum(1 for v in range(100) if v > value) == 10


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
