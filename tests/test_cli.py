"""Sweep driver, report builders, and command line behavior."""

import collections
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from harmonic_lab import boxes, cli, halfspace, lattice, spectral, walks

import oracles


# ---------------------------------------------------------------------------
# spec and seeding
# ---------------------------------------------------------------------------


def test_sweep_spec_coerces_and_validates():
    spec = cli.SweepSpec(d_list=[2, 3], n_list=[4], p_list=[2], samples=1, seed=0)
    assert spec.d_list == (2, 3)
    assert spec.p_list == (2.0,)
    assert isinstance(spec.p_list[0], float)
    for kwargs in (
        dict(d_list=(1,), n_list=(4,), p_list=(2.0,), samples=1, seed=0),
        dict(d_list=(2,), n_list=(1,), p_list=(2.0,), samples=1, seed=0),
        dict(d_list=(2,), n_list=(4,), p_list=(1.0,), samples=1, seed=0),
        dict(d_list=(2,), n_list=(4,), p_list=(2.0,), samples=0, seed=0),
        dict(d_list=(), n_list=(4,), p_list=(2.0,), samples=1, seed=0),
        dict(d_list=(2,), n_list=(4,), p_list=(2.0,), samples=1, seed=0,
             generator="bogus"),
    ):
        with pytest.raises(ValueError):
            cli.SweepSpec(**kwargs)


def test_cell_seed_is_stable_and_spread():
    a = cli._cell_seed(7, 2, 8, 0)
    assert a == cli._cell_seed(7, 2, 8, 0)
    others = {
        cli._cell_seed(7, 2, 8, 1),
        cli._cell_seed(7, 2, 16, 0),
        cli._cell_seed(7, 3, 8, 0),
        cli._cell_seed(8, 2, 8, 0),
    }
    assert a not in others
    assert len(others) == 4
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------


def test_dirichlet_data_generators():
    rng = np.random.default_rng(0)
    g = cli._dirichlet_data("iid-gaussian", rng, 2, 4)
    assert g.shape == (5, 5)

    rng = np.random.default_rng(1)
    mode = cli._dirichlet_data("single-mode", rng, 2, 4)
    check = np.random.default_rng(1)
    k = check.integers(1, 4, size=2)
    h = math.pi / 4
    x, y = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    np.testing.assert_allclose(
        mode, np.cos(h * int(k[0]) * x + h * int(k[1]) * y), atol=1e-12
    )

    board = cli._dirichlet_data("checkerboard", np.random.default_rng(2), 2, 3)
    assert set(np.unique(board)) == {-1.0, 1.0}
    assert board[0, 0] == 1.0 and board[0, 1] == -1.0 and board[1, 1] == 1.0


def test_neumann_data_is_mean_free():
    for gen in ("iid-gaussian", "single-mode"):
        g = cli._neumann_data(gen, np.random.default_rng(3), 2, 4)
        assert g.shape == (len(lattice.normal_edges(2, 4)),)
        assert abs(g.mean()) < 1e-12
        assert np.abs(g).max() > 0


def test_neumann_checkerboard_degenerates_on_the_smallest_box():
    # every normal edge tail of the 2x2 box has odd coordinate sum, so the
    # centered pattern is identically zero
    with pytest.raises(ValueError, match="identically zero"):
        cli._neumann_data("checkerboard", np.random.default_rng(4), 2, 2)
    g = cli._neumann_data("checkerboard", np.random.default_rng(4), 2, 3)
    assert abs(g.mean()) < 1e-12


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _small_spec(**overrides):
    base = dict(
        d_list=(2,), n_list=(4, 8), p_list=(2.0, 3.0), samples=2, seed=11
    )
    base.update(overrides)
    return cli.SweepSpec(**base)


def test_dirichlet_sweep_rows_and_summary():
    spec = _small_spec()
    rows, summary = cli.run_dirichlet_sweep(spec)
    assert len(rows) == 1 * 2 * 2 * 2
    keys = [(r["d"], r["N"], r["p"], r["sample"]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r["seed"] == cli._cell_seed(11, r["d"], r["N"], r["sample"])
        assert r["ratio"] == pytest.approx(r["nor_norm"] / r["tan_norm"])
        assert r["runtime_ms"] >= 0.0
    assert set(summary) == {"d=2,p=2.0", "d=2,p=3.0"}
    block = summary["d=2,p=2.0"]
    assert set(block) == {"max_ratio_by_N", "growth"}
    assert set(block["max_ratio_by_N"]) == {"4", "8"}
    expected_growth = block["max_ratio_by_N"]["8"] / block["max_ratio_by_N"]["4"]
    assert block["growth"] == pytest.approx(expected_growth)


def test_neumann_sweep_ratio_direction():
    rows, summary = cli.run_neumann_sweep(
        _small_spec(n_list=(4,), p_list=(2.0,), samples=2)
    )
    assert len(rows) == 2
    for r in rows:
        assert r["ratio"] == pytest.approx(r["tan_norm"] / r["nor_norm"])
    assert list(summary) == ["d=2,p=2.0"]


def test_sweeps_are_thread_count_invariant():
    spec = _small_spec(samples=3)
    rows1, sum1 = cli.run_dirichlet_sweep(spec, threads=1)
    rows3, sum3 = cli.run_dirichlet_sweep(spec, threads=3)
    for rows in (rows1, rows3):
        for r in rows:
            r["runtime_ms"] = 0.0
    assert rows1 == rows3
    assert sum1 == sum3


@pytest.mark.parametrize("generator", ["single-mode", "checkerboard"])
def test_sweep_alternative_generators(generator):
    rows, _ = cli.run_dirichlet_sweep(
        _small_spec(n_list=(4,), p_list=(2.0,), samples=1, generator=generator)
    )
    assert len(rows) == 1
    assert rows[0]["tan_norm"] > 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_symbol_report_schema():
    payload = cli.run_symbol_report(2, (4, 8))
    assert payload["command"] == "symbol-report"
    assert payload["d"] == 2
    assert [b["L"] for b in payload["blocks"]] == [4, 8]
    for block in payload["blocks"]:
        for name in ("neumann_axis0", "dirichlet_glued"):
            metrics = block[name]
            assert set(metrics) == {
                "max_lvar",
                "total_var",
                "bound_factor",
                "bound_ok",
            }
            assert metrics["bound_factor"] == 4
            assert metrics["bound_ok"] is True
            assert metrics["max_lvar"] > 0
    stability = payload["stability"]
    assert stability["ok"] is True
    assert stability["max_lvar_spread"] >= 1.0


def _oracle_glued_dirichlet(d, L):
    """The glued Dirichlet symbol point by point: each frequency takes the
    symbol of the first axis with the largest absolute dyadic level."""
    angles = halfspace.tangential_angles(d, L)
    symbols = [spectral.dirichlet_symbol(i, angles, d) for i in range(d - 1)]
    freqs = oracles.index_values(L)
    glued = np.zeros((2 * L,) * (d - 1), dtype=complex)
    for pos in np.ndindex(glued.shape):
        k = [abs(oracles.level_of(int(freqs[j]))) for j in pos]
        glued[pos] = symbols[k.index(max(k))][pos]
    return glued


def _oracle_metrics(a, L):
    levels = [lv for lv in range(-8, 9) if oracles.rectangle_integers(lv, L)]
    max_lvar = max(
        oracles.brute_lvar(a, k, L)
        for k in itertools.product(levels, repeat=a.ndim)
    )
    return max_lvar, oracles.brute_total_variation(a, L)


def test_symbol_report_evaluates_each_symbol_once_and_matches_the_oracle(
    monkeypatch,
):
    d = 3
    calls = collections.Counter()
    f_symbol = spectral.f_symbol

    def counting(z):
        # f(lambda) over the whole (2L,)*(d-1) grid of one L
        calls[np.shape(z)] += 1
        return f_symbol(z)

    monkeypatch.setattr(spectral, "f_symbol", counting)
    payload = cli.run_symbol_report(d, (4, 8))
    assert calls == {(8, 8): 1, (16, 16): 1}

    for block in payload["blocks"]:
        L = block["L"]
        angles = halfspace.tangential_angles(d, L)
        symbols = {
            "neumann_axis0": spectral.neumann_symbol(0, angles, d),
            "dirichlet_glued": _oracle_glued_dirichlet(d, L),
        }
        for name, a in symbols.items():
            max_lvar, total_var = _oracle_metrics(a, L)
            got = block[name]
            assert got["max_lvar"] == pytest.approx(max_lvar, rel=1e-12, abs=1e-12)
            assert got["total_var"] == pytest.approx(total_var, rel=1e-12, abs=1e-12)
            assert got["bound_factor"] == 4 ** (d - 1)
            assert got["bound_ok"] is True


def test_kernel_report_schema():
    payload = cli.run_kernel_report(2, (1,), 16, 300, seed=5)
    assert payload["command"] == "kernel-report"
    assert payload["L"] == 16 and payload["n_samples"] == 300
    (block,) = payload["blocks"]
    assert block["z"] == 1
    assert block["window"] == 8
    assert len(block["offsets"]) == 17
    assert 0.0 <= block["tv_mc_vs_spectral"] <= 1.0
    assert block["kernel_variation"] > 0
    for entry in block["offsets"]:
        assert set(entry) == {"offset", "mc_p", "mc_se", "spectral_p", "continuum"}
        assert 0.0 <= entry["mc_p"] <= 1.0
        assert entry["spectral_p"] > 0.0
        assert entry["continuum"] > 0.0
    total_mc = sum(e["mc_p"] for e in block["offsets"])
    mass = total_mc + block["out_of_window"] + block["unresolved"]
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_kernel_report_window_shrinks_with_small_L():
    payload = cli.run_kernel_report(2, (1,), 4, 50, seed=1)
    assert payload["blocks"][0]["window"] == 3


def test_kernel_report_simulates_each_block_once(monkeypatch):
    simulate = walks._simulate_block
    stream_chunks = walks._cdf_chunks
    calls = collections.Counter()
    passes = collections.Counter()

    def counted(cfg, gen, below):
        # block b's Philox stream carries b in the second counter word
        block = int(gen.bit_generator.state["state"]["counter"][1])
        calls[cfg.z, block] += 1
        return simulate(cfg, gen, below)

    def counted_chunks(z, cap, *rest):
        passes[z] += 1
        return stream_chunks(z, cap, *rest)

    monkeypatch.setattr(walks, "_simulate_block", counted)
    monkeypatch.setattr(walks, "_cdf_chunks", counted_chunks)
    walks._simulate_exits.cache_clear()
    payload = cli.run_kernel_report(2, (1, 3), 16, 5000)
    nblocks = -(-5000 // walks.BLOCK)
    assert calls == {(z, b): 1 for z in (1, 3) for b in range(nblocks)}
    assert passes == {1: 1, 3: 1}
    for block in payload["blocks"]:
        assert block["unresolved"] >= 0.0


# ---------------------------------------------------------------------------
# serialization and file naming
# ---------------------------------------------------------------------------


def test_csv_writer_formats(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        {"d": 2, "N": 4, "p": 2.0, "sample": 0, "seed": 9, "tan_norm": 0.1,
         "nor_norm": 1.5, "ratio": None, "runtime_ms": 0.0},
    ]
    cli._write_csv_lines(path, cli.CSV_COLUMNS, rows)
    text = path.read_text().splitlines()
    assert text[0] == "d,N,p,sample,seed,tan_norm,nor_norm,ratio,runtime_ms"
    assert text[1] == "2,4,2.0,0,9,0.1,1.5,,0.0"
    assert len(text) == 2


def test_output_path_uses_a_content_hash(tmp_path):
    desc = {"command": "dirichlet-sweep", "seed": 3}
    p1 = cli._output_path(str(tmp_path), "dirichlet-sweep", desc, "csv")
    p2 = cli._output_path(str(tmp_path), "dirichlet-sweep", desc, "csv")
    assert p1 == p2
    name = p1.rsplit("/", 1)[1]
    assert re.fullmatch(r"dirichlet_sweep_[0-9a-f]{8}\.csv", name)
    p3 = cli._output_path(str(tmp_path), "dirichlet-sweep", {"seed": 4}, "csv")
    assert p3 != p1


def test_spec_hash_is_key_order_independent():
    assert cli._spec_hash({"a": 1, "b": 2}) == cli._spec_hash({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# command line entry
# ---------------------------------------------------------------------------


def test_main_symbol_report(tmp_path, capsys):
    rc = cli.main(
        ["symbol-report", "--d", "2", "--l-list", "4,8", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(str(tmp_path))
    assert "stability" in out[1]


def test_main_sweep_writes_csv(tmp_path, capsys):
    rc = cli.main(
        [
            "dirichlet-sweep",
            "--d", "2",
            "--n-list", "4",
            "--p-list", "2",
            "--samples", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    path = capsys.readouterr().out.splitlines()[0]
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2
    name = path.rsplit("/", 1)[1]
    assert re.fullmatch(r"dirichlet_sweep_[0-9a-f]{8}\.csv", name)


def test_main_sweep_json_format(tmp_path, capsys):
    rc = cli.main(
        [
            "neumann-sweep",
            "--d", "2",
            "--n-list", "4",
            "--p-list", "2",
            "--samples", "1",
            "--format", "json",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    path = capsys.readouterr().out.splitlines()[0]
    payload = json.load(open(path))
    assert set(payload) == {"spec", "rows", "summary"}
    assert payload["spec"]["generator"] == "iid-gaussian"
    assert len(payload["rows"]) == 1


def test_report_csv_rows_equal_the_json_payload(tmp_path, capsys):
    def written(args, fmt):
        assert cli.main([*args, "--format", fmt, "--out", str(tmp_path)]) == 0
        return open(capsys.readouterr().out.splitlines()[0]).read()

    kernel = ["kernel-report", "--d", "3", "--z-list", "1,3", "--L", "8",
              "--samples", "2000"]
    payload = json.loads(written(kernel, "json"))
    lines = written(kernel, "csv").splitlines()
    assert lines[0] == "z,offset,mc_p,mc_se,spectral_p,continuum"
    entries = [(b["z"], e) for b in payload["blocks"] for e in b["offsets"]]
    assert len(lines) == 1 + len(entries) > 1
    for line, (z, entry) in zip(lines[1:], entries):
        cells = line.split(",")
        assert int(cells[0]) == z
        assert [int(v) for v in cells[1].split(";")] == entry["offset"]
        for cell, name in zip(cells[2:], ("mc_p", "mc_se", "spectral_p", "continuum")):
            assert float(cell) == entry[name]

    symbol = ["symbol-report", "--d", "3", "--l-list", "4,8"]
    payload = json.loads(written(symbol, "json"))
    lines = written(symbol, "csv").splitlines()
    assert lines[0] == "L,symbol,max_lvar,total_var,bound_ok"
    names = ("neumann_axis0", "dirichlet_glued")
    blocks = [(b["L"], name, b[name]) for b in payload["blocks"] for name in names]
    assert len(lines) == 1 + len(blocks)
    for line, (L, name, block) in zip(lines[1:], blocks):
        cells = line.split(",")
        assert (int(cells[0]), cells[1]) == (L, name)
        assert float(cells[2]) == block["max_lvar"]
        assert float(cells[3]) == block["total_var"]
        assert cells[4] == str(block["bound_ok"])


def test_main_error_paths(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    rc = cli.main(["symbol-report", "--threads", "0", "--out", str(tmp_path)])
    assert rc == 1
    # runtime failures are reported, not raised
    rc = cli.main(["kernel-report", "--d", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _run_console(args, tmp_path):
    """Run the CLI entry point in a fresh interpreter, as the console
    script does, so the logging configuration starts from scratch."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from harmonic_lab.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def test_log_level_reaches_the_debug_records(tmp_path):
    args = [
        "dirichlet-sweep",
        "--d", "2",
        "--n-list", "4",
        "--samples", "1",
        "--generator", "single-mode",
    ]
    loud = _run_console([*args, "--log-level", "DEBUG"], tmp_path)
    assert loud.returncode == 0, loud.stderr
    assert "DEBUG harmonic_lab.cli: single-mode wave vector" in loud.stderr
    quiet = _run_console(args, tmp_path)
    assert quiet.returncode == 0, quiet.stderr
    assert quiet.stderr == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--log-level", "TRACE", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_no_command_loads_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running both sweeps,
    both reports and the self test leaves every scipy module unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = str(tmp_path)
    code = f"""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
seen = {{}}
from harmonic_lab.cli import main
seen["import"] = loaded()
commands = {{
    "dirichlet-sweep": ["--d", "2,3", "--n-list", "4", "--samples", "1"],
    "neumann-sweep": ["--d", "2,3", "--n-list", "4", "--samples", "1"],
    "symbol-report": ["--d", "2", "--l-list", "8"],
    "kernel-report": ["--d", "2", "--z-list", "1", "--L", "8", "--samples", "100"],
    "selftest": ["--threads", "2"],
}}
for name, args in commands.items():
    assert main([name, *args, "--out", {out!r}]) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert all(modules == [] for modules in seen.values()), seen


def _modules_loaded_by(argv):
    """In a fresh interpreter, import the CLI, parse ``argv`` and run it;
    returns the library and thread-pool modules loaded after the parse
    (none) and after the run, having checked that every submodule still
    resolves from the package on first access."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"""
import json, sys
def loaded():
    names = ["harmonic_lab." + m for m in
             ("boxes", "dyadic", "halfspace", "lattice", "spectral", "walks")]
    return sorted(m for m in names + ["concurrent.futures"] if m in sys.modules)
seen = {{}}
from harmonic_lab import cli
args = {argv!r}
cli.build_parser().parse_args(args)
seen["parse"] = loaded()
assert cli.main(args) == 0
seen["run"] = loaded()
import harmonic_lab
seen["boxes"] = harmonic_lab.boxes.dirichlet_extension.__name__
try:
    harmonic_lab.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
print(json.dumps(seen))
"""
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["parse"] == []
    assert seen["boxes"] == "dirichlet_extension"
    assert "nope" in seen["nope"]
    return seen["run"]


def test_symbol_report_loads_only_the_modules_it_runs(tmp_path):
    """Parsing a symbol-report command line loads no box, walk or
    thread-pool module; running it loads the symbol modules alone, and every
    submodule still resolves from the package on first access."""
    argv = ["symbol-report", "--d", "3", "--l-list", "4,8", "--out", str(tmp_path)]
    assert _modules_loaded_by(argv) == ["harmonic_lab.dyadic", "harmonic_lab.spectral"]


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_a_sweep_loads_only_the_box_and_lattice_modules(tmp_path, kind):
    """A sweep runs on the gradient operators: it loads neither the strip
    solvers of halfspace nor their spectral layer, and one thread loads no
    thread pool."""
    argv = [f"{kind}-sweep", "--d", "2,3", "--n-list", "4", "--samples", "2",
            "--out", str(tmp_path)]
    assert _modules_loaded_by(argv) == ["harmonic_lab.boxes", "harmonic_lab.lattice"]


def test_a_flux_inside_a_chunk_names_its_sample(monkeypatch):
    spec = _small_spec(n_list=(8,), p_list=(2.0,), samples=5)
    assert boxes._BLOCK // 7**2 >= spec.samples  # one chunk holds all five
    generate = cli._neumann_data

    def with_flux(generator, rng, d, N):
        g = generate(generator, rng, d, N)
        if rng.bit_generator.seed_seq.entropy == cli._cell_seed(spec.seed, d, N, 3):
            g[0] += 0.1
        return g

    monkeypatch.setattr(cli, "_neumann_data", with_flux)
    with pytest.raises(RuntimeError, match=r"cell d=2 N=8 sample=3 failed: .*flux"):
        cli.run_neumann_sweep(spec)


def test_selftest_reports_an_operator_that_disagrees_with_the_extension(
    tmp_path, capsys, monkeypatch
):
    build = boxes.neumann_operator

    def skewed(d, N):
        apply = build(d, N)
        return lambda g: tuple(grads * (1.0 + 1e-9) for grads in apply(g))

    monkeypatch.setattr(boxes, "neumann_operator", skewed)
    assert cli.run_selftest(out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "selftest FAIL: neumann operator and extension gradients differ" in err
    assert "at d=2 N=8" in err
    assert "dirichlet operator" not in err


def test_selftest_passes_and_is_reproducible(tmp_path, capsys):
    rc = cli.run_selftest(out_dir=str(tmp_path / "a"), threads=2)
    assert rc == 0
    path_a = capsys.readouterr().out.splitlines()[0]
    rc = cli.run_selftest(out_dir=str(tmp_path / "b"), threads=4)
    assert rc == 0
    path_b = capsys.readouterr().out.splitlines()[0]
    bytes_a = open(path_a, "rb").read()
    bytes_b = open(path_b, "rb").read()
    assert bytes_a == bytes_b
    lines = bytes_a.decode().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 3  # two sweeps, two sizes, three samples
    assert all(line.endswith(",0.0") for line in lines[1:])
