"""Sweep driver, report builders, and command line behavior."""

import ast
import collections
import importlib
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import harmonic_lab
from harmonic_lab import boxes, cli, halfspace, lattice, spectral, sweeps, walks

import oracles


# ---------------------------------------------------------------------------
# spec and seeding
# ---------------------------------------------------------------------------


def test_sweep_spec_coerces_and_validates():
    spec = sweeps.SweepSpec(d_list=[2, 3], n_list=[4], p_list=[2], samples=1, seed=0)
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
            sweeps.SweepSpec(**kwargs)
    # a repeated value would solve one cell again and repeat its rows; 2 and
    # 2.0 are the same exponent once coerced
    for name, kwargs in (
        ("d_list", dict(d_list=(2, 3, 2), n_list=(4,), p_list=(2.0,))),
        ("n_list", dict(d_list=(2,), n_list=(4, 4), p_list=(2.0,))),
        ("p_list", dict(d_list=(2,), n_list=(4,), p_list=(2, 3.0, 2.0))),
    ):
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            sweeps.SweepSpec(**kwargs, samples=1, seed=0)
    # a count is an integer, not a float that int() would truncate, and the
    # seed is a non-negative integer
    for kwargs in (
        dict(n_list=(4.7,), samples=1, seed=0),
        dict(d_list=(2.0,), samples=1, seed=0),
        dict(samples=2.5, seed=0),
        dict(samples=1, seed=1.5),
        dict(samples=1, seed=-1),
    ):
        with pytest.raises((TypeError, ValueError)):
            sweeps.SweepSpec(**{**dict(d_list=(2,), n_list=(4,), p_list=(2.0,)), **kwargs})
    spec = sweeps.SweepSpec(d_list=(np.int64(2),), n_list=[4], p_list=[2], samples=np.int64(3),
                            seed=np.uint64(5))
    assert (spec.d_list, spec.samples, spec.seed) == ((2,), 3, 5)
    assert all(type(v) is int for v in (*spec.d_list, spec.samples, spec.seed))


def test_cell_seed_is_stable_and_spread():
    a = harmonic_lab.cell_seed(7, 2, 8, 0)
    assert a == harmonic_lab.cell_seed(7, 2, 8, 0)
    others = {
        harmonic_lab.cell_seed(7, 2, 8, 1),
        harmonic_lab.cell_seed(7, 2, 16, 0),
        harmonic_lab.cell_seed(7, 3, 8, 0),
        harmonic_lab.cell_seed(8, 2, 8, 0),
    }
    assert a not in others
    assert len(others) == 4
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------


def test_dirichlet_data_generators():
    vertices = lattice.boundary_vertices(2, 4)
    g = sweeps._dirichlet_data("iid-gaussian", np.random.default_rng(0), vertices, 4)
    assert g.shape == (len(vertices),) == (16,)

    mode = sweeps._dirichlet_data("single-mode", np.random.default_rng(1), vertices, 4)
    check = np.random.default_rng(1)
    k = check.integers(1, 4, size=2)
    h = math.pi / 4
    x, y = vertices.T
    np.testing.assert_allclose(
        mode, np.cos(h * int(k[0]) * x + h * int(k[1]) * y), atol=1e-12
    )

    vertices = lattice.boundary_vertices(2, 3)
    board = sweeps._dirichlet_data("checkerboard", np.random.default_rng(2), vertices, 3)
    assert set(np.unique(board)) == {-1.0, 1.0}
    at = dict(zip(map(tuple, vertices.tolist()), board))
    assert at[(0, 0)] == 1.0 and at[(0, 1)] == -1.0 and at[(3, 3)] == 1.0


@pytest.mark.parametrize("generator", harmonic_lab.GENERATORS)
def test_dirichlet_data_is_the_full_box_field_on_the_boundary(generator):
    """Each generator's boundary row equals, byte for byte, the whole-box
    field of the reference at the boundary vertices; for iid-gaussian this
    pins the stream of the cell seed as well."""
    cases = [(2, 4), (3, 5), (4, 3), (2, 2), (3, 2), (5, 3)]
    for (d, N), seed in itertools.product(cases, (11, 12)):
        got = sweeps._dirichlet_data(
            generator, np.random.default_rng(seed), lattice.boundary_vertices(d, N), N
        )
        field = oracles.full_box_dirichlet_data(
            generator, np.random.default_rng(seed), d, N
        )
        want = field[tuple(np.array(oracles.boundary_vertices(d, N)).T)]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_iid_gaussian_data_holds_one_slab_of_the_box_at_a_time():
    """The stream is a draw of the whole box (checked against it above),
    made one axis-0 slab at a time: at (3, 128) the boundary row is 0.8 MB
    and one slab 0.13 MB, while the whole box is 17 MB."""
    vertices = lattice.boundary_vertices(3, 128)
    rng = np.random.default_rng(0)
    peak = _traced_peak(lambda: sweeps._dirichlet_data("iid-gaussian", rng, vertices, 128))
    assert peak < 4 * 2**20


def test_neumann_data_is_mean_free():
    for gen in ("iid-gaussian", "single-mode"):
        g = sweeps._neumann_data(gen, np.random.default_rng(3), lattice.normal_edges(2, 4), 4)
        assert g.shape == (len(lattice.normal_edges(2, 4)),)
        assert abs(g.mean()) < 1e-12
        assert np.abs(g).max() > 0


def test_neumann_checkerboard_degenerates_on_the_smallest_box():
    # every normal edge tail of the 2x2 box has odd coordinate sum, so the
    # centered pattern is identically zero
    with pytest.raises(ValueError, match="identically zero"):
        sweeps._neumann_data("checkerboard", np.random.default_rng(4), lattice.normal_edges(2, 2), 2)
    g = sweeps._neumann_data("checkerboard", np.random.default_rng(4), lattice.normal_edges(2, 3), 3)
    assert abs(g.mean()) < 1e-12


def test_neumann_single_mode_rounding_residue_is_identically_zero(tmp_path, capsys):
    # sample 1 of (2,3) draws the wave vector (2,2), whose cosine is -1/2 on
    # every normal edge tail up to rounding: the centered data is rounding
    # residue (1.1e-15), not a flux
    rng = np.random.default_rng(harmonic_lab.cell_seed(0, 2, 3, 1))
    with pytest.raises(ValueError, match="identically zero"):
        sweeps._neumann_data("single-mode", rng, lattice.normal_edges(2, 3), 3)
    argv = ["neumann-sweep", "--d", "2", "--n-list", "3", "--generator",
            "single-mode", "--samples", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "sample=1 failed: generated normal data is identically zero" in err


@pytest.mark.parametrize("d", [2, 4])
def test_neumann_single_mode_at_n_2_is_refused_for_even_d(tmp_path, capsys, d):
    # N=2 forces the wave vector (1,...,1); for even d the cosine is 0 on
    # every normal edge tail, so the data is rounding residue (max|g| 1e-16)
    # that the rounding bound n eps sum|raw| scales with and lets through
    argv = ["neumann-sweep", "--d", str(d), "--n-list", "2", "--generator",
            "single-mode", "--samples", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "sample=0 failed: generated normal data is identically zero" in err
    assert list(tmp_path.iterdir()) == []
    argv[2] = "3"  # tails at phase 0 and pi: cos is 1 and -1
    assert cli.main(argv) == 0


def test_neumann_single_mode_refuses_exactly_the_constant_cosines():
    """The refusal reads the integer phases m = tails . k mod 2N: cos(pi m/N)
    takes one value exactly when min(m, 2N - m) does.  So every refused draw
    is rounding residue around a constant, and every accepted one spreads
    over at least 1 - cos(pi/12), the smallest gap between two values of
    cos(pi m/N) at N <= 12, with its values unchanged."""
    cells = [(2, N) for N in range(2, 13)] + [(3, N) for N in range(2, 9)] + [(4, 2), (4, 3)]
    refused = 0
    for d, N in cells:
        edges = lattice.normal_edges(d, N)
        for sample in range(6):
            seed = harmonic_lab.cell_seed(0, d, N, sample)
            k = np.random.default_rng(seed).integers(1, N, size=d)
            raw = np.cos(edges[:, 0].astype(float) @ (math.pi / N * k.astype(float)))
            spread = raw.max() - raw.min()
            try:
                g = sweeps._neumann_data("single-mode", np.random.default_rng(seed), edges, N)
            except ValueError as exc:
                assert "identically zero" in str(exc) and spread < 1e-14
                refused += 1
            else:
                assert spread > 1.0 - math.cos(math.pi / 12)
                assert g.tobytes() == (raw - raw.mean()).tobytes()
    assert refused > 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _small_spec(**overrides):
    base = dict(
        d_list=(2,), n_list=(4, 8), p_list=(2.0, 3.0), samples=2, seed=11
    )
    base.update(overrides)
    return sweeps.SweepSpec(**base)


def test_dirichlet_sweep_rows_and_summary():
    spec = _small_spec()
    rows, summary = sweeps.run_sweep("dirichlet", spec)
    assert len(rows) == 1 * 2 * 2 * 2
    keys = [(r["d"], r["N"], r["p"], r["sample"]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r["seed"] == harmonic_lab.cell_seed(11, r["d"], r["N"], r["sample"])
        assert r["ratio"] == pytest.approx(r["nor_norm"] / r["tan_norm"])
        assert r["runtime_ms"] >= 0.0
    assert set(summary) == {"d=2,p=2.0", "d=2,p=3.0"}
    block = summary["d=2,p=2.0"]
    assert set(block) == {"max_ratio_by_N", "growth"}
    assert set(block["max_ratio_by_N"]) == {"4", "8"}
    expected_growth = block["max_ratio_by_N"]["8"] / block["max_ratio_by_N"]["4"]
    assert block["growth"] == pytest.approx(expected_growth)


def test_a_large_exponent_gives_finite_norms_between_its_neighbours(tmp_path, capsys):
    argv = ["dirichlet-sweep", "--d", "2", "--n-list", "8", "--samples", "2",
            "--p-list", "2,700,1000,inf", "--format", "json", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    path, *printed = capsys.readouterr().out.splitlines()
    assert "d=2,p=1000.0: growth=1.0" in printed
    rows = {(r["p"], r["sample"]): r for r in json.load(open(path))["rows"]}
    for sample in (0, 1):
        row = rows[1000.0, sample]
        for norm in ("tan_norm", "nor_norm"):
            assert math.isfinite(row[norm])
            assert rows[math.inf, sample][norm] <= row[norm] <= rows[700.0, sample][norm]
        assert row["ratio"] == pytest.approx(row["nor_norm"] / row["tan_norm"])


def test_neumann_sweep_ratio_direction():
    rows, summary = sweeps.run_sweep(
        "neumann", _small_spec(n_list=(4,), p_list=(2.0,), samples=2)
    )
    assert len(rows) == 2
    for r in rows:
        assert r["ratio"] == pytest.approx(r["tan_norm"] / r["nor_norm"])
    assert list(summary) == ["d=2,p=2.0"]


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_sweeps_are_thread_count_invariant(kind):
    # the (3, 32) cell spans three chunks, which the pool runs on one shared
    # operator, with more workers than cores and frequent thread switches;
    # the others are a chunk each
    assert sweeps._BLOCK // 31**3 == 2
    spec = _small_spec(d_list=(2, 3), n_list=(4, 8, 32), samples=5)
    rows1, sum1 = sweeps.run_sweep(kind, spec, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows3, sum3 = sweeps.run_sweep(kind, spec, threads=3)
    finally:
        sys.setswitchinterval(interval)
    for rows in (rows1, rows3):
        for r in rows:
            r["runtime_ms"] = 0.0
    assert rows1 == rows3
    assert sum1 == sum3


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_each_sweep_cell_is_built_once(monkeypatch, kind):
    """A cell's operator is built once however many chunks it spans, and its
    edge and vertex sets are built as often at one sample as at five."""
    assert sweeps._BLOCK // 31**3 == 2  # five samples of (3, 32): three chunks
    calls = collections.Counter()
    for module, name in [(boxes, "gradient_operator"), (lattice, "boundary_vertices"),
                         (lattice, "normal_edges")]:
        def counted(*args, build=getattr(module, name), name=name):
            calls[(name,) + args[-2:]] += 1  # keyed by (d, N)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    counts = []
    for samples in (1, 5):
        calls.clear()
        sweeps.run_sweep(kind, _small_spec(d_list=(3,), n_list=(4, 32), samples=samples), threads=2)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    built = {key[1:]: n for key, n in counts[1].items() if key[0] == "gradient_operator"}
    assert built == {(3, 4): 1, (3, 32): 1}
    assert {key[1:] for key in counts[1]} == {(3, 4), (3, 32)}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_holds_only_the_cells_in_flight(monkeypatch, threads):
    """A cell is built when its first chunk is due and released after its
    last, so eight d=3 cells peak no higher than the two largest alone; a
    sweep that held every cell read 1.41 times as much.  Once a chunk has
    finished, each build waits for the chunks of every earlier cell, so the
    peak reads what the sweep keeps, not how a build overlaps them."""
    done, built, idle = [0], [0], threading.Condition()
    chunk_rows, build = sweeps._chunk_rows, boxes.gradient_operator

    def counted_chunk(*args):
        rows = chunk_rows(*args)
        with idle:
            done[0] += 1
            idle.notify_all()
        return rows

    def build_when_idle(kind, d, N):
        with idle:
            assert idle.wait_for(lambda: done[0] in (0, built[0]), timeout=60)
            built[0] += 1
        return build(kind, d, N)

    monkeypatch.setattr(sweeps, "_chunk_rows", counted_chunk)
    monkeypatch.setattr(boxes, "gradient_operator", build_when_idle)

    def peak(n_list):
        done[0] = built[0] = 0  # one chunk per cell at one sample
        spec = _small_spec(d_list=(3,), n_list=n_list, p_list=(2.0,), samples=1)
        return _traced_peak(lambda: sweeps.run_sweep("dirichlet", spec, threads))

    sweeps.run_sweep("dirichlet", _small_spec(d_list=(3,), n_list=(4,)), threads)  # imports
    assert peak(tuple(range(20, 49, 4))) <= 1.15 * peak((44, 48))


@pytest.mark.parametrize("generator", ["single-mode", "checkerboard"])
def test_sweep_alternative_generators(generator):
    rows, _ = sweeps.run_sweep(
        "dirichlet", _small_spec(n_list=(4,), p_list=(2.0,), samples=1, generator=generator)
    )
    assert len(rows) == 1
    assert rows[0]["tan_norm"] > 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_symbol_report_schema():
    payload = spectral.run_symbol_report(2, (4, 8))
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
    """One, two and three tangential axes; L = 1 and L that are not powers
    of two give singleton and uneven dyadic segments.  f(lambda) is
    evaluated on whole axis-0 rows, block by block, and on every entry of
    each grid exactly once, at the default block size and at one of a few
    rows."""
    from harmonic_lab import dyadic

    shapes = []
    f_symbol = spectral.f_symbol

    def counting(z):
        shapes.append(np.shape(z))
        return f_symbol(z)

    monkeypatch.setattr(spectral, "f_symbol", counting)
    cases = [(2, (1, 3, 8)), (3, (4, 8)), (4, (1, 3, 4))]
    for block_entries, (d, l_list) in itertools.product((dyadic.BLOCK_ENTRIES, 5), cases):
        monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", block_entries)
        shapes.clear()
        payload = spectral.run_symbol_report(d, l_list)
        for L in l_list:
            # the calls of one grid, in order, until they cover its entries
            covered = 0
            while covered < (2 * L) ** (d - 1):
                shape = shapes.pop(0)
                assert len(shape) == d - 1 and shape[1:] == (2 * L,) * (d - 2)
                covered += math.prod(shape)
            assert covered == (2 * L) ** (d - 1)
        assert shapes == []
        assert [block["L"] for block in payload["blocks"]] == list(l_list)

        for block in payload["blocks"]:
            L = block["L"]
            angles = halfspace.tangential_angles(d, L)
            symbols = {
                "neumann_axis0": oracles.neumann_symbol(0, angles, d),
                "dirichlet_glued": _oracle_glued_dirichlet(d, L),
            }
            for name, a in symbols.items():
                max_lvar, total_var = _oracle_metrics(a, L)
                got = block[name]
                assert got["max_lvar"] == pytest.approx(max_lvar, rel=1e-12, abs=1e-12)
                assert got["total_var"] == pytest.approx(
                    total_var, rel=1e-12, abs=1e-12
                )
                assert got["bound_factor"] == 4 ** (d - 1)
                assert got["bound_ok"] is True


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,L", [(3, 128), (3, 512), (4, 32)])
def test_symbol_report_peak_memory_per_grid_entry(d, L):
    """The report reads its grid a block of axis-0 rows at a time, so its
    peak does not grow with the grid: measured 1.4, 3.4 and 3.4 MiB here,
    where the whole-grid report held about 73 bytes per entry (4.6, 73 and
    18 MiB)."""
    spectral.run_symbol_report(d, (2,))  # imports and first-call set-up
    peak = _traced_peak(lambda: spectral.run_symbol_report(d, (L,)))
    assert peak <= 6 * 2**20


def test_symbol_report_refuses_an_over_budget_grid_before_allocating(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["symbol-report", "--d", "6", "--l-list", "64", "--out", str(out)]
    codes = []
    peak = _traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: symbol grid d=6, L=64 needs about")
    assert "MiB budget" in err[0]
    assert not out.exists()
    assert peak < 2**20


def test_a_sweep_refuses_an_over_budget_cell_before_building_any(tmp_path, capsys, monkeypatch):
    """The (4, 64) cell's estimate passes the budget, so either sweep is
    refused at once, before its first cell, (2, 8), is built."""
    built = []
    monkeypatch.setattr(boxes, "_box_maps", lambda d, N: built.append((d, N)))
    out = tmp_path / "out"
    for kind in ("dirichlet", "neumann"):
        argv = [f"{kind}-sweep", "--d", "2,4", "--n-list", "8,64", "--samples", "1",
                "--out", str(out)]
        codes, started = [], time.perf_counter()
        peak = _traced_peak(lambda: codes.append(cli.main(argv)))
        assert codes == [1] and time.perf_counter() - started < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep cell d=4, N=64 needs about")
        assert err[0].endswith("MiB, above the 2048 MiB budget")
        assert peak < 2**20
    assert built == [] and not out.exists()


def test_a_kernel_report_over_the_budget_is_refused_before_allocating(tmp_path, capsys):
    """The estimate, cli.KERNEL_BYTES_PER_ENTRY per entry of the (2L)^(d-1)
    kernel grid plus cli.KERNEL_BYTES_PER_WALK_AXIS per walk and dimension
    (above the 57-100 bytes per walk tracemalloc read at d = 2 to 4) plus
    cli.KERNEL_BYTES_PER_OFFSET per window offset of each z, is checked
    before any kernel or walk is built: the 2 GiB budget refuses d=3,
    L=4096 (whose kernel alone took 1 GiB), d=4, L=256, 10^8 walks at d=2
    (about 5.7 GB) and d=7, L=8, whose 15^6 window rows would take several
    GB, and admits d=3, L=1024 and the 20,000 and 100,000 walks of the
    benchmark and the largest checked run; the command writes no file."""
    for d, L, n in [(3, 4096, 10), (4, 256, 10), (2, 8, 10**8), (7, 8, 10)]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=rf"^kernel report d={d}, L={L}, samples={n} needs about"):
                cli.run_kernel_report(d, [1], L, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    out = tmp_path / "out"
    argv = ["kernel-report", "--d", "3", "--z-list", "1", "--L", "4096", "--samples", "10",
            "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel report d=3, L=4096, samples=10 needs about")
    assert err.endswith("MiB, above the 2048 MiB budget\n")
    assert not out.exists()
    argv = ["kernel-report", "--d", "7", "--z-list", "1", "--L", "8", "--samples", "10",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: kernel report d=7, L=8, samples=10 needs")
    assert not out.exists()
    assert cli.KERNEL_BYTES_PER_ENTRY * (2 * 1024) ** 2 <= harmonic_lab.MEMORY_BUDGET
    for d, per_walk in [(2, 70.3), (3, 69.7), (4, 99.7)]:
        assert cli.KERNEL_BYTES_PER_WALK_AXIS * d > per_walk
    for d, L, n in [(2, 64, 20000), (2, 32, 100000)]:
        estimate = cli.KERNEL_BYTES_PER_ENTRY * (2 * L) ** (d - 1)
        assert estimate + cli.KERNEL_BYTES_PER_WALK_AXIS * d * n < harmonic_lab.MEMORY_BUDGET // 100


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_kernel_estimate_covers_the_window_rows(tmp_path, fmt):
    """At d = 4 and 5 the window rows, not the kernel grid, set a kernel
    report's peak (traced 6.9-8.1 MiB at d=4, L=9 with two heights against
    a grid and walk term of 0.46 MiB); the estimate stays above the peak of
    the whole command, CSV and JSON both."""
    cases = [(4, 9, [1, 2]), (5, 4, [1, 2, 3])]
    for d, L, z_list in cases:
        argv = ["kernel-report", "--d", str(d), "--z-list", ",".join(map(str, z_list)),
                "--L", str(L), "--samples", "100", "--format", fmt, "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        window = min(8, L - 1)
        estimate = (cli.KERNEL_BYTES_PER_ENTRY * (2 * L) ** (d - 1)
                    + cli.KERNEL_BYTES_PER_WALK_AXIS * d * 100
                    + cli.KERNEL_BYTES_PER_OFFSET * len(z_list) * (2 * window + 1) ** (d - 1))
        assert peak < estimate


def test_the_budget_refusals_share_one_message_form():
    """A sweep cell, a symbol grid and a kernel report over the budget are
    refused through ``refuse_over_budget``, each naming what it refuses."""
    refusals = [
        (lambda: sweeps._refuse_over_budget(4, 64), "sweep cell d=4, N=64"),
        (lambda: spectral.grid_symbols(6, 64), "symbol grid d=6, L=64"),
        (lambda: cli.run_kernel_report(3, [1], 4096, 10), "kernel report d=3, L=4096, samples=10"),
    ]
    for refuse, subject in refusals:
        with pytest.raises(ValueError) as exc:
            refuse()
        assert re.fullmatch(r"(.+) needs about \d+ MiB, above the 2048 MiB budget", str(exc.value))
        assert str(exc.value).startswith(f"{subject} needs about ")


def test_kernel_report_checks_each_height_before_seeding_it(tmp_path, capsys):
    """A start height out of range gets the walk's own error, before any
    seed is derived from it or any block runs, and no file is written."""
    out = tmp_path / "out"
    for z_list, z in [("-2", -2), ("0", 0), ("1,1023", 1023)]:
        argv = ["kernel-report", "--d", "2", "--z-list", z_list, "--L", "8",
                "--samples", "100", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: start height must be in [1, 1022], got {z}\n"
    assert not out.exists()


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


def test_kernel_report_d3_block_matches_independent_tallies():
    d, L, n = 3, 8, 3000
    payload = cli.run_kernel_report(d, (1, 4), L, n)
    offsets = list(itertools.product(range(-7, 8), repeat=2))
    for z, block in zip((1, 4), payload["blocks"]):
        assert block["z"] == z and block["window"] == 7
        cfg = walks.WalkConfig(d=d, z=z, seed=harmonic_lab.cell_seed(0, d, z))
        exits, unresolved = walks._simulate_exits(cfg, n)
        tally = collections.Counter(
            tuple(row) for row in exits[~unresolved].tolist() if max(map(abs, row)) <= 7
        )
        kernel = halfspace.periodized_poisson_kernel(z, d, L)
        assert [e["offset"] for e in block["offsets"]] == [list(o) for o in offsets]
        for off, entry in zip(offsets, block["offsets"]):
            p = tally[off] / n
            assert entry["mc_p"] == p
            assert entry["mc_se"] == math.sqrt(p * (1.0 - p) / n)
            assert entry["spectral_p"] == kernel[off[0] % (2 * L), off[1] % (2 * L)]
            want = float(walks.continuum_kernel(np.array(off, dtype=float), z, d))
            assert entry["continuum"] == pytest.approx(want, rel=1e-15, abs=0)
        assert block["unresolved"] == int(unresolved.sum()) / n
        out = n - sum(tally.values()) - int(unresolved.sum())
        assert block["out_of_window"] == out / n
    assert out > 0  # z=4 spreads past the window


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


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("zero", ["tan", "nor"])
def test_a_row_whose_denominator_norm_is_zero_has_no_ratio(tmp_path, kind, zero):
    """The ratio is nor/tan (Dirichlet) or tan/nor (Neumann): None, written
    as an empty CSV field, where the denominator's norm is 0, and 0.0 where
    the numerator's is; shown with a stub operator whose tan or nor rows
    are zero."""
    d, N = 2, 4
    spec = sweeps.SweepSpec((d,), (N,), (2.0, math.inf), samples=2, seed=0)
    points = (lattice.boundary_vertices if kind == "dirichlet" else lattice.normal_edges)(d, N)

    def stub(batch):
        grads = {"tan": np.zeros((len(batch), 3)), "nor": np.full((len(batch), 4), -0.5)}
        if zero == "nor":
            grads = {"tan": grads["nor"], "nor": grads["tan"]}
        return grads["tan"], grads["nor"]

    rows = sweeps._chunk_rows(kind, spec, d, N, range(2), (stub, points))
    no_ratio = (zero == "tan") == (kind == "dirichlet")
    assert [(row["sample"], row["p"]) for row in rows] == [
        (0, 2.0), (0, math.inf), (1, 2.0), (1, math.inf)
    ]
    assert [row[f"{zero}_norm"] for row in rows] == [0.0] * 4
    assert [row["ratio"] for row in rows] == [None if no_ratio else 0.0] * 4
    path = cli._emit(str(tmp_path), "csv", {"command": "rows"}, None, cli.CSV_COLUMNS, rows)
    with open(path, encoding="utf-8") as fh:
        fields = [line.split(",")[7] for line in fh.read().splitlines()[1:]]
    assert fields == ["" if no_ratio else "0.0"] * 4


class _Unnamed(dict):
    """A descriptor whose command reads "stem" but is no key of it, so it
    hashes as the plain dict of its keys."""

    def __missing__(self, key):
        return "stem"


def _emitted(out_dir, fmt, descriptor, payload=None, header=(), rows=()):
    """Name and bytes of the file ``cli._emit`` writes."""
    path = cli._emit(str(out_dir), fmt, descriptor, payload, header, rows)
    with open(path, "rb") as fh:
        return os.path.basename(path), fh.read()


def test_csv_writer_formats(tmp_path):
    """``_emit``'s bytes: a CSV field is the repr of a float (a numpy float
    too), empty for None and str otherwise, each line ends in one newline;
    the JSON is indented by 2 with sorted keys and one trailing newline."""
    rows = [
        {"d": 2, "N": 4, "p": 2.0, "sample": 0, "seed": 9, "tan_norm": 0.1,
         "nor_norm": 1.5, "ratio": None, "runtime_ms": 0.0},
        {"d": 3, "N": 8, "p": math.inf, "sample": 1, "seed": 2**64 - 1,
         "tan_norm": np.float64(1 / 3), "nor_norm": np.float64(2.5), "ratio": 7.5,
         "runtime_ms": 1.25},
    ]
    descriptor = _Unnamed(b=2, a=1)
    name, data = _emitted(tmp_path, "csv", descriptor, None, cli.CSV_COLUMNS, rows)
    assert name == "stem_cf41ce83.csv"
    assert data == (
        b"d,N,p,sample,seed,tan_norm,nor_norm,ratio,runtime_ms\n"
        b"2,4,2.0,0,9,0.1,1.5,,0.0\n"
        b"3,8,inf,1,18446744073709551615,0.3333333333333333,2.5,7.5,1.25\n"
    )
    payload = {"spec": {"seed": 9, "command": "x"}, "rows": [{"b": None, "a": 0.5}], "ok": True}
    name, data = _emitted(tmp_path, "json", descriptor, payload)
    assert name == "stem_cf41ce83.json"
    assert data == (
        b'{\n  "ok": true,\n  "rows": [\n    {\n      "a": 0.5,\n      "b": null\n    }\n'
        b'  ],\n  "spec": {\n    "command": "x",\n    "seed": 9\n  }\n}\n'
    )


def test_output_path_uses_a_content_hash(tmp_path):
    desc = {"command": "dirichlet-sweep", "seed": 3}
    p1 = cli._emit(str(tmp_path), "csv", desc, None, (), ())
    p2 = cli._emit(str(tmp_path), "csv", desc, None, (), ())
    assert p1 == p2
    name = p1.rsplit("/", 1)[1]
    assert re.fullmatch(r"dirichlet_sweep_[0-9a-f]{8}\.csv", name)
    p3 = cli._emit(str(tmp_path), "csv", {"command": "dirichlet-sweep", "seed": 4}, None, (), ())
    assert p3 != p1


def test_spec_hash_is_key_order_independent(tmp_path):
    assert _emitted(tmp_path, "csv", {"command": "c", "a": 1, "b": 2})[0] == (
        _emitted(tmp_path, "csv", {"b": 2, "a": 1, "command": "c"})[0]
    )


def test_spec_hash_is_the_crc32_of_the_canonical_descriptor(tmp_path):
    # CRC-32 of the bytes {"a":1,"b":2}, as the gzip trailer of them gives it
    assert _emitted(tmp_path, "csv", _Unnamed(b=2, a=1))[0] == "stem_cf41ce83.csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["dirichlet-sweep", "--d", "2", "--n-list", "4", "--samples", "1"],
        ["neumann-sweep", "--d", "2", "--n-list", "4", "--samples", "1"],
        ["kernel-report", "--d", "2", "--z-list", "1", "--L", "8", "--samples", "100"],
        ["symbol-report", "--d", "2", "--l-list", "8", "--format", "json"],
        ["selftest"],
    ],
)
def test_every_command_names_its_output_by_stem_and_spec_hash(tmp_path, argv):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    stem = argv[0].replace("-", "_")
    (name,) = os.listdir(tmp_path)
    assert re.fullmatch(rf"{stem}_[0-9a-f]{{8}}\.(csv|json)", name)


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["symbol-report", "--threads", "0", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "thread count must be a positive integer, got '0'" in capsys.readouterr().err
    # runtime failures are reported, not raised
    rc = cli.main(["kernel-report", "--z-list", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert "error: start height must be in" in capsys.readouterr().err
    # a negative seed is refused while the arguments are parsed
    for command, seed in [("dirichlet-sweep", "-1"), ("neumann-sweep", "-1"),
                          ("kernel-report", "-1"), ("symbol-report", "-1")]:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", seed, "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
    # the self test runs at its own fixed seed and takes none
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--seed", "7", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # so are a half-period below 1, a report dimension below 2 and a
    # kernel sample count below 1
    for argv, message in [
        (["kernel-report", "--L", "0"], "half-period must be a positive integer, got '0'"),
        (["kernel-report", "--L", "-1"], "half-period must be a positive integer, got '-1'"),
        (["symbol-report", "--l-list", "8,0"], "half-period must be a positive integer, got '0'"),
        (["kernel-report", "--d", "1"], "dimension must be an integer of at least 2, got '1'"),
        (["symbol-report", "--d", "1"], "dimension must be an integer of at least 2, got '1'"),
        (["kernel-report", "--samples", "0"], "sample count must be a positive integer, got '0'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
    # a NaN exponent compares False with 1, and is refused before any cell runs
    argv = ["dirichlet-sweep", "--d", "2", "--n-list", "4,8", "--p-list", "nan",
            "--samples", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "every exponent must exceed 1" in capsys.readouterr().err
    # a repeated value is refused before any cell runs
    argv = ["dirichlet-sweep", "--d", "2,2", "--n-list", "4,4", "--p-list", "2,2",
            "--samples", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "d_list repeats a value: (2, 2)" in capsys.readouterr().err
    # so is a repeated kernel offset or half-period, before any block runs
    for argv, message in [
        (["kernel-report", "--z-list", "1,3,1", "--L", "8"], "z_list repeats a value: (1, 3, 1)"),
        (["symbol-report", "--l-list", "4,4"], "l_list repeats a value: (4, 4)"),
    ]:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _fresh_python(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def _run_console(args, tmp_path):
    """Run the CLI entry point in a fresh interpreter, as the console
    script does, so the logging configuration starts from scratch."""
    code = "import sys; from harmonic_lab.cli import main; sys.exit(main())"
    return _fresh_python(code, *args, "--out", str(tmp_path))


@pytest.mark.parametrize("command", ["dirichlet-sweep", "selftest"])
def test_running_the_module_as_a_script_loads_it_once(tmp_path, command):
    """``python -m harmonic_lab.cli`` runs the module as ``__main__``; no
    module it then imports imports ``cli``, so no second copy is compiled
    and run under the package name."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["--d", "2", "--n-list", "4", "--samples", "1"] if command != "selftest" else []
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "harmonic_lab.cli", command, *args,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "harmonic_lab.sweeps" in imported
    assert "harmonic_lab.cli" not in imported


def test_no_library_module_imports_the_command_line():
    """The rules the commands share live in the package, so no module but
    ``cli`` imports ``cli``, and ``cli`` registers nothing in
    ``sys.modules``; ``MEMORY_BUDGET`` is compared in the package's
    ``refuse_over_budget`` alone, which only the modules that keep an
    estimate call: ``cli`` (the kernel report), ``spectral`` (the symbol
    grid) and ``sweeps`` (the sweep cell); ``boxes`` only builds operators."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    importers, compared, callers = [], [], set()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                targets = []
            importers += [name for target in targets if "cli" in target.split(".")]
            if isinstance(node, ast.Compare) and "'MEMORY_BUDGET'" in ast.dump(node):
                compared.append(name)
            if isinstance(node, ast.Call) and "refuse_over_budget" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                callers.add(name)
        if name == "cli.py":
            assert "sys.modules" not in source
    assert importers == [] and compared == ["__init__.py"]
    assert sorted(callers) == ["cli.py", "spectral.py", "sweeps.py"]


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
    assert "DEBUG harmonic_lab.sweeps: single-mode wave vector" in loud.stderr
    quiet = _run_console(args, tmp_path)
    assert quiet.returncode == 0, quiet.stderr
    assert quiet.stderr == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--log-level", "TRACE", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_no_command_loads_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running both sweeps,
    both reports and the self test leaves every scipy module unloaded."""
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
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert all(modules == [] for modules in seen.values()), seen


def _modules_loaded_by(argv):
    """In a fresh interpreter, import numpy, then import the CLI, parse
    ``argv`` and run it; returns the library and thread-pool modules loaded
    after the run, and which of OpenSSL's binding ``_hashlib``,
    ``numpy.random`` and ``numpy.fft`` it loaded beyond what ``import numpy``
    loads by itself.  Parsing loads none of either kind (numpy itself is
    loaded first here, so ``test_parsing_loads_no_numpy`` checks it), and
    every submodule still resolves from the package on first access."""
    code = f"""
import json, sys
import numpy
own = set(sys.modules)
def loaded():
    names = ["harmonic_lab." + m for m in
             ("boxes", "dyadic", "halfspace", "lattice", "spectral", "sweeps", "walks")]
    return sorted(m for m in names + ["concurrent.futures"] if m in sys.modules)
def footprint():
    names = ["_hashlib", "numpy.fft", "numpy.random"]
    return [m for m in names if m in sys.modules and m not in own]
seen = {{}}
from harmonic_lab import cli
args = {argv!r}
cli.build_parser().parse_args(args)
seen["parse"] = loaded() + footprint()
assert cli.main(args) == 0
seen["run"] = loaded()
seen["footprint"] = footprint()
import harmonic_lab
seen["boxes"] = harmonic_lab.boxes.gradient_operator.__name__
try:
    harmonic_lab.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
print(json.dumps(seen))
"""
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["parse"] == []
    assert seen["boxes"] == "gradient_operator"
    assert "nope" in seen["nope"]
    return seen["run"], seen["footprint"]


def test_symbol_report_loads_only_the_modules_it_runs(tmp_path):
    """Parsing a symbol-report command line loads no box, walk, sweep or
    thread-pool module; running it loads the symbol modules alone, and
    neither OpenSSL (it draws no random numbers and names its output by
    CRC-32) nor the FFT, and every submodule still resolves from the package
    on first access."""
    argv = ["symbol-report", "--d", "3", "--l-list", "4,8", "--out", str(tmp_path)]
    assert _modules_loaded_by(argv) == (
        ["harmonic_lab.dyadic", "harmonic_lab.spectral"], []
    )


def test_kernel_report_loads_only_the_modules_it_runs(tmp_path):
    """A kernel report runs the walks and the half-space kernel: the strip
    solvers' zero-flux check stays unloaded with the box and sweep
    modules."""
    argv = ["kernel-report", "--d", "2", "--z-list", "1,3", "--L", "8",
            "--samples", "200", "--out", str(tmp_path)]
    assert _modules_loaded_by(argv)[0] == [
        "harmonic_lab.halfspace", "harmonic_lab.spectral", "harmonic_lab.walks"
    ]


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_a_sweep_loads_only_the_box_and_lattice_modules(tmp_path, kind):
    """A sweep runs in the sweep module on the gradient operators: it loads
    neither the strip solvers of halfspace nor their spectral layer nor the
    FFT, and one thread loads no thread pool.  What numpy.random pulls in is
    numpy's."""
    argv = [f"{kind}-sweep", "--d", "2,3", "--n-list", "4", "--samples", "2",
            "--out", str(tmp_path)]
    modules, footprint = _modules_loaded_by(argv)
    assert modules == ["harmonic_lab.boxes", "harmonic_lab.lattice", "harmonic_lab.sweeps"]
    assert "numpy.fft" not in footprint


def test_parsing_loads_no_numpy():
    """In a fresh interpreter, importing the CLI and parsing a command line
    of every command or asking for help adds no numpy, no sweep module and
    none of dataclasses, inspect, logging or json to what the interpreter
    had loaded before (site preloads some modules); each command imports
    what it runs when it starts.  Validating a sweep spec loads no numpy."""
    argvs = [
        ["dirichlet-sweep", "--d", "2,3", "--n-list", "4,8", "--p-list", "2,inf",
         "--samples", "2", "--generator", "single-mode"],
        ["neumann-sweep", "--generator", "checkerboard", "--threads", "2"],
        ["kernel-report", "--d", "3", "--z-list", "1,4", "--L", "16", "--samples", "500"],
        ["symbol-report", "--d", "3", "--l-list", "32,64", "--format", "json"],
        ["selftest", "--threads", "4", "--log-level", "DEBUG"],
    ]
    helps = [["--help"]] + [[argv[0], "--help"] for argv in argvs]
    code = f"""
import sys
before = set(sys.modules)
import contextlib, io
from harmonic_lab import cli
for argv in {argvs!r}:
    cli.build_parser().parse_args(argv)
for argv in {helps!r}:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 0, argv
    else:
        raise AssertionError(argv)
parsed = sorted(set(sys.modules) - before)
import json
from harmonic_lab.sweeps import SweepSpec
SweepSpec((2, 3), (4, 8), (2.0, float("inf")), 2, 0, "single-mode")
print(json.dumps([parsed, sorted(m for m in sys.modules if m.split(".")[0] == "numpy")]))
"""
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    parsed, numpy_modules = json.loads(run.stdout.splitlines()[-1])
    watched = {"harmonic_lab.sweeps", "dataclasses", "inspect", "logging", "json"}
    assert watched.isdisjoint(parsed), parsed
    assert not [m for m in parsed if m.split(".")[0] == "numpy"], parsed
    assert numpy_modules == []


def test_an_argument_error_returns_before_numpy_loads(tmp_path):
    """A spec the sweep refuses, a repeated list value, a thread count,
    report dimension, half-period or sample count that the parser refuses
    and a kernel report over the memory budget, by its grid, its walks or
    its window rows, each exit with code 1 before numpy is imported, and
    write no file."""
    argvs = [
        ["dirichlet-sweep", "--d", "1"],
        ["neumann-sweep", "--n-list", "4,4"],
        ["dirichlet-sweep", "--threads", "0"],
        ["symbol-report", "--threads", "0"],
        ["kernel-report", "--z-list", "1,1"],
        ["symbol-report", "--l-list", "4,4"],
        ["kernel-report", "--samples", "0"],
        ["kernel-report", "--L", "0"],
        ["kernel-report", "--d", "1"],
        ["symbol-report", "--d", "1"],
        ["symbol-report", "--l-list", "0"],
        ["kernel-report", "--d", "3", "--z-list", "1", "--L", "4096"],
        ["kernel-report", "--d", "2", "--z-list", "1", "--L", "8", "--samples", "100000000"],
        ["kernel-report", "--d", "7", "--z-list", "1", "--L", "8", "--samples", "10"],
    ]
    code = f"""
import json, sys
from harmonic_lab import cli
def run(argv):
    try:
        return cli.main([*argv, "--out", {str(tmp_path)!r}])
    except SystemExit as exc:
        return exc.code
codes = [run(argv) for argv in {argvs!r}]
print(json.dumps([codes, "numpy" in sys.modules]))
"""
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [[1] * len(argvs), False]
    assert "z_list repeats a value: (1, 1)" in run.stderr
    assert "l_list repeats a value: (4, 4)" in run.stderr
    assert "kernel report d=3, L=4096, samples=20000 needs about" in run.stderr
    assert "kernel report d=2, L=8, samples=100000000 needs about" in run.stderr
    assert "kernel report d=7, L=8, samples=10 needs about" in run.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "name", ["lattice", "spectral", "dyadic", "halfspace", "boxes", "walks", "cli", "sweeps"]
)
def test_every_public_name_resolves_once(name):
    """The benchmark tracer looks up every ``__all__`` entry with getattr,
    so a stale or repeated entry would break every traced run."""
    module = importlib.import_module(f"harmonic_lab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert callable(getattr(module, attr)), attr


def test_a_flux_inside_a_chunk_names_its_sample(monkeypatch):
    spec = _small_spec(n_list=(8,), p_list=(2.0,), samples=5)
    assert sweeps._BLOCK // 7**2 >= spec.samples  # one chunk holds all five
    generate = sweeps._neumann_data

    def with_flux(generator, rng, edges, N):
        g = generate(generator, rng, edges, N)
        if rng.bit_generator.seed_seq.entropy == harmonic_lab.cell_seed(spec.seed, 2, N, 3):
            g[0] += 0.1
        return g

    monkeypatch.setattr(sweeps, "_neumann_data", with_flux)
    with pytest.raises(RuntimeError, match=r"cell d=2 N=8 sample=3 failed: .*flux"):
        sweeps.run_sweep("neumann", spec)


def test_a_pool_raises_the_first_failing_chunk_and_logs_the_others(monkeypatch, caplog):
    spec = _small_spec(n_list=(4, 8), p_list=(2.0,), samples=1)
    both_running = threading.Barrier(2, timeout=60)

    def failing(generator, rng, vertices, N):
        both_running.wait()  # each cell's one chunk fails while the other runs
        raise ValueError(f"no data at N={N}")

    monkeypatch.setattr(sweeps, "_dirichlet_data", failing)
    with caplog.at_level(logging.ERROR, logger="harmonic_lab.sweeps"):
        with pytest.raises(RuntimeError, match=r"^cell d=2 N=4 sample=0 failed: no data at N=4$"):
            sweeps.run_sweep("dirichlet", spec, threads=2)
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.ERROR, "cell d=2 N=8 sample=0 failed: no data at N=8")
    ]


@pytest.mark.parametrize("kind,other", [("dirichlet", "neumann"), ("neumann", "dirichlet")])
def test_selftest_reports_an_operator_that_fails_the_certificate(
    tmp_path, capsys, monkeypatch, kind, other
):
    build = boxes.gradient_operator

    def skewed(which, d, N):
        apply = build(which, d, N)
        if which != kind:
            return apply
        return lambda data: tuple(grads * (1.0 + 1e-9) for grads in apply(data))

    monkeypatch.setattr(boxes, "gradient_operator", skewed)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"selftest FAIL: {kind} operator misses exact harmonic gradients" in err
    assert "at d=2 N=8" in err
    assert f"{other} operator" not in err


def test_selftest_certifies_the_operators_at_d_3_and_4(tmp_path, capsys, monkeypatch):
    build = boxes.gradient_operator

    def skewed(kind, d, N):
        apply = build(kind, d, N)
        if d < 3:
            return apply
        return lambda data: tuple(grads * (1.0 + 1e-9) for grads in apply(data))

    monkeypatch.setattr(boxes, "gradient_operator", skewed)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 2
    fails = capsys.readouterr().err.splitlines()
    for kind in ("dirichlet", "neumann"):
        named = [line for line in fails if line.startswith(f"selftest FAIL: {kind} operator")]
        assert [line.rsplit(" at ", 1)[1] for line in named] == ["d=3 N=4", "d=4 N=4"]
    assert len(fails) == 4


def test_selftest_compares_a_pool_at_its_default_thread_count(
    tmp_path, capsys, monkeypatch
):
    chunk_rows = sweeps._chunk_rows

    def skewed_off_main(kind, spec, d, N, samples, cell):
        rows = chunk_rows(kind, spec, d, N, samples, cell)
        if threading.current_thread() is not threading.main_thread():
            for row in rows:
                row["tan_norm"] *= 1.0 + 1e-9
        return rows

    monkeypatch.setattr(sweeps, "_chunk_rows", skewed_off_main)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for kind in ("dirichlet", "neumann"):
        assert f"selftest FAIL: {kind} sweep rows differ between 1 and 2 threads" in err


def test_selftest_passes_and_is_reproducible(tmp_path, capsys):
    rc = cli.main(["selftest", "--threads", "2", "--out", str(tmp_path / "a")])
    assert rc == 0
    path_a = capsys.readouterr().out.splitlines()[0]
    rc = cli.main(["selftest", "--threads", "4", "--out", str(tmp_path / "b")])
    assert rc == 0
    path_b = capsys.readouterr().out.splitlines()[0]
    bytes_a = open(path_a, "rb").read()
    bytes_b = open(path_b, "rb").read()
    assert bytes_a == bytes_b
    lines = bytes_a.decode().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 3  # two sweeps, two sizes, three samples
    assert all(line.endswith(",0.0") for line in lines[1:])
