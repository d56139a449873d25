"""End-to-end acceptance checklist.

One test per shipping requirement: solver correctness against dense
elimination, transform and symbol identities, half-space decay rates,
multiplier relations between the two gradient families, the dyadic
variation laws, telescope convergence, reflection identities, Poisson
kernel agreement across the three computation routes, size-independence
of the gradient comparison ratios, byte-level determinism of the self
test, and a library that holds only what a command runs.

The decay check takes the cosine constant 2/pi^2 from ``oracles``, where
it lives because only tests use it.  The variation laws read every
rectangle from one ``dyadic.variation_table``.  The proof chain that no
command runs is in ``proof_chain``, moved there from the library:
``halfspace.halfspace_strip``, ``neumann_strip_solve``, both telescopes
(their aspect window now fixed at ``DEFAULT_ASPECT_BOUNDS``),
``tangential_difference`` and ``normal_difference``;
``lattice.laplacian_interior`` (periodic axes as a tuple only); and
``boxes.odd_reflect``, ``even_reflect``, ``_reflect`` and
``face_decomposition_dirichlet``.
"""

import inspect
import math
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import oracles
import proof_chain
from harmonic_lab import boxes, cli, dyadic, halfspace, lattice, spectral, walks


def _boundary_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        mask[tuple(slice(None) if a != axis else 0 for a in range(len(shape)))] = True
        mask[tuple(slice(None) if a != axis else -1 for a in range(len(shape)))] = True
    return mask


def test_box_solver_matches_dense_elimination_quickly():
    """Interior values, residuals, and boundary reproduction at desk scale."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    cases = [(2, n) for n in range(2, 9)] + [(3, 2), (3, 3), (3, 4)]
    for d, n in cases:
        f = rng.standard_normal((n + 1,) * d)
        u = oracles.dirichlet_extension(f)
        np.testing.assert_allclose(u, oracles.dense_dirichlet_box(f), atol=1e-8)
        if n > 1:
            assert np.abs(proof_chain.laplacian_interior(u)).max() < 1e-9
        mask = _boundary_mask(u.shape)
        assert np.array_equal(u[mask], f[mask])
    assert time.monotonic() - start < 5.0


def test_transform_identities_hold_at_machine_scale():
    rng = np.random.default_rng(202)
    for d in (1, 2, 3):
        for L in (2, 4, 8):
            h = math.pi / L
            idx = spectral.index_grid(L)
            for _ in range(50):
                v = rng.standard_normal((2 * L,) * d) + 1j * rng.standard_normal(
                    (2 * L,) * d
                )
                a = spectral.forward_dft(v)
                lhs = float((np.abs(a) ** 2).sum())
                rhs = (2.0 * math.pi * h) ** d * float((np.abs(v) ** 2).sum())
                assert abs(lhs - rhs) <= 1e-10 * rhs
                axis = int(rng.integers(0, d))
                stretch = [1] * d
                stretch[axis] = 2 * L
                phase = np.exp(-1j * h * idx.reshape(stretch))
                shifted = spectral.forward_dft(np.roll(v, -1, axis=axis))
                scale = max(1.0, float(np.abs(a).max()))
                np.testing.assert_allclose(
                    shifted, phase * a, rtol=0.0, atol=1e-10 * scale
                )
    # propagation symbol algebra on points off the spectral segment
    z = np.concatenate(
        [
            rng.uniform(-3.0, 6.0, 60)
            + 1j * np.sign(rng.standard_normal(60)) * rng.uniform(0.1, 4.0, 60),
            rng.uniform(1.1, 6.0, 40).astype(complex),
        ]
    )
    q = spectral.q_symbol(z)
    f = spectral.f_symbol(z)
    np.testing.assert_allclose(q + 1.0 / q, 2.0 * z, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(f * f, 2.0 * (z - 1.0) / q, rtol=1e-12, atol=1e-12)
    assert np.all(np.abs(q) > 1.0)


LAYER_EXPONENTS = (
    (1.0, 0.0),
    (1.5, 2.0 / 3.0),
    (2.0, 1.0),
    (3.0, 2.0 / 3.0),
    (lattice.INFINITY, 0.0),
)


def test_mean_zero_halfspace_data_decays_at_the_symbol_rate():
    root_c = math.sqrt(oracles.cosine_constant())
    draws = [(2, 8, 70), (3, 4, 30)]
    rng = np.random.default_rng(303)
    for d, L, count in draws:
        h = math.pi / L
        for _ in range(count):
            b = rng.standard_normal((2 * L,) * (d - 1))
            b -= b.mean()
            for n in (1, 4, 8):
                layer = halfspace.halfspace_layer(b, n)
                r = n * h
                for p, exponent in LAYER_EXPONENTS:
                    factor = (1.0 + root_c * r) ** (-exponent)
                    lhs = lattice.lp_norm(layer.ravel(), p)
                    rhs = factor * lattice.lp_norm(b.ravel(), p)
                    assert lhs <= rhs + 1e-10


def test_tangential_and_normal_differences_are_multiplier_related():
    rng = np.random.default_rng(404)
    for d, L in [(2, 8), (2, 16), (3, 8), (3, 16)]:
        h = math.pi / L
        idx = spectral.index_grid(L)
        lev1 = dyadic.dyadic_index_of(idx, L)
        lev = np.stack(np.meshgrid(*([lev1] * (d - 1)), indexing="ij"))
        dom = np.argmax(np.abs(lev), axis=0)
        mask = np.abs(lev).max(axis=0) != 0
        t = h * np.stack(np.meshgrid(*([idx] * (d - 1)), indexing="ij"), axis=-1)
        neu = np.stack([spectral.neumann_symbol(i, t, d) for i in range(d - 1)])
        dirs = np.stack([spectral.dirichlet_symbol(i, t, d) for i in range(d - 1)])
        for _ in range(50):
            b = rng.standard_normal((2 * L,) * (d - 1))
            upper = halfspace.halfspace_layer(b, 1)
            nor_hat = spectral.forward_dft(proof_chain.normal_difference(b, upper, h))
            tan_hats = np.stack(
                [
                    spectral.forward_dft(proof_chain.tangential_difference(b, i, h))
                    for i in range(d - 1)
                ]
            )
            scale = max(1.0, float(np.abs(tan_hats).max()))
            for i in range(d - 1):
                resid = np.abs(tan_hats[i] - neu[i] * nor_hat).max()
                assert resid < 1e-8 * scale
            picked_dir = np.take_along_axis(dirs, dom[None], axis=0)[0]
            picked_tan = np.take_along_axis(tan_hats, dom[None], axis=0)[0]
            resid = np.abs(nor_hat - picked_dir * picked_tan)[mask].max()
            assert resid < 1e-8 * scale


def test_variation_laws_on_random_symbols():
    rng = np.random.default_rng(505)
    for d in (1, 2):
        for L in (4, 8):
            shape = (2 * L,) * d
            window = tuple(slice(1, 4) for _ in range(d))
            inside = np.zeros(shape, dtype=bool)
            inside[window] = True
            for _ in range(100):
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                table = dyadic.variation_table(a, L)
                origin = (table.levels.index(0),) * d
                assert table.local[origin] == float(np.abs(a)[(0,) * d])
                tampered = a.copy()
                tampered[~inside] += 7.0
                two = (table.levels.index(2),) * d
                tampered_table = dyadic.variation_table(tampered, L)
                assert tampered_table.local[two] == table.local[two]
                assert table.total <= 4**d * table.local.max() + 1e-12


def _trace_decays(trace):
    values = [x for x in trace if x > 0.0]
    assert len(values) >= 2
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r < 1.0 for r in ratios)
    slope = np.polyfit(np.arange(len(values)), np.log(values), 1)[0]
    assert slope < 0.0


def test_telescopes_contract_and_match_the_spectral_solvers():
    rng = np.random.default_rng(606)
    L = N = 16
    for _ in range(20):
        bottom = rng.standard_normal(2 * L)
        top = rng.standard_normal(2 * L)
        u, trace = proof_chain.telescope_dirichlet(bottom, top, N)
        ref = halfspace.dirichlet_strip_solve(bottom, top, N)
        assert np.abs(u - ref).max() < 1e-7
        _trace_decays(trace["bottom"])
        _trace_decays(trace["top"])

        gb = rng.standard_normal(2 * L)
        gb -= gb.mean()
        gt = rng.standard_normal(2 * L)
        gt -= gt.mean()
        un, trace_n = proof_chain.telescope_neumann(gb, gt, N)
        ref_n = proof_chain.neumann_strip_solve(gb, gt, N)
        assert np.abs(un - ref_n).max() < 1e-7
        _trace_decays(trace_n["bottom"])
        _trace_decays(trace_n["top"])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_every_neumann_solver_tests_the_net_flux_at_any_scale(scale):
    """The box solvers and the strip solvers share one zero-flux test: it
    accepts mean-zero normal data at every scale, and rejects it at every
    scale once one entry carries a net flux of 1e-3 times that scale."""
    rng = np.random.default_rng(0)
    d, N = 2, 16
    g = rng.standard_normal(len(lattice.normal_edges(d, N)))
    layers = rng.standard_normal((2, 64))  # bottom and top, L = 32
    g = scale * (g - g.mean())
    layers = scale * (layers - layers.mean(axis=1, keepdims=True))
    solvers = [
        lambda: oracles.neumann_extension(g, d, N),
        lambda: boxes.neumann_operator(d, N)(g),
        lambda: proof_chain.neumann_strip_solve(layers[0], layers[1], N),
        lambda: proof_chain.telescope_neumann(layers[0], layers[1], N),
    ]
    for solve in solvers:
        solve()
    g[0] += 1e-3 * scale
    layers[0, 0] += 1e-3 * scale
    for solve in solvers:
        with pytest.raises(ValueError, match="flux"):
            solve()


def test_reflection_identities_and_face_reconstruction():
    rng = np.random.default_rng(707)
    v = rng.standard_normal(9)
    v[0] = 0.0
    v[-1] = 0.0
    odd = proof_chain.odd_reflect(v)
    n = odd.size
    assert n == 16
    for j in range(n):
        assert odd[-j % n] == -odd[j]

    w = rng.standard_normal(6)
    w[0] = w[1]
    w[-1] = w[-2]
    even = proof_chain.even_reflect(w)
    m = even.size
    assert m == 8
    for j in range(m):
        assert even[(1 - j) % m] == even[j]

    sheet = rng.standard_normal((3, 5))
    sheet[:, 0] = 0.0
    sheet[:, -1] = 0.0
    odd2 = proof_chain.odd_reflect(sheet, axis=1)
    for j in range(odd2.shape[1]):
        np.testing.assert_array_equal(odd2[:, -j % odd2.shape[1]], -odd2[:, j])

    for N in (4, 8):
        f = rng.standard_normal((N + 1, N + 1))
        u = oracles.dirichlet_extension(f)
        strips, cert = proof_chain.face_decomposition_dirichlet(u, 2.0)
        total = strips[0] + strips[1]
        scale = max(1.0, np.abs(u).max())
        assert np.abs(total - u).max() < 1e-8 * scale
        assert cert["reconstruction_residual"] < 1e-8 * scale
        assert len(cert["gradient_norms"]) == 2


def test_exit_kernels_agree_across_the_three_routes():
    start = time.monotonic()
    for z in (1, 3, 10):
        cfg = walks.WalkConfig(d=2, z=z, seed=4000 + z)
        mc = walks.mc_exit_array(cfg, 100_000, 64)
        spec = halfspace.periodized_poisson_kernel(z, 2, 64)
        tv = 0.5 * float(np.abs(mc - spec).sum())
        assert tv <= 0.02

    kernel = halfspace.periodized_poisson_kernel(32, 2, 128)
    offsets = np.arange(-16, 17)
    continuum = walks.continuum_kernel(offsets.astype(float), 32, 2)
    rel = np.abs(kernel[offsets % 256] - continuum) / continuum
    assert rel.max() <= 0.10

    variation = [walks.kernel_variation_constant(z, 128, 2) for z in range(2, 17)]
    assert max(variation) <= 2.0 * min(variation)
    assert time.monotonic() - start < 60.0


def test_gradient_ratio_growth_is_bounded_across_box_sizes():
    plan = cli.SweepSpec(
        d_list=(2,),
        n_list=(8, 16, 32, 64),
        p_list=(1.5, 2.0, 3.0),
        samples=50,
        seed=2026,
    )
    plan_3d = cli.SweepSpec(
        d_list=(3,),
        n_list=(4, 8, 16),
        p_list=(1.5, 2.0, 3.0),
        samples=50,
        seed=2026,
    )
    for spec in (plan, plan_3d):
        for runner in (cli.run_dirichlet_sweep, cli.run_neumann_sweep):
            _, summary = runner(spec)
            assert summary
            for block in summary.values():
                growth = block["growth"]
                assert growth is not None
                assert 0.0 < growth <= 3.0


def test_selftest_output_is_thread_invariant(tmp_path):
    rc_serial = cli.run_selftest(out_dir=str(tmp_path / "serial"), threads=1)
    rc_pooled = cli.run_selftest(out_dir=str(tmp_path / "pooled"), threads=4)
    assert rc_serial == 0 and rc_pooled == 0
    (serial,) = (tmp_path / "serial").glob("selftest_*.csv")
    (pooled,) = (tmp_path / "pooled").glob("selftest_*.csv")
    assert serial.name == pooled.name
    assert serial.read_bytes() == pooled.read_bytes()
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "harmonic_lab.cli",
            "symbol-report",
            "--d",
            "2",
            "--l-list",
            "4",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


#: public library functions that no command calls, and why each stays
UNCALLED = {
    "halfspace.dirichlet_strip_solve": "the benchmark's tracer test reads it, also through boxes",
    "lattice.edge_gradients": "the benchmark's tracer test reads it",
    "spectral.dirichlet_symbol": "the benchmark's tracer test reads it through cli",
    "spectral.neumann_symbol": "the pointwise reference of GridSymbols.neumann",
}


def test_every_public_library_function_is_reached_by_a_command(tmp_path):
    modules = (boxes, dyadic, halfspace, lattice, spectral, walks)
    public = {
        fn.__code__: f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in modules
        for name in module.__all__
        if inspect.isfunction(fn := getattr(module, name))
    }
    # start cold: a result cached by an earlier test hides the calls behind it
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sweep = ["--d", "2,3", "--n-list", "4", "--samples", "1"]
    commands = [
        ["selftest"],
        ["dirichlet-sweep", *sweep],
        ["neumann-sweep", *sweep],
        ["kernel-report", "--d", "2", "--z-list", "1", "--L", "4", "--samples", "100"],
        ["symbol-report", "--d", "3", "--l-list", "4"],
    ]
    sys.setprofile(hook)
    threading.setprofile(hook)  # selftest pools its cells on worker threads
    try:
        for argv in commands:
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert {name for code, name in public.items() if code not in called} == set(UNCALLED)
