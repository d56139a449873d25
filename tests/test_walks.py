"""Exit sampling for the half-lattice walk and its kernel estimators.

Statistical tests run on fixed seeds, so they are deterministic; the
thresholds were chosen from measured values with generous margins (3
standard errors or better).
"""

import collections
import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from harmonic_lab import halfspace, walks

import oracles


def test_walk_config_validation():
    with pytest.raises(ValueError):
        walks.WalkConfig(d=1, z=1)
    with pytest.raises(ValueError):
        walks.WalkConfig(d=2, z=0)
    with pytest.raises(ValueError):
        walks.WalkConfig(d=2, z=1, max_steps=0)
    with pytest.raises(ValueError, match="below the height"):
        walks.WalkConfig(d=2, z=5, max_steps=4)
    with pytest.raises(ValueError, match="start height"):
        walks.WalkConfig(d=2, z=walks.MAX_START_HEIGHT + 1)
    walks.WalkConfig(d=2, z=walks.MAX_START_HEIGHT)
    cfg = walks.WalkConfig(d=2, z=3, seed=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.z = 4


def _streamed_table(z, cap, chunk=walks.CDF_CHUNK):
    return np.concatenate(list(walks._cdf_chunks(z, cap, chunk)))


def test_vertical_hit_cdf_frozen_values():
    cdf1 = _streamed_table(1, 99)
    # P(V=1) = 1/2, P(V=3) = 1/8, P(V=5) = 1/16
    assert cdf1[0] == pytest.approx(0.5, rel=1e-12)
    assert cdf1[1] == pytest.approx(0.625, rel=1e-12)
    assert cdf1[2] == pytest.approx(0.6875, rel=1e-12)
    cdf2 = _streamed_table(2, 100)
    assert cdf2[0] == pytest.approx(0.25, rel=1e-12)
    assert (np.diff(cdf1) > 0).all()
    assert cdf1[-1] < 1.0
    assert _streamed_table(1, 10**6)[-1] > 0.999


@pytest.mark.parametrize("z", [1, 3, 10])
def test_vertical_hit_cdf_matches_the_closed_form(z):
    """The in-place recurrence against the log-gamma closed form."""
    cap = 10**5 + z % 2
    table = _streamed_table(z, cap)
    reference = oracles.first_passage_cdf(z, cap)
    assert table.shape == reference.shape
    np.testing.assert_allclose(table, reference, rtol=0, atol=1e-12)
    exact = [float(oracles.first_passage_pmf(z, z + 2 * i)) for i in range(4)]
    np.testing.assert_allclose(np.diff(table[:4], prepend=0.0), exact, rtol=1e-14)


def _head_length(reference, chunk):
    """Entries the streamed head covers: it stops at the first chunk
    boundary with at most TAIL_SWITCH of the mass beyond it."""
    for seen in range(1, reference.size, chunk):
        if 1.0 - reference[seen - 1] <= walks.TAIL_SWITCH:
            return seen
    return reference.size


def _check_streamed_against_one_shot(z, cap, chunk):
    reference = oracles.vertical_hit_cdf(z, cap)
    assert np.array_equal(_streamed_table(z, cap, chunk), reference)
    rng = np.random.default_rng(z)
    # ties on table entries, and uniforms below the first and above the last
    u = np.concatenate([rng.random(3000), reference[::97], [0.0, reference[-1], 1.0]])
    counts = walks._hit_counts(z, cap, u, chunk)
    head = _head_length(reference, chunk)
    # the head searches the float table: every count matches, ties included
    in_head = u <= reference[head - 1]
    assert np.array_equal(
        counts[in_head], np.searchsorted(reference, u[in_head], side="left")
    )
    # above the head the closed-form tail inverts the exact law, so a tie
    # with a float entry is decided by the exact entry; a count equal to
    # the table length is exactly a uniform above the exact last value
    exact, gaps = oracles.invert_first_passage_cdf(z, cap, u[~in_head], start=head)
    far = gaps > 1e-15
    assert np.array_equal(counts[~in_head][far], exact[far])
    return head


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("z, cap", [(1, 1), (2, 2), (3, 20), (1, 9001), (4, 9002)])
def test_streamed_table_matches_the_one_shot_build(z, cap, chunk):
    """Carrying the last product and running sum across chunks reproduces
    every entry, every head count and the last value exactly; at z=1 the
    head stops before the cap and the tail takes over."""
    head = _check_streamed_against_one_shot(z, cap, chunk)
    assert (head < (cap - z) // 2 + 1) == (cap == 9001)


def test_streamed_table_spans_several_default_chunks():
    cap = 2 * 3 * walks.CDF_CHUNK + 11
    # the first entry, three full chunks and a partial one
    assert sum(1 for _ in walks._cdf_chunks(3, cap)) == 5
    # the head ends after the first full chunk
    head = _check_streamed_against_one_shot(3, cap, walks.CDF_CHUNK)
    assert head == 1 + walks.CDF_CHUNK


@pytest.mark.parametrize("z", [1, 2, 3, 10, 57])
def test_closed_form_tail_matches_exact_binomial_sums(z):
    for k in range(6):
        head = sum(oracles.first_passage_pmf(z, z + 2 * i) for i in range(k + 1))
        assert oracles.first_passage_tail(z, k) == 1 - head
    k = np.unique(np.r_[np.arange(1, 65), np.geomspace(65, 4000, 40).astype(int)])
    exact = [float(oracles.first_passage_tail(z, int(i))) for i in k]
    np.testing.assert_allclose(walks._hit_tail(z, k), exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("z", [1, 3, 10])
def test_default_cap_streams_at_most_three_chunks(z, monkeypatch):
    """The head stops once at most TAIL_SWITCH of the mass lies beyond it,
    even with a uniform left above the whole table (78 otherwise: the
    first entry and 77 chunks)."""
    streamed = []
    chunks = walks._cdf_chunks

    def counted(*args):
        for part in chunks(*args):
            streamed.append(part.size)
            yield part

    monkeypatch.setattr(walks, "_cdf_chunks", counted)
    u = np.random.default_rng(z).random(20480)
    u[-1] = 1.0
    counts = walks._hit_counts(z, walks.DEFAULT_STEP_CAP, u)
    assert len(streamed) <= 3
    assert counts[-1] == (walks.DEFAULT_STEP_CAP - z) // 2 + 1


def test_sampler_memory_stays_at_one_table_chunk():
    """At the default cap the whole table would take 5e6 entries times
    three float64 arrays (120 MB); streamed, one chunk is resident."""
    cfg = walks.WalkConfig(d=2, z=1, seed=0)
    assert cfg.max_steps == walks.DEFAULT_STEP_CAP
    walks._simulate_exits.cache_clear()
    tracemalloc.start()
    try:
        walks._simulate_exits(cfg, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        walks._simulate_exits.cache_clear()
    assert peak < 16 << 20


def test_step_cap_budget_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            walks.WalkConfig(d=2, z=1, max_steps=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    top = 2 * (walks.CDF_TABLE_BUDGET // 24) - 1
    walks.WalkConfig(d=2, z=1, max_steps=top)
    with pytest.raises(ValueError, match="budget"):
        walks.WalkConfig(d=2, z=1, max_steps=top + 2)


def test_sample_exit_is_reproducible():
    cfg = walks.WalkConfig(d=2, z=2, seed=42)
    first = [oracles.sample_exit(cfg, i) for i in range(12)]
    second = [oracles.sample_exit(cfg, i) for i in range(12)]
    assert first == second
    assert all(isinstance(v, tuple) and len(v) == 1 for v in first)
    assert len(set(first)) > 1  # streams differ across walk indices
    d3 = oracles.sample_exit(walks.WalkConfig(d=3, z=1, seed=42), 0)
    assert len(d3) == 2


def test_batch_sampler_is_prefix_stable():
    B = walks.BLOCK
    for d in (2, 3):
        # a cap of 1e5 leaves 77 (d=2) and 91 (d=3) of the 2B+3 walks unresolved
        cfg = walks.WalkConfig(d=d, z=3, seed=9, max_steps=10**5)
        offsets, unresolved = walks._simulate_exits(cfg, 2 * B + 3)
        assert offsets.shape == (2 * B + 3, d - 1)
        assert unresolved.any() and not unresolved.all()
        assert not offsets[unresolved].any()
        for n in (25, B - 1, B, B + 1):
            short_offsets, short_unresolved = walks._simulate_exits(cfg, n)
            np.testing.assert_array_equal(offsets[:n], short_offsets)
            np.testing.assert_array_equal(unresolved[:n], short_unresolved)


def test_sampler_with_the_tail_forced_matches_the_replay(monkeypatch):
    """Seven-entry chunks end the head at entry 1310 of 10001; walks placed
    by the closed-form tail keep the replayed masks and prefix stability."""
    B = walks.BLOCK
    cfg = walks.WalkConfig(d=2, z=1, seed=61, max_steps=20001)
    size = (cfg.max_steps - cfg.z) // 2 + 1
    head = _head_length(oracles.vertical_hit_cdf(cfg.z, cfg.max_steps), 7)
    assert head < size
    seen = []
    hit_counts = walks._hit_counts

    def forced(z, cap, u):
        seen.append(hit_counts(z, cap, u, chunk=7))
        return seen[-1]

    monkeypatch.setattr(walks, "_hit_counts", forced)
    walks._simulate_exits.cache_clear()
    try:
        offsets, unresolved = walks._simulate_exits(cfg, 2 * B + 3)
        np.testing.assert_array_equal(
            unresolved, oracles.replay_unresolved(cfg, 2 * B + 3, B)
        )
        counts = seen[0][: 2 * B + 3]
        assert ((counts >= head) & (counts < size) & ~unresolved).any()
        for n in (25, B, B + 1):
            short_offsets, short_unresolved = walks._simulate_exits(cfg, n)
            np.testing.assert_array_equal(offsets[:n], short_offsets)
            np.testing.assert_array_equal(unresolved[:n], short_unresolved)
    finally:
        walks._simulate_exits.cache_clear()


def test_sampler_output_is_read_only():
    exits = walks._simulate_exits(walks.WalkConfig(d=2, z=1, seed=4), 10)
    for arr in exits:
        with pytest.raises(ValueError):
            arr[0] = 1


def test_capped_walks_are_reported_as_unresolved(caplog):
    cfg = walks.WalkConfig(d=2, z=3, seed=23, max_steps=50)
    n = 5000
    walks._simulate_exits.cache_clear()
    with caplog.at_level(logging.WARNING, logger="harmonic_lab.walks"):
        _, unresolved = walks._simulate_exits(cfg, n)
    replayed = oracles.replay_unresolved(cfg, n, walks.BLOCK)
    np.testing.assert_array_equal(unresolved, replayed)
    count = int(unresolved.sum())
    # exact P(unresolved) = 0.4493 at this cap; measured 1.5 SE below it
    p = float(oracles.unresolved_probability(2, 3, 50))
    assert abs(count - n * p) <= 4 * math.sqrt(n * p * (1 - p))

    (record,) = caplog.records
    assert record.msg.startswith("%d capped attempts while sampling %d walks")
    assert record.args[:2] == (count, n)

    est = walks.poisson_kernel_mc(cfg, n, 6)
    assert est.unresolved_count == count
    assert est.unresolved == count / n
    assert sum(est.counts.values()) + est.out_count + est.unresolved_count == n
    arr = walks.mc_exit_array(cfg, n, 8)
    assert arr.sum() + est.unresolved == pytest.approx(1.0, abs=1e-12)


def test_exit_offsets_are_symmetric():
    # chi-square on +x vs -x tallies; measured p = 0.17 with this seed
    cfg = walks.WalkConfig(d=2, z=3, seed=12345)
    off = walks._simulate_exits(cfg, 4000)[0][:, 0]
    chi2 = 0.0
    pairs = 0
    for x in range(1, 11):
        cp = int((off == x).sum())
        cm = int((off == -x).sum())
        if cp + cm > 0:
            chi2 += (cp - cm) ** 2 / (cp + cm)
            pairs += 1
    assert stats.chi2.sf(chi2, pairs) > 0.01


def test_stepwise_and_factorized_samplers_agree():
    """Total variation between the two samplers' folded exit histograms;
    measured 0.050 at these sample sizes."""
    L = 16
    step = np.array(
        [
            oracles.sample_exit(walks.WalkConfig(d=2, z=2, seed=778), i)[0]
            for i in range(2000)
        ]
    )
    fd = walks.mc_exit_array(walks.WalkConfig(d=2, z=2, seed=777), 2000, L)
    fs = np.bincount(np.mod(step, 2 * L), minlength=2 * L) / 2000
    assert 0.5 * np.abs(fd - fs).sum() < 0.1


def test_mc_matches_spectral_kernel_at_the_center():
    L = 64
    kern = halfspace.periodized_poisson_kernel(1, 2, L)
    p0 = float(kern[0])
    arr = walks.mc_exit_array(walks.WalkConfig(d=2, z=1, seed=31), 20000, L)
    se = math.sqrt(p0 * (1 - p0) / 20000)
    assert abs(arr[0] - p0) <= 3 * se


def test_mc_exit_array_mass_and_layout():
    for cfg, n, L, shape in (
        (walks.WalkConfig(d=2, z=2, seed=3), 500, 8, (16,)),
        (walks.WalkConfig(d=3, z=1, seed=3), 200, 4, (8, 8)),
        (walks.WalkConfig(d=3, z=4, seed=3, max_steps=60), 500, 4, (8, 8)),
    ):
        arr = walks.mc_exit_array(cfg, n, L)
        assert arr.shape == shape
        assert (arr >= 0).all()
        unresolved = walks._simulate_exits(cfg, n)[1].mean()
        assert arr.sum() + unresolved == pytest.approx(1.0, abs=1e-12)
    assert unresolved > 0  # the 60-step cap leaves walks unresolved


def test_kernel_estimate_mass_accounting_is_exact():
    cfg = walks.WalkConfig(d=2, z=4, seed=17)
    n = 1500
    window = 6
    est = walks.poisson_kernel_mc(cfg, n, window)
    assert est.n_samples == n
    assert sum(est.counts.values()) + est.out_count + est.unresolved_count == n
    assert est.out_of_window == est.out_count / n
    assert est.unresolved == est.unresolved_count / n
    for key, c in est.counts.items():
        assert len(key) == 1 and abs(key[0]) <= window
        p, se = est.probabilities[key]
        assert p == c / n
        assert se == pytest.approx(math.sqrt(p * (1 - p) / n), rel=1e-12)
    assert est.out_count > 0  # z=4 spreads well past |x| <= 6


def test_kernel_estimate_tallies_each_offset_in_lexicographic_order():
    cfg = walks.WalkConfig(d=3, z=2, seed=21)
    n, window = 3000, 3
    offsets, unresolved = walks._simulate_exits(cfg, n)
    expected = collections.Counter(
        tuple(int(v) for v in row)
        for row, capped in zip(offsets, unresolved)
        if not capped and np.abs(row).max() <= window
    )
    est = walks.poisson_kernel_mc(cfg, n, window)
    assert est.counts == expected
    assert list(est.counts) == sorted(expected)


def test_kernel_estimate_zero_window():
    est = walks.poisson_kernel_mc(walks.WalkConfig(d=2, z=1, seed=8), 400, 0)
    assert set(est.counts) <= {(0,)}
    with pytest.raises(ValueError):
        walks.poisson_kernel_mc(walks.WalkConfig(d=2, z=1, seed=8), 400, -1)
    with pytest.raises(ValueError):
        walks._simulate_exits(walks.WalkConfig(d=2, z=1, seed=8), 0)


def test_standard_errors_shrink_like_root_n():
    e1 = walks.poisson_kernel_mc(walks.WalkConfig(d=2, z=2, seed=99), 2000, 8)
    e2 = walks.poisson_kernel_mc(walks.WalkConfig(d=2, z=2, seed=100), 4000, 8)
    agg1 = sum(se for _, se in e1.probabilities.values())
    agg2 = sum(se for _, se in e2.probabilities.values())
    ratio = agg1 / agg2
    assert math.sqrt(2) / 1.5 <= ratio <= math.sqrt(2) * 1.5


def test_boundary_data_average_reproduces_the_extension():
    """Averaging boundary data over sampled exit points agrees with the
    spectral extension value within 3 standard errors (measured 2.5)."""
    rng = np.random.default_rng(6)
    L = 16
    b = rng.standard_normal(2 * L)
    for z in (2, 5, 8):
        cfg = walks.WalkConfig(d=2, z=z, seed=200 + z)
        offs, unresolved = walks._simulate_exits(cfg, 10000)
        offs = offs[~unresolved, 0]
        exact_layer = halfspace.halfspace_layer(b, z)
        for x in (0, 3):
            vals = b[np.mod(x + offs, 2 * L)]
            mc = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(mc - exact_layer[x]) <= 3 * se


def test_continuum_kernel_values():
    assert walks.continuum_kernel(0.0, 1.0) == pytest.approx(1.0 / math.pi)
    for z in (1.0, 2.0, 5.0):
        got = walks.continuum_kernel(np.zeros(2), z, d=3)
        assert got == pytest.approx(1.0 / (2 * math.pi * z * z))
    # even in x
    xs = np.linspace(-10, 10, 41)
    np.testing.assert_allclose(
        walks.continuum_kernel(xs, 2.0), walks.continuum_kernel(-xs, 2.0)
    )


def test_continuum_kernel_tail_exponent():
    for d in (2, 3):
        x1 = np.zeros(d - 1)
        x2 = np.zeros(d - 1)
        x1[0] = 100.0
        x2[0] = 200.0
        if d == 2:
            k1, k2 = walks.continuum_kernel(100.0, 1.0), walks.continuum_kernel(
                200.0, 1.0
            )
        else:
            k1, k2 = walks.continuum_kernel(x1, 1.0, d=3), walks.continuum_kernel(
                x2, 1.0, d=3
            )
        slope = math.log(k2 / k1) / math.log(2.0)
        assert abs(slope + d) < 0.05 * d


def test_continuum_kernel_rejections():
    with pytest.raises(ValueError):
        walks.continuum_kernel(0.0, 0.0)
    with pytest.raises(ValueError):
        walks.continuum_kernel(np.zeros(3), 1.0, d=3)


def test_kernel_variation_constant_is_bounded_in_z():
    vals = {z: walks.kernel_variation_constant(z, 128) for z in (2, 4, 8, 16)}
    assert all(v > 0 for v in vals.values())
    assert max(vals.values()) / min(vals.values()) < 2.0
    # periodization size barely matters once L dominates z
    v64 = walks.kernel_variation_constant(4, 64)
    assert abs(v64 - vals[4]) / vals[4] < 0.01


def test_kernel_variation_reversal_invariance():
    ker = halfspace.periodized_poisson_kernel(3, 2, 32)
    fwd = np.abs(ker - np.roll(ker, 1, axis=0)).sum()
    bwd = np.abs(np.roll(ker, -1, axis=0) - ker).sum()
    assert fwd == pytest.approx(bwd, rel=1e-12)
    assert walks.kernel_variation_constant(3, 32) == pytest.approx(3 * fwd)
