"""Dyadic partition bookkeeping and the mixed-difference variation."""

import itertools
import json

import numpy as np
import pytest

from harmonic_lab import dyadic, spectral

import oracles


def _table(a, L):
    """``dyadic.variation_table`` of a whole (2L,)*d array, read a block of
    its axis-0 rows at a time."""
    a = np.asarray(a)
    assert a.shape == (2 * L,) * a.ndim
    return dyadic.variation_table(a.__getitem__, L, a.ndim)


# ---------------------------------------------------------------------------
# intervals and indexing
# ---------------------------------------------------------------------------


def test_interval_endpoint_conventions():
    d1 = oracles.dyadic_interval(1)
    assert d1.contains(1) and not d1.contains(2)
    assert d1.lo == 1.0 and d1.hi == 2.0
    d0 = oracles.dyadic_interval(0)
    assert d0.contains(0) and d0.contains(0.999)
    assert not d0.contains(1) and not d0.contains(-1)
    dm2 = oracles.dyadic_interval(-2)
    assert dm2.contains(-2) and dm2.contains(-3) and dm2.contains(-4 + 1e-9)
    assert not dm2.contains(-4) and not dm2.contains(-1.5)


def test_intervals_partition_the_integers():
    for nu in range(-1024, 1025):
        level = oracles.level_of(nu)
        assert oracles.dyadic_interval(level).contains(nu)
        assert not oracles.dyadic_interval(level + 1).contains(nu)
        assert not oracles.dyadic_interval(level - 1).contains(nu)
        assert dyadic.dyadic_index_of(nu) == level
    # a couple of large coordinates
    assert dyadic.dyadic_index_of(2**16) == 17
    assert dyadic.dyadic_index_of(-(2**16)) == -17
    assert dyadic.dyadic_index_of(2**16 - 1) == 16


def test_index_of_is_exact_above_2_to_the_53():
    """Integers whose float copy rounds up to a power of two keep their
    bit length."""
    values = [2**53 + 1, 2**54 - 1, -(2**60 - 1), 2**62]
    levels = [int(np.sign(v)) * abs(v).bit_length() for v in values]
    assert levels == [54, 54, -60, 63]
    assert [dyadic.dyadic_index_of(v) for v in values] == levels
    np.testing.assert_array_equal(
        dyadic.dyadic_index_of(np.array(values, dtype=np.int64)), levels
    )


def test_index_of_array_and_periodic_reduction():
    nu = np.array([0, 3, -1, 4, 5])
    np.testing.assert_array_equal(dyadic.dyadic_index_of(nu), [0, 2, -1, 3, 3])
    # modulo 2L = 8 the frequency 5 represents -3
    assert dyadic.dyadic_index_of(5, L=4) == -2
    assert dyadic.dyadic_index_of(4, L=4) == 3
    assert dyadic.dyadic_index_of(-4, L=4) == 3  # -4 wraps to +4
    np.testing.assert_array_equal(dyadic.dyadic_index_of(nu, L=4), [0, 2, -1, 3, -2])


@pytest.mark.parametrize(
    "level,L,expected",
    [
        (0, 4, [0]),
        (1, 4, [1]),
        (2, 4, [2, 3]),
        (3, 4, [4]),
        (4, 4, []),
        (-1, 4, [-1]),
        (-2, 4, [-3, -2]),
        (-3, 4, []),
        (3, 16, [4, 5, 6, 7]),
    ],
)
def test_dyadic_integers(level, L, expected):
    """The frequencies of I_L that ``dyadic_index_of`` puts at ``level``,
    in ascending and in the stored wrap-around order."""
    ascending = np.arange(-L + 1, L + 1)
    got = ascending[dyadic.dyadic_index_of(ascending) == level]
    np.testing.assert_array_equal(got, expected)
    assert got.tolist() == oracles.rectangle_integers(level, L)
    stored = spectral.index_grid(L)
    at_level = dyadic.dyadic_index_of(np.arange(2 * L), L) == level
    np.testing.assert_array_equal(np.sort(stored[at_level]), expected)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 16, 17])
def test_dyadic_integers_cover_the_grid(L):
    """The table's levels are exactly the nonempty ones, their intervals
    tile I_L in ascending order, and the local variation of a random 1-D
    symbol checks each segment against the oracle's integers."""
    a = np.random.default_rng(L).standard_normal(2 * L)
    table = _table(a, L)
    segments = [oracles.rectangle_integers(level, L) for level in table.levels]
    assert all(segments)
    assert sum(segments, []) == list(range(-L + 1, L + 1))
    for i, level in enumerate(table.levels):
        assert table.local[i] == pytest.approx(
            oracles.brute_lvar(a, (level,), L), abs=1e-12
        )


def test_rectangle_emptiness():
    # the table has an entry only for the levels whose interval meets I_4
    levels = _table(np.zeros((8, 8)), 4).levels
    assert 4 not in levels
    assert 2 in levels
    assert -3 not in levels


def test_dominant_axis():
    """The label grid at one frequency of each rectangle k."""
    L = 8

    def label(*k):
        labels = dyadic.dominant_axes(len(k), L)
        assert labels.shape == (2 * L,) * len(k) and labels.dtype == np.intp
        return labels[tuple(oracles.rectangle_integers(lv, L)[0] % (2 * L) for lv in k)]

    assert label(0, 2) == 1
    assert label(2, -2) == 0
    assert label(-3, 2) == 0
    assert label(0) == 0


@pytest.mark.parametrize("naxes", [1, 2, 3, 4])
@pytest.mark.parametrize("L", [1, 2, 3, 8, 17])
def test_dominant_axes_equals_the_argmax_of_the_stacked_levels(naxes, L):
    """The running maximum gives np.argmax over the stacked |level| arrays,
    which takes the first axis on ties."""
    mag = np.abs(dyadic.dyadic_index_of(np.arange(2 * L), L))
    per_axis = [mag.reshape((-1,) + (1,) * (naxes - 1 - ax)) for ax in range(naxes)]
    expected = np.argmax(np.broadcast_arrays(*per_axis), axis=0)
    labels = dyadic.dominant_axes(naxes, L)
    assert labels.dtype == np.intp
    np.testing.assert_array_equal(labels, expected)


# ---------------------------------------------------------------------------
# forward differences
# ---------------------------------------------------------------------------


def test_alpha_difference():
    a = spectral.index_grid(4).astype(float)
    same = dyadic.alpha_difference(a, 0, 0)
    np.testing.assert_array_equal(same, a)
    diff = dyadic.alpha_difference(a, 0, 1)
    # storage order [0..4, -3..-1]: unit steps except the wrap at position 4
    expected = np.ones(8)
    expected[4] = -7.0
    np.testing.assert_array_equal(diff, expected)
    np.testing.assert_allclose(dyadic.alpha_difference(np.full(6, 2.0), 0, 1), 0.0)
    with pytest.raises(ValueError):
        dyadic.alpha_difference(a, 0, 2)


def test_alpha_difference_matches_recursive_reference():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    d01 = dyadic.alpha_difference(dyadic.alpha_difference(a, 0, 1), 1, 1)
    for nu in itertools.product(range(-3, 5), repeat=2):
        ref = oracles._mixed_diff(a, nu, (0, 1), 8)
        assert d01[nu[0] % 8, nu[1] % 8] == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# local variation
# ---------------------------------------------------------------------------


def test_local_variation_worked_case():
    # a(nu) = nu on I_4; the rectangle at level 2 holds {2, 3}, so the sup
    # flag gives 3 and the sum flag gives |a(3) - a(2)| = 1
    a = spectral.index_grid(4).astype(float)
    table = _table(a, 4)
    # levels -2, -1, 0, 1, 2, 3
    assert table.local.tolist() == [3.0, 1.0, 0.0, 1.0, 3.0, 4.0]
    assert oracles.brute_lvar(a, (2,), 4) == 3.0


def test_local_variation_at_origin_is_the_value():
    a = np.array([2.5, -1.0, 0.5, 9.0], dtype=float)
    table = _table(a, 2)
    assert table.local[table.levels.index(0)] == 2.5
    rng = np.random.default_rng(8)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    table = _table(b, 4)
    i = table.levels.index(0)
    assert table.local[i, i] == pytest.approx(abs(b[0, 0]))


def test_local_variation_of_constant():
    a = np.full((8, 8), -3.0 + 1.0j)
    local = _table(a, 4).local
    assert local.shape == (6, 6)
    np.testing.assert_allclose(local, abs(a[0, 0]))


def test_local_variation_empty_rectangle():
    # I_4 = {-3, ..., 4} meets no interval above level 3 or below level -2
    table = _table(np.arange(8.0), 4)
    assert table.levels == (-2, -1, 0, 1, 2, 3)
    assert table.local.shape == (6,)


def test_local_variation_is_local():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(8)
    base = _table(a, 4)
    i = base.levels.index(2)
    tampered = a.copy()
    for pos in (0, 1, 4, 5, 6, 7):  # everything outside frequencies {2, 3}
        tampered[pos] += rng.standard_normal()
    assert _table(tampered, 4).local[i] == base.local[i]


@pytest.mark.parametrize("naxes,L", [(1, 3), (2, 1), (2, 5), (3, 4)])
def test_dominant_axes_on_rows_are_those_rows_of_the_grid(naxes, L):
    labels = dyadic.dominant_axes(naxes, L)
    for rows in (np.arange(1), np.array([2 * L - 1, 0]), np.arange(L, 2 * L)):
        np.testing.assert_array_equal(dyadic.dominant_axes(naxes, L, rows), labels[rows])


def _table_bits(table):
    return table.levels, table.local.tobytes(), np.asarray(table.total).tobytes()


@pytest.mark.parametrize("L", [1, 3, 6])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_block_boundaries_leave_tables_and_reports_bit_identical(monkeypatch, d, L):
    """Blocks of one and of three axis-0 rows put block edges inside the
    dyadic segments and next to the periodic wrap; the table and the symbol
    report equal, bit for bit, those from one block of the whole grid and
    those at the default block size, and the table equals the whole-grid
    reduction of the oracle."""
    rng = np.random.default_rng(10 * d + L)
    a = rng.standard_normal((2 * L,) * d) + 1j * rng.standard_normal((2 * L,) * d)
    found = {}
    for rows in (1, 3, 2 * L, None):
        if rows is not None:
            monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", rows * (2 * L) ** (d - 1))
        table = _table_bits(_table(a, L))
        if rows is not None:  # the report's grid has d - 1 axes
            monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", rows * (2 * L) ** (d - 2))
        found[rows] = table, json.dumps(spectral.run_symbol_report(d, (L,)))
        monkeypatch.undo()
    assert found[1] == found[3] == found[2 * L] == found[None]
    levels, local, total = oracles.whole_grid_variation_table(a, L)
    assert found[1][0] == (levels, local.tobytes(), np.asarray(total).tobytes())


@pytest.mark.parametrize("d,L", [(1, 5), (2, 3), (3, 2)])
def test_variation_table_reads_each_row_once_and_tables_stacked_symbols(monkeypatch, d, L):
    """A function of the rows is read on every axis-0 row exactly once, in
    blocks of whole rows, and symbols stacked on a trailing axis get each
    their own table, bit for bit."""
    monkeypatch.setattr(dyadic, "BLOCK_ENTRIES", 2 * (2 * L) ** (d - 1))
    rng = np.random.default_rng(80 + d)
    shape = (2 * L,) * d
    members = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
    stacked = np.stack(members, axis=-1)
    read = []

    def rows(index):
        read.extend(index.tolist())
        return stacked[index]

    table = dyadic.variation_table(rows, L, d)
    assert sorted(read) == list(range(2 * L))
    assert table.local.shape == (len(table.levels),) * d + (2,)
    assert table.total.shape == (2,)
    for j, a in enumerate(members):
        alone = _table(a, L)
        assert alone.levels == table.levels
        assert alone.local.tobytes() == np.ascontiguousarray(table.local[..., j]).tobytes()
        assert alone.total == table.total[j]


BRUTE_FORCE_CASES = [
    pytest.param(1, 4, id="1"),
    pytest.param(2, 4, id="2"),
    pytest.param(3, 2, id="3-L2"),
    pytest.param(3, 4, id="3-L4"),
]


@pytest.mark.parametrize("d,L", BRUTE_FORCE_CASES)
def test_local_variation_matches_brute_force(d, L):
    rng = np.random.default_rng(50 + d)
    a = rng.standard_normal((2 * L,) * d) + 1j * rng.standard_normal((2 * L,) * d)
    table = _table(a, L)
    levels = [-2, -1, 0, 1, 2, 3]  # empty rectangles included at L=2
    for k in itertools.product(levels, repeat=d):
        if set(k) <= set(table.levels):
            got = table.local[tuple(table.levels.index(level) for level in k)]
        else:
            got = 0.0  # an empty rectangle has no entry
        assert got == pytest.approx(oracles.brute_lvar(a, k, L), abs=1e-12)


@pytest.mark.parametrize("d,L", [(1, 6), (2, 5), (3, 2), (3, 4)])
def test_variation_table_matches_brute_force(d, L):
    """Every rectangle of the one-pass table.  Level 0 holds the single
    frequency 0 (and at L=2 every level is a singleton), so summed axes over
    one frequency, which contribute nothing, are covered."""
    rng = np.random.default_rng(70 + d)
    a = rng.standard_normal((2 * L,) * d) + 1j * rng.standard_normal((2 * L,) * d)
    table = _table(a, L)
    levels = [level for level in range(-8, 9) if oracles.rectangle_integers(level, L)]
    assert table.levels == tuple(levels)
    assert table.local.shape == (len(levels),) * d
    for idx in itertools.product(range(len(levels)), repeat=d):
        k = tuple(levels[i] for i in idx)
        assert table.local[idx] == pytest.approx(
            oracles.brute_lvar(a, k, L), abs=1e-12
        )
    assert table.total == pytest.approx(
        oracles.brute_total_variation(a, L), abs=1e-12
    )


def test_variation_table_sums_over_the_sup_of_the_inner_axis():
    """Sum over axis 0 of the sup over axis 1, not the other way round.  On
    frequencies 4..6 of axis 0 the forward difference alternates in sign and
    carries a bump of 1/2 in a different column on each row, so the row
    maxima add to 3 * 1.5 while every column sums to only 1.5 + 1 + 1."""
    L = 8
    freqs = np.arange(-L + 1, L + 1)
    rows = np.zeros((2 * L, 2 * L))
    for f in (4, 5, 6):
        rows[f + L - 1] = (-1) ** f
        rows[f + L - 1, f + L - 1] *= 1.5
    ascending = np.vstack([np.zeros(2 * L), np.cumsum(rows, axis=0)[:-1]])
    a = np.zeros_like(ascending)
    a[np.ix_(freqs % (2 * L), freqs % (2 * L))] = ascending
    table = _table(a, L)
    i = table.levels.index(3)
    assert table.local[i, i] == oracles.brute_lvar(a, (3, 3), L) == 4.5
    assert table.total == oracles.brute_total_variation(a, L) == 4.5


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_total_variation_simple_symbols():
    assert _table(np.zeros(8), 4).total == 0.0
    table = _table(np.full((8, 8), 2.0 - 1.0j), 4)
    assert table.total == pytest.approx(abs(2.0 - 1.0j))


@pytest.mark.parametrize("d,L", BRUTE_FORCE_CASES)
def test_total_variation_matches_brute_force(d, L):
    rng = np.random.default_rng(60 + d)
    real = rng.standard_normal((2 * L,) * d)
    cplx = real + 1j * rng.standard_normal((2 * L,) * d)
    for a in (real, cplx):
        assert _table(a, L).total == pytest.approx(
            oracles.brute_total_variation(a, L), abs=1e-12
        )


def test_total_variation_bounded_by_local():
    rng = np.random.default_rng(21)
    L = 4
    for d in (1, 2):
        a = rng.standard_normal((2 * L,) * d)
        table = _table(a, L)
        assert table.total <= 4**d * table.local.max() + 1e-12


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def _nonempty_indices(d, L):
    levels = [level for level in range(-8, 9) if oracles.rectangle_integers(level, L)]
    return list(itertools.product(levels, repeat=d))


def test_glue_restriction_and_variation():
    """The local variation of a piecewise symbol on each rectangle is that
    of the member it takes there."""
    rng = np.random.default_rng(34)
    L = 4
    indices = _nonempty_indices(1, L)
    family = {k: rng.standard_normal(8) + 0j for k in indices}
    glued = oracles.glue_by_rectangle(family, L)
    local = _table(glued, L).local
    for i, k in enumerate(indices):
        freqs = np.array(oracles.rectangle_integers(k[0], L))
        np.testing.assert_allclose(
            glued[freqs % 8], np.asarray(family[k])[freqs % 8], atol=0
        )
        assert local[i] == pytest.approx(
            _table(family[k], L).local[i], abs=1e-12
        )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_glue_matches_the_per_rectangle_oracle(d, L):
    """Choosing by the label grid copies, on every rectangle k, the member
    of the first axis with the largest |k_j|."""
    rng = np.random.default_rng(40 + 10 * d + L)
    shape = (2 * L,) * d
    members = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(d)
    ]
    family = {}
    for k in _nonempty_indices(d, L):
        mag = [abs(level) for level in k]
        family[k] = members[mag.index(max(mag))]
    glued = np.choose(dyadic.dominant_axes(d, L), members)
    np.testing.assert_array_equal(glued, oracles.glue_by_rectangle(family, L))


# ---------------------------------------------------------------------------
# sampled derivative bound
# ---------------------------------------------------------------------------


def test_derivative_bound_of_constant():
    val = oracles.derivative_variation_bound(
        lambda xi: np.full(xi.shape[:-1], 2.0), (1,), 8
    )
    assert val == pytest.approx(2.0, rel=1e-6)


def test_derivative_bound_of_reciprocal():
    # A(xi) = 1/xi on [2, 4): both flags give essentially sup 1/|xi| = 1/2
    val = oracles.derivative_variation_bound(lambda xi: 1.0 / xi[..., 0], (2,), 8)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_derivative_bound_empty_rectangle():
    with pytest.raises(ValueError):
        oracles.derivative_variation_bound(lambda xi: xi[..., 0], (5,), 4)


@pytest.mark.parametrize("L", [4, 8, 16])
def test_symbol_variation_controlled_by_derivative_bound(L):
    """The local variation of the tangential ratio symbol stays within a
    modest factor of the sampled derivative estimate on each rectangle."""
    h = np.pi / L
    grid = spectral.index_grid(L).astype(float)
    a = oracles.neumann_symbol(0, (h * grid)[:, None], 2)
    A = lambda xi: oracles.neumann_symbol(0, (np.pi / L) * np.asarray(xi), 2)
    table = _table(a, L)
    for level, lv in zip(table.levels, table.local):
        bound = oracles.derivative_variation_bound(A, (level,), L)
        assert lv <= bound * 1.05 + 1e-12
