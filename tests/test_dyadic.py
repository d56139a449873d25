"""Dyadic partition bookkeeping and the mixed-difference variation."""

import itertools

import numpy as np
import pytest

from harmonic_lab import dyadic, spectral

import oracles


# ---------------------------------------------------------------------------
# intervals and indexing
# ---------------------------------------------------------------------------


def test_interval_endpoint_conventions():
    d1 = dyadic.dyadic_interval(1)
    assert d1.contains(1) and not d1.contains(2)
    assert d1.lo == 1.0 and d1.hi == 2.0
    d0 = dyadic.dyadic_interval(0)
    assert d0.contains(0) and d0.contains(0.999)
    assert not d0.contains(1) and not d0.contains(-1)
    dm2 = dyadic.dyadic_interval(-2)
    assert dm2.contains(-2) and dm2.contains(-3) and dm2.contains(-4 + 1e-9)
    assert not dm2.contains(-4) and not dm2.contains(-1.5)


def test_intervals_partition_the_integers():
    for nu in range(-1024, 1025):
        level = oracles.level_of(nu)
        assert dyadic.dyadic_interval(level).contains(nu)
        assert not dyadic.dyadic_interval(level + 1).contains(nu)
        assert not dyadic.dyadic_interval(level - 1).contains(nu)
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
    got = dyadic.dyadic_integers(level, L)
    np.testing.assert_array_equal(got, expected)
    assert got.tolist() == oracles.rectangle_integers(level, L)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 16, 17])
def test_dyadic_integers_cover_the_grid(L):
    seen = []
    for level in range(-12, 13):
        seen.extend(dyadic.dyadic_integers(level, L).tolist())
    assert sorted(seen) == list(range(-L + 1, L + 1))


def test_rectangle_emptiness():
    assert dyadic.dyadic_rectangle_is_empty((4,), 4)
    assert not dyadic.dyadic_rectangle_is_empty((2,), 4)
    assert dyadic.dyadic_rectangle_is_empty((1, -3), 4)


def test_dominant_axis():
    assert dyadic.dominant_axis((0, 2)) == 1
    assert dyadic.dominant_axis((2, -2)) == 0
    assert dyadic.dominant_axis((-3, 2)) == 0
    assert dyadic.dominant_axis((0,)) == 0


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
    assert dyadic.local_variation(a, (2,), 4) == 3.0
    assert oracles.brute_lvar(a, (2,), 4) == 3.0
    assert dyadic.local_variation(a, (3,), 4) == 4.0
    assert dyadic.local_variation(a, (1,), 4) == 1.0
    assert dyadic.local_variation(a, (-2,), 4) == 3.0


def test_local_variation_at_origin_is_the_value():
    a = np.array([2.5, -1.0, 0.5, 9.0], dtype=float)
    assert dyadic.local_variation(a, (0,), 2) == 2.5
    rng = np.random.default_rng(8)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert dyadic.local_variation(b, (0, 0), 4) == pytest.approx(abs(b[0, 0]))


def test_local_variation_of_constant():
    a = np.full((8, 8), -3.0 + 1.0j)
    for k in itertools.product((-2, -1, 0, 1, 2, 3), repeat=2):
        assert dyadic.local_variation(a, k, 4) == pytest.approx(abs(a[0, 0]))


def test_local_variation_empty_rectangle():
    a = np.arange(8.0)
    assert dyadic.local_variation(a, (4,), 4) == 0.0
    assert dyadic.local_variation(a, (-3,), 4) == 0.0


def test_local_variation_is_local():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(8)
    base = dyadic.local_variation(a, (2,), 4)
    tampered = a.copy()
    for pos in (0, 1, 4, 5, 6, 7):  # everything outside frequencies {2, 3}
        tampered[pos] += rng.standard_normal()
    assert dyadic.local_variation(tampered, (2,), 4) == base


def test_local_variation_shape_check():
    with pytest.raises(ValueError):
        dyadic.local_variation(np.zeros((4, 4)), (0,), 2)


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
    levels = [-2, -1, 0, 1, 2, 3]  # empty rectangles included at L=2
    for k in itertools.product(levels, repeat=d):
        assert dyadic.local_variation(a, k, L) == pytest.approx(
            oracles.brute_lvar(a, k, L), abs=1e-12
        )


@pytest.mark.parametrize("d,L", [(1, 6), (2, 5), (3, 2), (3, 4)])
def test_variation_table_matches_brute_force(d, L):
    """Every rectangle of the one-pass table.  Level 0 holds the single
    frequency 0 (and at L=2 every level is a singleton), so summed axes over
    one frequency, which contribute nothing, are covered."""
    rng = np.random.default_rng(70 + d)
    a = rng.standard_normal((2 * L,) * d) + 1j * rng.standard_normal((2 * L,) * d)
    table = dyadic.variation_table(a, L)
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
    with pytest.raises(ValueError, match="half-period"):
        dyadic.variation_table(a, L + 1)


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
    table = dyadic.variation_table(a, L)
    i = table.levels.index(3)
    assert table.local[i, i] == oracles.brute_lvar(a, (3, 3), L) == 4.5
    assert table.total == oracles.brute_total_variation(a, L) == 4.5


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_total_variation_simple_symbols():
    assert dyadic.total_variation(np.zeros(8), 4) == 0.0
    assert dyadic.total_variation(np.full((8, 8), 2.0 - 1.0j), 4) == pytest.approx(
        abs(2.0 - 1.0j)
    )


@pytest.mark.parametrize("d,L", BRUTE_FORCE_CASES)
def test_total_variation_matches_brute_force(d, L):
    rng = np.random.default_rng(60 + d)
    real = rng.standard_normal((2 * L,) * d)
    cplx = real + 1j * rng.standard_normal((2 * L,) * d)
    for a in (real, cplx):
        assert dyadic.total_variation(a, L) == pytest.approx(
            oracles.brute_total_variation(a, L), abs=1e-12
        )


def test_total_variation_bounded_by_local():
    rng = np.random.default_rng(21)
    L = 4
    for d in (1, 2):
        a = rng.standard_normal((2 * L,) * d)
        levels = [-2, -1, 0, 1, 2, 3]
        worst = max(
            dyadic.local_variation(a, k, L)
            for k in itertools.product(levels, repeat=d)
        )
        assert dyadic.total_variation(a, L) <= 4**d * worst + 1e-12


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def _nonempty_indices(d, L):
    levels = [-2, -1, 0, 1, 2, 3] if L == 4 else None
    assert levels is not None
    return [
        k
        for k in itertools.product(levels, repeat=d)
        if not dyadic.dyadic_rectangle_is_empty(k, L)
    ]


def test_glue_identical_family_reproduces_the_symbol():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    family = {k: a for k in _nonempty_indices(2, 4)}
    glued = dyadic.glue_local_symbols(family, 4)
    np.testing.assert_allclose(glued, a, atol=0)


def test_glue_restriction_and_variation():
    rng = np.random.default_rng(34)
    L = 4
    indices = _nonempty_indices(1, L)
    family = {k: rng.standard_normal(8) + 0j for k in indices}
    glued = dyadic.glue_local_symbols(family, L)
    for k in indices:
        freqs = dyadic.dyadic_integers(k[0], L)
        np.testing.assert_allclose(
            glued[freqs % 8], np.asarray(family[k])[freqs % 8], atol=0
        )
        assert dyadic.local_variation(glued, k, L) == pytest.approx(
            dyadic.local_variation(family[k], k, L), abs=1e-12
        )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_glue_matches_the_per_rectangle_oracle(d, L):
    rng = np.random.default_rng(40 + 10 * d + L)
    shape = (2 * L,) * d
    levels = [lv for lv in range(-8, 9) if oracles.rectangle_integers(lv, L)]
    indices = list(itertools.product(levels, repeat=d))

    def member():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # distinct members (more than one np.choose call takes from L = 2, d = 3)
    # and a few members shared by many rectangles, as the symbol report has
    distinct = {k: member() for k in indices}
    pool = [member() for _ in range(3)]
    shared = {k: pool[sum(k) % 3] for k in indices}
    for family in (distinct, shared):
        np.testing.assert_array_equal(
            dyadic.glue_local_symbols(family, L), oracles.glue_by_rectangle(family, L)
        )


def test_glue_missing_member():
    family = {k: np.zeros(8) for k in _nonempty_indices(1, 4)}
    del family[(2,)]
    with pytest.raises(KeyError, match=r"\(2,\)"):
        dyadic.glue_local_symbols(family, 4)
    with pytest.raises(ValueError):
        dyadic.glue_local_symbols({(0,): np.zeros(8), (1,): np.zeros(6)}, 4)


# ---------------------------------------------------------------------------
# sampled derivative bound
# ---------------------------------------------------------------------------


def test_derivative_bound_of_constant():
    val = dyadic.derivative_variation_bound(
        lambda xi: np.full(xi.shape[:-1], 2.0), (1,), 8
    )
    assert val == pytest.approx(2.0, rel=1e-6)


def test_derivative_bound_of_reciprocal():
    # A(xi) = 1/xi on [2, 4): both flags give essentially sup 1/|xi| = 1/2
    val = dyadic.derivative_variation_bound(lambda xi: 1.0 / xi[..., 0], (2,), 8)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_derivative_bound_empty_rectangle():
    with pytest.raises(ValueError):
        dyadic.derivative_variation_bound(lambda xi: xi[..., 0], (5,), 4)


@pytest.mark.parametrize("L", [4, 8, 16])
def test_symbol_variation_controlled_by_derivative_bound(L):
    """The local variation of the tangential ratio symbol stays within a
    modest factor of the sampled derivative estimate on each rectangle."""
    h = np.pi / L
    grid = spectral.index_grid(L).astype(float)
    a = spectral.neumann_symbol(0, (h * grid)[:, None], 2)
    A = lambda xi: spectral.neumann_symbol(0, (np.pi / L) * np.asarray(xi), 2)
    levels = range(-int(L - 1).bit_length(), int(L).bit_length() + 1)
    for level in levels:
        k = (level,)
        if dyadic.dyadic_rectangle_is_empty(k, L):
            continue
        lv = dyadic.local_variation(a, k, L)
        bound = dyadic.derivative_variation_bound(A, k, L)
        assert lv <= bound * 1.05 + 1e-12
