"""Dyadic intervals, mixed difference variation of periodic symbols, and
piecewise gluing of multiplier families.

A periodic symbol of dimension d with half-period L is an array of shape
(2L,)*d in the wrap-around layout of :mod:`harmonic_lab.spectral`.  The
dyadic rectangle with index vector k is the product of the intervals D(k_j),
where D(0) = (-1, 1), D(l) = [2^(l-1), 2^l) for l >= 1, and
D(l) = (-2^|l|, -2^(|l|-1)] for l <= -1.  These intervals partition the real
line, so every integer frequency has exactly one index per axis.

The local variation of a symbol over a rectangle takes, for each choice of
summed versus sup axes, nested reductions of the mixed forward differences;
summed axes drop the largest element of their index set.  The total
variation takes full sums and the supremum over all rectangles.

Both are evaluated for every rectangle at once.  Each axis is reordered
into ascending frequency, where every dyadic interval is a contiguous
segment; the absolute mixed difference is formed once per flag vector and
reduced over all segments together with ``np.add.reduceat`` (summed axes)
or ``np.maximum.reduceat`` (sup axes), innermost axis first.  A summed
axis drops its largest element by zeroing the last entry of each segment,
which is exact because the terms are nonnegative.
"""

from __future__ import annotations

import itertools
import logging
from typing import NamedTuple

import numpy as np

__all__ = [
    "DyadicInterval",
    "dyadic_interval",
    "dyadic_integers",
    "dyadic_index_of",
    "dyadic_rectangle_is_empty",
    "dominant_axis",
    "alpha_difference",
    "VariationTable",
    "variation_table",
    "local_variation",
    "total_variation",
    "glue_local_symbols",
    "derivative_variation_bound",
]

logger = logging.getLogger(__name__)


class DyadicInterval(NamedTuple):
    """A one-dimensional dyadic interval with its endpoint conventions."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def contains(self, x) -> bool:
        above = x >= self.lo if self.closed_lo else x > self.lo
        below = x <= self.hi if self.closed_hi else x < self.hi
        return bool(above and below)


def dyadic_interval(level: int) -> DyadicInterval:
    """The interval D(level) of the two-sided dyadic partition of the line."""
    if level == 0:
        return DyadicInterval(-1.0, 1.0, False, False)
    if level >= 1:
        return DyadicInterval(2.0 ** (level - 1), 2.0**level, True, False)
    m = -level
    return DyadicInterval(-(2.0**m), -(2.0 ** (m - 1)), False, True)


def dyadic_integers(level: int, L: int) -> np.ndarray:
    """Integers in D(level) intersected with {-L+1, ..., L}, ascending."""
    if level == 0:
        return np.array([0]) if L >= 1 else np.array([], dtype=int)
    if level >= 1:
        lo, hi = 2 ** (level - 1), min(2**level - 1, L)
    else:
        m = -level
        lo, hi = max(-(2**m) + 1, -L + 1), -(2 ** (m - 1))
    if lo > hi:
        return np.array([], dtype=int)
    return np.arange(lo, hi + 1)


def dyadic_index_of(nu, L: int | None = None):
    """Per-axis dyadic level of an integer frequency vector.

    When ``L`` is given, frequencies are first reduced to their
    representative in {-L+1, ..., L} modulo 2L.
    """
    arr = np.asarray(nu)
    if L is not None:
        arr = (arr + L - 1) % (2 * L) - L + 1
    mag = np.abs(arr)
    # bit_length via frexp, one less where the float copy of an integer
    # above 2**53 rounded up to the next power of two
    bits = np.frexp(mag.astype(float))[1]
    bits = bits - ((mag >> np.maximum(bits - 1, 0)) == 0)
    level = np.where(arr > 0, bits, np.where(arr < 0, -bits, 0))
    return int(level) if level.ndim == 0 else level


def dyadic_rectangle_is_empty(k, L: int) -> bool:
    """Whether the rectangle for index vector ``k`` misses the stored grid."""
    return any(dyadic_integers(level, L).size == 0 for level in k)


def dominant_axis(k) -> int:
    """First axis attaining the largest absolute dyadic level."""
    k = [abs(int(level)) for level in k]
    return k.index(max(k))


def alpha_difference(a: np.ndarray, i: int, alpha: int) -> np.ndarray:
    """Forward difference along axis ``i`` when alpha = 1, identity when 0.

    The difference wraps periodically: position j picks up a(j+1) - a(j)
    with j + 1 taken modulo the period.
    """
    if alpha == 0:
        return a
    if alpha != 1:
        raise ValueError(f"difference flag must be 0 or 1, got {alpha}")
    return np.roll(a, -1, axis=i) - a


def _nonempty_levels(L: int) -> list:
    levels = [0]
    levels.extend(range(1, int(L).bit_length() + 1))
    levels.extend(-m for m in range(1, int(L - 1).bit_length() + 1))
    return sorted(levels)


class VariationTable(NamedTuple):
    """Local variation of every dyadic rectangle and the total variation.

    ``local[i_0, ..., i_{d-1}]`` belongs to the rectangle with index vector
    ``(levels[i_0], ..., levels[i_{d-1}])``; ``levels`` lists the nonempty
    levels in ascending order.
    """

    levels: tuple
    local: np.ndarray
    total: float


def variation_table(a: np.ndarray, L: int) -> VariationTable:
    """Local variation of ``a`` over every nonempty dyadic rectangle and its
    total variation, from a single pass over the mixed differences."""
    a = np.asarray(a)
    d = a.ndim
    if a.shape != (2 * L,) * d:
        raise ValueError(f"symbol shape {a.shape} does not match half-period {L}")
    levels = _nonempty_levels(L)
    # ascending frequency -L+1..L (the argsort of spectral.index_grid(L)):
    # every dyadic interval becomes one contiguous segment, and the periodic
    # forward neighbour is still the next position
    order = (np.arange(2 * L) + L + 1) % (2 * L)
    for ax in range(d):
        a = np.take(a, order, axis=ax)
    starts = np.array([dyadic_integers(level, L)[0] + L - 1 for level in levels])
    lasts = np.append(starts[1:], 2 * L) - 1
    local = total = np.zeros((len(levels),) * d)
    for alpha in itertools.product((0, 1), repeat=d):
        diff = a
        for ax, flag in enumerate(alpha):
            diff = alpha_difference(diff, ax, flag)
        full = np.abs(diff)
        # a summed axis drops the largest frequency of each segment; the
        # terms are nonnegative, so a zero there drops it, and a singleton
        # segment sums to 0, which never beats the initial 0
        dropped = full.copy()
        for ax, flag in enumerate(alpha):
            if flag:
                dropped[(slice(None),) * ax + (lasts,)] = 0.0
        # innermost axis first, as in the nested sum/sup of the definition
        for ax in reversed(range(d)):
            reduce = np.add.reduceat if alpha[ax] else np.maximum.reduceat
            full = reduce(full, starts, axis=ax)
            dropped = reduce(dropped, starts, axis=ax)
        total = np.maximum(total, full)
        local = np.maximum(local, dropped)
    return VariationTable(tuple(levels), local, float(total.max()))


def local_variation(a: np.ndarray, k, L: int) -> float:
    """Mixed sum/sup variation of ``a`` over the dyadic rectangle ``k``.

    Maximizes over per-axis flags: flagged axes sum absolute forward
    differences over their index set minus its maximum, unflagged axes take
    the supremum over the full set.  An empty rectangle yields 0.
    """
    a = np.asarray(a)
    d = a.ndim
    k = tuple(int(level) for level in k)
    if len(k) != d:
        raise ValueError(f"index vector {k} has wrong length for a {d}-d symbol")
    if dyadic_rectangle_is_empty(k, L):
        logger.debug("empty dyadic rectangle %s at L=%d treated as 0", k, L)
        return 0.0
    table = variation_table(a, L)
    return float(table.local[tuple(table.levels.index(level) for level in k)])


def total_variation(a: np.ndarray, L: int) -> float:
    """Supremum over dyadic rectangles of the full mixed-difference sums."""
    return variation_table(a, L).total


def glue_local_symbols(family: dict, L: int) -> np.ndarray:
    """Assemble a symbol taking the value of family[k] on rectangle k.

    ``family`` maps dyadic index vectors (tuples) to full symbol arrays of
    shape (2L,)*d.  Every index with a nonempty rectangle must be present.
    A table maps each rectangle to its member, counting a member shared by
    several rectangles once; one ``np.ix_`` gather spreads the table over the
    grid, and ``np.choose`` picks each point's value from its member.
    """
    shapes = {np.shape(v) for v in family.values()}
    if len(shapes) != 1:
        raise ValueError(f"family members disagree on shape: {shapes}")
    (shape,) = shapes
    d = len(shape)
    if shape != (2 * L,) * d:
        raise ValueError(f"symbol shape {shape} does not match half-period {L}")
    levels = _nonempty_levels(L)
    members, slot = [], {}
    table = np.empty((len(levels),) * d, dtype=np.intp)
    for pos in itertools.product(range(len(levels)), repeat=d):
        k = tuple(levels[j] for j in pos)
        if k not in family:
            raise KeyError(f"family member for dyadic index {k} is missing")
        member = family[k]
        if id(member) not in slot:
            slot[id(member)] = len(members)
            members.append(np.asarray(member))
        table[pos] = slot[id(member)]
    position = np.searchsorted(levels, dyadic_index_of(np.arange(2 * L), L))
    labels = table[np.ix_(*[position] * d)]
    out = np.zeros(shape, dtype=complex)
    # np.choose takes at most 31 arrays before numpy 2 (63 since): the
    # output so far and 30 members
    for start in range(0, len(members), 30):
        chunk = members[start : start + 30]
        inside = (labels >= start) & (labels < start + len(chunk))
        np.choose(np.where(inside, labels - start + 1, 0), [out, *chunk], out=out)
    return out


def derivative_variation_bound(A, k, L: int, points: int = 64) -> float:
    """Sampled estimate of max over flags of sup |xi^alpha * d^alpha A(xi)|
    on the dyadic rectangle ``k`` clipped to [-L+1, L] per axis.

    ``A`` maps arrays with the frequency components on the last axis to
    values.  Mixed first partials are estimated by central differences with
    step 1e-4 of the axis scale; the result is a diagnostic estimate, not a
    certified bound.
    """
    k = tuple(int(level) for level in k)
    d = len(k)
    axes = []
    steps = []
    for level in k:
        iv = dyadic_interval(level)
        lo, hi = max(iv.lo, -L + 1), min(iv.hi, float(L))
        if lo > hi:
            raise ValueError(f"dyadic rectangle {k} is empty at L={L}")
        scale = max(abs(lo), abs(hi), 1.0)
        step = 1e-4 * scale
        # stay strictly inside the open hull so the difference stencil is safe
        pad = 2 * step
        lo_s, hi_s = lo + pad, hi - pad
        if lo_s > hi_s:
            lo_s = hi_s = 0.5 * (lo + hi)
        axes.append(np.linspace(lo_s, hi_s, points))
        steps.append(step)
    grids = np.meshgrid(*axes, indexing="ij")
    xi = np.stack(grids, axis=-1)

    def stencil(alpha):
        # evaluate A on the 2^|alpha| shifted grids of the central stencil
        active = [ax for ax, flag in enumerate(alpha) if flag]
        vals = 0.0
        for signs in itertools.product((-1, 1), repeat=len(active)):
            shifted = xi.copy()
            coeff = 1.0
            for ax, s in zip(active, signs):
                shifted[..., ax] += s * steps[ax]
                coeff *= s / (2 * steps[ax])
            vals = vals + coeff * np.asarray(A(shifted))
        return vals

    best = 0.0
    for alpha in itertools.product((0, 1), repeat=d):
        deriv = stencil(alpha)
        weight = np.ones(xi.shape[:-1])
        for ax, flag in enumerate(alpha):
            if flag:
                weight = weight * xi[..., ax]
        best = max(best, float(np.abs(weight * deriv).max()))
    return best
