"""Dyadic rectangles, the mixed difference variation of periodic symbols,
and the dominant axis of every rectangle.

A periodic symbol of dimension d with half-period L is an array of shape
(2L,)*d in the wrap-around layout of :mod:`harmonic_lab.spectral`.  The
dyadic rectangle with index vector k is the product of the intervals D(k_j),
where D(0) = (-1, 1), D(l) = [2^(l-1), 2^l) for l >= 1, and
D(l) = (-2^|l|, -2^(|l|-1)] for l <= -1.  These intervals partition the real
line, so every integer frequency has exactly one index per axis.
``dyadic_index_of`` is the one encoding of this partition: every other
rectangle quantity here is derived from the level of each frequency.

The local variation of a symbol over a rectangle takes, for each choice of
summed versus sup axes, nested reductions of the mixed forward differences;
summed axes drop the largest element of their index set.  The total
variation takes full sums and the supremum over all rectangles.

``variation_table`` evaluates both for every nonempty rectangle at once.
Each axis is reordered into ascending frequency, where the level never
decreases, so every dyadic interval is a contiguous segment that starts
where the level changes; the absolute mixed difference is formed once per
flag vector and reduced over all segments together with
``np.add.reduceat`` (summed axes) or ``np.maximum.reduceat`` (sup axes),
innermost axis first.  A summed axis drops its largest element by zeroing
the last entry of each segment, which is exact because the terms are
nonnegative.  The symbol is a function of its axis-0 rows, read once, in
blocks of ``BLOCK_ENTRIES`` entries of whole rows (at least one), so it is
never held whole.  Each block also holds the row after its last, the
forward neighbour along axis 0, carried over from the block before and
wrapping around from the first row; it is reduced over axes d-1..1, and
the per-row partials of all blocks over axis 0 last, which are the
reductions of the whole symbol, bit for bit.  The flag
vectors that take the sup along axis 0 share one running elementwise
maximum of their partials, since their results are only combined by
maximum, which is exact in any order.

``dominant_axes`` labels each stored frequency with the first axis of
largest |level|, the axis whose quotient symbol a glued multiplier takes on
that frequency's rectangle (``spectral.grid_symbols`` glues the Dirichlet
symbol by it).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

#: entries of the symbol that ``variation_table`` reads in one block of
#: whole axis-0 rows (at least one row)
BLOCK_ENTRIES = 2**13

__all__ = [
    "dyadic_index_of",
    "dominant_axes",
    "alpha_difference",
    "VariationTable",
    "variation_table",
    "variation_footprint",
]


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


def dominant_axes(naxes: int, L: int, rows=slice(None)) -> np.ndarray:
    """The first axis attaining the largest |level| at every stored
    frequency of the (2L,)*naxes grid, as an intp array of that shape; only
    on the axis-0 storage rows ``rows`` when they are given."""
    # |level| <= 64 fits int8; a running maximum replaced only where an
    # axis is strictly larger keeps the first axis on ties
    mag = np.abs(dyadic_index_of(np.arange(2 * L), L)).astype(np.int8)
    per_axis = [mag[rows]] + [mag] * (naxes - 1)
    labels = np.zeros(tuple(map(len, per_axis)), dtype=np.intp)
    best = np.zeros(labels.shape, dtype=np.int8)
    for ax, on_axis in enumerate(per_axis):
        on_axis = on_axis.reshape((-1,) + (1,) * (naxes - 1 - ax))
        labels[on_axis > best] = ax
        np.maximum(best, on_axis, out=best)
    return labels


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


def _rows_per_block(d: int, L: int) -> int:
    return max(1, BLOCK_ENTRIES // (2 * L) ** (d - 1))


def variation_footprint(d: int, L: int, count: int) -> tuple:
    """What ``variation_table`` holds for ``count`` symbols of ``d`` axes
    stacked on one grid of half-period L: the entries of one block with the
    row after it, and the bytes of the per-row partial reductions (full and
    dropped of every symbol, in float64, for each of the 2^(d-1) flag
    vectors that sum along axis 0 and once for all that take the sup)."""
    levels = dyadic_index_of(L) - dyadic_index_of(1 - L) + 1
    row = (2 * L) ** (d - 1)
    partials = (2 ** (d - 1) + 1) * 2 * count * 2 * L * levels ** (d - 1) * 8
    return (_rows_per_block(d, L) + 1) * row, partials


class VariationTable(NamedTuple):
    """Local variation of every dyadic rectangle and the total variation.

    ``local[i_0, ..., i_{d-1}]`` belongs to the rectangle with index vector
    ``(levels[i_0], ..., levels[i_{d-1}])``; ``levels`` lists the nonempty
    levels in ascending order.  Symbols stacked on trailing axes keep them
    in ``local`` and in ``total``, which is otherwise a float.
    """

    levels: tuple
    local: np.ndarray
    total: float | np.ndarray


def variation_table(read, L: int, d: int) -> VariationTable:
    """Local variation of a symbol over every nonempty dyadic rectangle and
    its total variation, from a single pass over the mixed differences.

    ``read`` returns the symbol on an integer array of axis-0 storage rows,
    shaped (len(rows), 2L, ..., 2L) with ``d`` symbol axes and any trailing
    axes that stack several symbols of one grid (``spectral.grid_symbols``;
    ``a.__getitem__`` reads an array ``a``).  It is read once, a block of
    ``BLOCK_ENTRIES`` entries (at least one row) at a time.
    """
    # ascending frequency -L+1..L (the argsort of spectral.index_grid(L)):
    # every dyadic interval becomes one contiguous segment, and the periodic
    # forward neighbour is still the next position
    order = (np.arange(2 * L) + L + 1) % (2 * L)
    level = dyadic_index_of(np.arange(-L + 1, L + 1))
    starts = np.flatnonzero(np.diff(level, prepend=level[0] - 1))
    levels = level[starts]
    lasts = np.append(starts[1:], 2 * L) - 1
    flags = list(itertools.product((0, 1), repeat=d))
    # per-row (full, dropped), reduced over every axis but 0, of each flag
    # vector that sums along axis 0, and under None the running maximum of
    # all the others; the terms are nonnegative, so every entry starts at 0
    partials = {}

    def mixed_difference(block, alpha):
        diff = block[1:] - block[:-1] if alpha[0] else block[:-1]
        for ax in range(1, d):
            diff = alpha_difference(diff, ax, alpha[ax])
        return diff

    def reduce_rows(block, first):
        # ascending rows first.. of block, each followed by its forward
        # neighbour, so block holds one row more than it reduces
        n = len(block) - 1
        own = lasts[(lasts >= first) & (lasts < first + n)] - first
        for alpha in flags:
            full = np.abs(mixed_difference(block, alpha))
            # a summed axis drops the largest frequency of each segment; the
            # terms are nonnegative, so a zero there drops it, and a singleton
            # segment sums to 0, which never beats the initial 0
            dropped = full.copy()
            for ax, flag in enumerate(alpha):
                if flag:
                    dropped[(slice(None),) * ax + ((own if ax == 0 else lasts),)] = 0.0
            # innermost axis first, as in the nested sum/sup of the definition
            for ax in reversed(range(1, d)):
                reduce = np.add.reduceat if alpha[ax] else np.maximum.reduceat
                full = reduce(full, starts, axis=ax)
                dropped = reduce(dropped, starts, axis=ax)
            key = alpha if alpha[0] else None
            if key not in partials:
                partials[key] = np.zeros((2, 2 * L) + full.shape[1:])
            for part, new in zip(partials[key][:, first : first + n], (full, dropped)):
                np.maximum(part, new, out=part)

    # each row is read once: a block starts with the last row of the one
    # before it, and the last row wraps around to the first
    step = _rows_per_block(d, L)
    head = carry = None
    for first in range(0, 2 * L, step):
        rows = read(order[first : first + step])
        for ax in range(1, d):
            rows = np.take(rows, order, axis=ax)
        if carry is None:
            head = rows[:1].copy()
        else:
            rows = np.concatenate([carry, rows])
        carry = rows[-1:].copy()
        reduce_rows(rows, max(first - 1, 0))
        del rows  # before the next block is read
    reduce_rows(np.concatenate([carry, head]), 2 * L - 1)
    # axis 0 last: the same reductions of every row as on the whole symbol
    local = total = 0.0
    for key, (full, dropped) in partials.items():
        reduce = np.maximum.reduceat if key is None else np.add.reduceat
        total = np.maximum(total, reduce(full, starts, axis=0))
        local = np.maximum(local, reduce(dropped, starts, axis=0))
    total = total.max(axis=tuple(range(d)))
    return VariationTable(
        tuple(levels.tolist()), local, float(total) if total.ndim == 0 else total
    )
