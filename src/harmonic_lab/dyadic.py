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
nonnegative.

``dominant_axes`` labels each stored frequency with the first axis of
largest |level|, the axis whose quotient symbol a glued multiplier takes on
that frequency's rectangle (``spectral.GridSymbols.dirichlet`` takes the
label grid).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

__all__ = [
    "dyadic_index_of",
    "dominant_axes",
    "alpha_difference",
    "VariationTable",
    "variation_table",
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


def dominant_axes(naxes: int, L: int) -> np.ndarray:
    """The first axis attaining the largest |level| at every stored
    frequency of the (2L,)*naxes grid, as an intp array of that shape."""
    # |level| <= 64 fits int8; a running maximum replaced only where an
    # axis is strictly larger keeps the first axis on ties
    mag = np.abs(dyadic_index_of(np.arange(2 * L), L)).astype(np.int8)
    labels = np.zeros((2 * L,) * naxes, dtype=np.intp)
    best = np.zeros(labels.shape, dtype=np.int8)
    for ax in range(naxes):
        on_axis = mag.reshape((-1,) + (1,) * (naxes - 1 - ax))
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
    # ascending frequency -L+1..L (the argsort of spectral.index_grid(L)):
    # every dyadic interval becomes one contiguous segment, and the periodic
    # forward neighbour is still the next position
    order = (np.arange(2 * L) + L + 1) % (2 * L)
    for ax in range(d):
        a = np.take(a, order, axis=ax)
    level = dyadic_index_of(np.arange(-L + 1, L + 1))
    starts = np.flatnonzero(np.diff(level, prepend=level[0] - 1))
    levels = level[starts]
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
    return VariationTable(tuple(levels.tolist()), local, float(total.max()))

