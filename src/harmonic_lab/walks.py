"""Simple-random-walk exit sampling on the upper half lattice.

A walk starts at height z above the hyperplane, takes uniform nearest
neighbour steps in Z^d, and stops on first contact with height 0.  The
module samples the horizontal exit offset, aggregates Monte Carlo kernel
estimates, and evaluates the continuum kernel and the kernel-variation
constant for comparison against the spectral machinery.

The sampler factors the walk instead of stepping it: the number of
vertical moves to first contact follows the classical first-passage law
of the 1-d walk, the horizontal move count between those is negative
binomial, and the horizontal displacement is a multinomially split
binomial.  The test suite cross-checks it against a literal step-by-step
reference walker (``tests/oracles.py``) and against the spectral kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .halfspace import periodized_poisson_kernel

__all__ = [
    "WalkConfig",
    "KernelEstimate",
    "poisson_kernel_mc",
    "mc_exit_array",
    "continuum_kernel",
    "kernel_variation_constant",
]

logger = logging.getLogger(__name__)

DEFAULT_STEP_CAP = 10_000_000

#: a walk hitting the step cap this many times in a row aborts the run
MAX_RESAMPLE_ATTEMPTS = 10


@dataclass(frozen=True)
class WalkConfig:
    d: int
    z: int
    seed: int = 0
    max_steps: int = DEFAULT_STEP_CAP

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"walk dimension must be at least 2, got {self.d}")
        if self.z < 1:
            raise ValueError(f"start height must be at least 1, got {self.z}")
        if self.max_steps < 1:
            raise ValueError("step cap must be positive")


@dataclass(frozen=True)
class KernelEstimate:
    """Windowed empirical exit distribution.

    probabilities maps each in-window offset that occurred to
    (relative frequency, binomial standard error); counts keeps the raw
    tallies so mass accounting stays exact in integers.
    """

    probabilities: dict
    counts: dict
    out_of_window: float
    out_count: int
    n_samples: int


def _walk_generator(seed, walk_index, attempt):
    bits = np.random.Philox(key=seed, counter=[0, walk_index, attempt, 0])
    return np.random.Generator(bits)


@lru_cache(maxsize=None)
def _vertical_hit_cdf(z: int, cap: int) -> np.ndarray:
    """CDF of the first time a 1-d simple walk from z hits 0, on the
    support {z, z+2, ...} up to cap.

    Uses the hitting-time identity P(V = n) = (z/n) P(walk at -z after n
    steps) = (z/n) C(n, (n+z)/2) 2^(-n).
    """
    ns = np.arange(z, cap + 1, 2, dtype=np.float64)
    log_pmf = (
        math.log(z)
        - np.log(ns)
        + gammaln(ns + 1.0)
        - gammaln((ns + z) / 2.0 + 1.0)
        - gammaln((ns - z) / 2.0 + 1.0)
        - ns * math.log(2.0)
    )
    return np.cumsum(np.exp(log_pmf))


def _split_axes(gen, total, naxes):
    counts = []
    remaining = int(total)
    for i in range(naxes - 1):
        c = int(gen.binomial(remaining, 1.0 / (naxes - i)))
        counts.append(c)
        remaining -= c
    counts.append(remaining)
    return counts


def _direct_exit(gen, d, z, cap):
    """One exit offset through the first-passage factorization; None when
    the implied walk length exceeds the cap."""
    cdf = _vertical_hit_cdf(z, cap)
    u = gen.random()
    if u > cdf[-1]:
        return None
    vertical = z + 2 * int(np.searchsorted(cdf, u, side="left"))
    horizontal = int(gen.negative_binomial(vertical, 1.0 / d))
    if vertical + horizontal > cap:
        return None
    offset = []
    for steps in _split_axes(gen, horizontal, d - 1):
        offset.append(2 * int(gen.binomial(steps, 0.5)) - steps)
    return tuple(offset)


def _simulate_exits(cfg: WalkConfig, n_samples: int) -> np.ndarray:
    """Exit offsets for walks 0..n_samples-1 as an (n, d-1) int array."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    offsets = np.empty((n_samples, cfg.d - 1), dtype=np.int64)
    capped = 0
    for w in range(n_samples):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS + 1):
            gen = _walk_generator(cfg.seed, w, attempt)
            result = _direct_exit(gen, cfg.d, cfg.z, cfg.max_steps)
            if result is not None:
                offsets[w] = result
                break
            capped += 1
            logger.debug(
                "walk %d attempt %d hit the %d-step cap",
                w,
                attempt,
                cfg.max_steps,
            )
        else:
            raise RuntimeError(
                f"walk {w} exceeded the step cap in "
                f"{MAX_RESAMPLE_ATTEMPTS + 1} consecutive attempts"
            )
    if capped:
        logger.warning(
            "%d capped attempts while sampling %d walks (z=%d); each was "
            "resampled on a fresh stream",
            capped,
            n_samples,
            cfg.z,
        )
    return offsets


def poisson_kernel_mc(cfg: WalkConfig, n_samples: int, window: int) -> KernelEstimate:
    """Empirical exit distribution restricted to |offset|_inf <= window.

    Mass landing outside the window is accounted separately, so recorded
    counts plus the out-of-window count always total n_samples.
    """
    if window < 0:
        raise ValueError("window radius must be nonnegative")
    offsets = _simulate_exits(cfg, n_samples)
    inside = np.abs(offsets).max(axis=1) <= window
    kept, tallies = np.unique(offsets[inside], axis=0, return_counts=True)
    counts = {}
    probabilities = {}
    for row, c in zip(kept, tallies):
        key = tuple(int(v) for v in row)
        counts[key] = int(c)
        p = c / n_samples
        probabilities[key] = (p, math.sqrt(p * (1.0 - p) / n_samples))
    out_count = int(n_samples - inside.sum())
    return KernelEstimate(
        probabilities=probabilities,
        counts=counts,
        out_of_window=out_count / n_samples,
        out_count=out_count,
        n_samples=n_samples,
    )


def mc_exit_array(cfg: WalkConfig, n_samples: int, L: int) -> np.ndarray:
    """Empirical exit frequencies folded onto the period-2L lattice, in the
    wrap-around layout of the spectral kernels.  No mass is lost, which
    makes the result directly comparable to periodized_poisson_kernel."""
    offsets = _simulate_exits(cfg, n_samples)
    folded = np.mod(offsets, 2 * L)
    freq = np.zeros((2 * L,) * (cfg.d - 1))
    np.add.at(freq, tuple(folded.T), 1.0)
    return freq / n_samples


def continuum_kernel(x, z, d: int = 2):
    """Leading-order continuum half-space Poisson kernel 2z / (omega_d
    (|x|^2 + z^2)^(d/2)), with omega_d the unit sphere area in R^d."""
    x = np.asarray(x, dtype=float)
    if d == 2:
        r2 = x**2
    else:
        if x.shape[-1] != d - 1:
            raise ValueError(f"offsets need {d - 1} components, got {x.shape}")
        r2 = (x**2).sum(axis=-1)
    if np.any(r2 + z * z == 0):
        raise ValueError("kernel undefined at the origin with z = 0")
    omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return 2.0 * z / (omega * (r2 + z * z) ** (d / 2.0))


def kernel_variation_constant(z: int, L: int, d: int = 2) -> float:
    """z times the summed first-axis increments of the periodized spectral
    kernel; bounded in z, with L controlling the periodization."""
    kernel = periodized_poisson_kernel(z, d, L)
    return float(z * np.abs(kernel - np.roll(kernel, 1, axis=0)).sum())
