"""Simple-random-walk exit sampling on the upper half lattice.

A walk starts at height z above the hyperplane, takes uniform nearest
neighbour steps in Z^d, and stops on first contact with height 0.  The
module samples the horizontal exit offset, aggregates Monte Carlo kernel
estimates, and evaluates the continuum kernel and the kernel-variation
constant for comparison against the spectral machinery.

The sampler factors the walk instead of stepping it: the number of
vertical moves to first contact follows the classical first-passage law
of the 1-d walk.  Its head is tabulated from P(V = z) = 2^-z and
P(V = n+2) / P(V = n) = n(n+1) / ((n+z+2)(n-z+2)) and streamed, one
chunk of CDF_CHUNK entries held at a time, until at most TAIL_SWITCH of
the mass lies beyond it or the step cap is reached.  The rest is
inverted in closed form: by the reflection principle (Lawler & Limic,
Random Walk: A Modern Introduction)
P(V > z+2k) = P(k <= Bin(z+2k, 1/2) <= k+z-1), whose first binomial
term comes from Loader's saddle-point method (C. Loader, "Fast and
Accurate Computation of Binomial Probabilities", 2000) and the others
from the pmf ratio, and each uniform left over is placed by bisection.
The horizontal move count between vertical moves is negative binomial,
and the horizontal displacement is a multinomially split binomial.
Walks are drawn in blocks of BLOCK, each from its own Philox stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
with every draw vectorized over the block; whole blocks are simulated
and truncated, so the first n walks do not depend on how many are
requested.  A walk longer than the step cap is not resampled but
reported as unresolved mass, next to the out-of-window mass, so no
estimate is conditioned on the walk length; the tail
P(V > n) ~ z sqrt(2 / (pi n)) sets its size.  The test suite
cross-checks the sampler against a literal step-by-step reference
walker (``tests/oracles.py``) and against the spectral kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

#: walks per Philox stream
BLOCK = 4096

#: bound on the work of streaming the head of the hitting-time table, not
#: on memory: the head's longest length, one entry per two steps up to the
#: cap, counted as the bytes three float64 arrays of that length would
#: take.  Only large heights need the head all the way to the cap.
CDF_TABLE_BUDGET = 2**30

#: table entries built at a time; a chunk's 512 KiB arrays stay in cache
CDF_CHUNK = 2**16

#: the head ends at the first chunk boundary with at most this much mass
#: beyond it; the closed-form tail places the uniforms above that
TAIL_SWITCH = 2.0**-6

#: Loader's Stirling-formula error log(n!) - log(sqrt(2 pi n) (n/e)^n) at
#: n = 0..15, where its Stirling series is not yet accurate (entry 0 unused)
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])

#: the table starts from 2^-z, a normal double only up to this height
MAX_START_HEIGHT = 1022


@dataclass(frozen=True)
class WalkConfig:
    d: int
    z: int
    seed: int = 0
    max_steps: int = DEFAULT_STEP_CAP

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"walk dimension must be at least 2, got {self.d}")
        if not 1 <= self.z <= MAX_START_HEIGHT:
            raise ValueError(
                f"start height must be in [1, {MAX_START_HEIGHT}], got {self.z}"
            )
        if self.max_steps < self.z:
            raise ValueError(f"step cap {self.max_steps} is below the height {self.z}")
        table_bytes = 3 * 8 * ((self.max_steps - self.z) // 2 + 1)
        if table_bytes > CDF_TABLE_BUDGET:
            raise ValueError(
                f"step cap {self.max_steps} needs {table_bytes >> 20} MiB for its "
                f"hitting-time table, above the {CDF_TABLE_BUDGET >> 20} MiB budget"
            )


@dataclass(frozen=True)
class KernelEstimate:
    """Windowed empirical exit distribution.

    probabilities maps each in-window offset that occurred to
    (relative frequency, binomial standard error); counts keeps the raw
    tallies so mass accounting stays exact in integers: the counts, the
    out-of-window count and the unresolved count total n_samples.
    """

    probabilities: dict
    counts: dict
    out_of_window: float
    out_count: int
    unresolved: float
    unresolved_count: int
    n_samples: int


def _cdf_chunks(z: int, cap: int, chunk: int = CDF_CHUNK):
    """CDF of the first time a 1-d simple walk from z hits 0, on the
    support {z, z+2, ...} up to cap: the first entry, then chunks of at most
    ``chunk`` entries built from the pmf ratio.  Each chunk continues the
    last product and running sum of the one before, so the entries equal a
    one-shot cumprod and cumsum bit for bit."""
    size = (cap - z) // 2 + 1
    prod = total = 2.0**-z
    yield np.array([total])
    for start in range(1, size, chunk):
        stop = min(start + chunk, size)
        n = np.arange(z + 2 * start - 2, z + 2 * stop - 2, 2, dtype=np.float64)
        buf = np.empty(n.size + 1)
        ratio = buf[1:]
        np.add(n, 1.0, out=ratio)
        ratio *= n
        den = n + (z + 2)
        n -= z - 2
        den *= n
        ratio /= den
        buf[0] = prod
        prod = np.cumprod(buf, out=buf)[-1]
        buf[0] = total
        total = np.cumsum(buf, out=buf)[-1]
        yield buf[1:]


def _stirlerr(n):
    """Loader's log(n!) - log(sqrt(2 pi n) (n/e)^n) for integer-valued
    float n >= 1: the table up to 15, the Stirling series above."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn)
                        / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR_TABLE[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(x, m):
    """Loader's deviance x log(x/m) + m - x, by its series in
    v = (x-m)/(x+m) where |x-m| < (x+m)/10 and directly elsewhere."""
    d = x - m
    near = np.abs(d) < 0.1 * (x + m)
    v = np.where(near, d / (x + m), 0.0)
    s = d * v
    term = 2.0 * x * v
    v *= v
    for j in range(3, 41, 2):
        term *= v
        step = s + term / j
        if np.array_equal(step, s):
            break
        s = step
    return np.where(near, s, x * np.log(x / m) + m - x)


def _hit_tail(z: int, k: np.ndarray) -> np.ndarray:
    """P(V > z + 2k) for integer k >= 1, by the reflection principle the
    binomial sum P(k <= Bin(z+2k, 1/2) <= k+z-1): its first term from
    Loader's saddle-point formula, the others by the pmf ratio
    (n-x)/(x+1), all z of them multiplied out in one cumprod per row."""
    x = np.asarray(k, dtype=np.float64)
    n = 2.0 * x + z
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(x + z)
          - _bd0(x, n / 2) - _bd0(x + z, n / 2))
    terms = np.empty((x.size, z))
    terms[:, 0] = np.exp(lc) * np.sqrt(n / (2 * math.pi * x * (x + z)))
    j = np.arange(z - 1)
    terms[:, 1:] = (x[:, None] + (z - j)) / (x[:, None] + (j + 1))
    return np.cumprod(terms, axis=1).sum(axis=1)


def _hit_counts(z: int, cap: int, u: np.ndarray, chunk: int = CDF_CHUNK):
    """Index of the first hitting-time CDF entry at or above each uniform
    of a 1-d ``u``, or the table length.  The head is searched as
    ``searchsorted(table, u, side="left")``, streamed: a chunk is searched
    only for the uniforms above every entry before it, and streaming stops
    at the first chunk boundary with at most TAIL_SWITCH mass beyond it.
    Each uniform above the head gets, by bisection, the first k in
    [head length, table length) with P(V > z + 2k) <= 1 - u (exact for u
    on the 2^-53 grid), or the table length.  The switch depends on
    (z, cap, chunk) alone, so counts stay prefix-stable."""
    size = (cap - z) // 2 + 1
    counts = np.zeros(u.shape, dtype=np.intp)
    live = np.arange(u.size)
    head = 0
    for part in _cdf_chunks(z, cap, chunk):
        counts[live] += np.searchsorted(part, u[live], side="left")
        live = live[u[live] > part[-1]]
        head += part.size
        if not live.size or 1.0 - part[-1] <= TAIL_SWITCH:
            break
    if live.size and head < size:
        mass = 1.0 - u[live]
        lo = np.full(live.size, head)
        hi = np.full(live.size, size)
        for _ in range((size - head).bit_length()):
            mid = (lo + hi) // 2
            below = _hit_tail(z, mid) <= mass
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, np.minimum(mid + 1, hi))
        counts[live] = lo
    return counts


def _simulate_block(cfg: WalkConfig, gen, below):
    """Offsets (zero when unresolved) and unresolved mask of a block whose
    uniforms, drawn first from ``gen``, have ``below`` table entries under
    them.  Block b reads Philox at counter (0, b, 0, 1), apart from the
    reference walker's (0, walk, attempt, 0).  A uniform above the whole
    table puts the vertical count past the cap, so the step test covers it."""
    vertical = cfg.z + 2 * below
    horizontal = gen.negative_binomial(vertical, 1.0 / cfg.d)
    unresolved = vertical + horizontal > cfg.max_steps
    steps = gen.multinomial(horizontal, [1.0 / (cfg.d - 1)] * (cfg.d - 1))
    offsets = 2 * gen.binomial(steps, 0.5) - steps
    offsets[unresolved] = 0
    return offsets, unresolved


@lru_cache(maxsize=1)
def _simulate_exits(cfg: WalkConfig, n_samples: int):
    """Read-only (n, d-1) exit offsets and (n,) unresolved mask of walks
    0..n_samples-1.  The last call is cached, so the two estimators of one
    report share a single simulation."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    gens = [np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, b, 0, 1]))
            for b in range(-(-n_samples // BLOCK))]
    u = np.concatenate([gen.random(BLOCK) for gen in gens])
    below = _hit_counts(cfg.z, cfg.max_steps, u).reshape(-1, BLOCK)
    blocks = [_simulate_block(cfg, *row) for row in zip(gens, below)]
    offsets, unresolved = (np.concatenate(part)[:n_samples] for part in zip(*blocks))
    if unresolved.any():
        logger.warning(
            "%d capped attempts while sampling %d walks (z=%d); they are reported "
            "as unresolved", int(unresolved.sum()), n_samples, cfg.z,
        )
    offsets.flags.writeable = False
    unresolved.flags.writeable = False
    return offsets, unresolved


def poisson_kernel_mc(cfg: WalkConfig, n_samples: int, window: int) -> KernelEstimate:
    """Empirical exit distribution restricted to |offset|_inf <= window.

    Mass landing outside the window and walks left unresolved by the step
    cap are accounted separately, so recorded counts plus the
    out-of-window and unresolved counts always total n_samples.
    """
    if window < 0:
        raise ValueError("window radius must be nonnegative")
    offsets, unresolved = _simulate_exits(cfg, n_samples)
    inside = (np.abs(offsets).max(axis=1) <= window) & ~unresolved
    # one integer key per offset, in the lexicographic order of the offsets;
    # a bincount over all (2 window + 1)^(d-1) keys would not stay bounded
    shape = (2 * window + 1,) * offsets.shape[1]
    keys = np.ravel_multi_index(tuple((offsets[inside] + window).T), shape)
    kept, tallies = np.unique(keys, return_counts=True)
    rows = np.stack(np.unravel_index(kept, shape), axis=1) - window
    counts = {}
    probabilities = {}
    for row, c in zip(rows, tallies):
        key = tuple(int(v) for v in row)
        counts[key] = int(c)
        p = c / n_samples
        probabilities[key] = (p, math.sqrt(p * (1.0 - p) / n_samples))
    unresolved_count = int(unresolved.sum())
    out_count = int(n_samples - inside.sum()) - unresolved_count
    return KernelEstimate(
        probabilities=probabilities,
        counts=counts,
        out_of_window=out_count / n_samples,
        out_count=out_count,
        unresolved=unresolved_count / n_samples,
        unresolved_count=unresolved_count,
        n_samples=n_samples,
    )


def mc_exit_array(cfg: WalkConfig, n_samples: int, L: int) -> np.ndarray:
    """Empirical exit frequencies of the resolved walks folded onto the
    period-2L lattice, in the wrap-around layout of the spectral kernels.
    No exit is lost to the folding, so the array sums to one minus the
    unresolved fraction and compares directly with
    periodized_poisson_kernel."""
    offsets, unresolved = _simulate_exits(cfg, n_samples)
    shape = (2 * L,) * (cfg.d - 1)
    cells = np.ravel_multi_index(tuple(np.mod(offsets[~unresolved], 2 * L).T), shape)
    tallies = np.bincount(cells, minlength=math.prod(shape))
    return tallies.reshape(shape) / n_samples


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
