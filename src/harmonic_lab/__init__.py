"""Discrete harmonic functions on lattice boxes, strips, and half-spaces.

The package bundles the pieces needed to experiment with gradient estimates
for discrete harmonic functions: lattice geometry and norms, a discrete
Fourier layer with the propagation symbols, dyadic variation machinery for
multiplier bounds, spectral layer propagation on periodic half-spaces,
box gradient operators, and random-walk estimators for the discrete
Poisson kernel.  The ``cli`` module drives reproducible experiment sweeps.

Submodules load on first access, so importing the package loads none of
them.  The rules that several commands keep live here, so no module
imports ``cli``: the generators, cell seeds and the two refusals.
"""

import importlib

__all__ = ["boxes", "dyadic", "halfspace", "lattice", "spectral", "walks"]
__version__ = "0.1.0"

#: boundary data generators of the sweeps
GENERATORS = ("iid-gaussian", "single-mode", "checkerboard")

#: bytes a sweep cell, a symbol report or a kernel report may take by
#: estimate; each refuses, before it allocates, what would pass it
MEMORY_BUDGET = 2**31


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cell_seed(seed, *parts):
    """Generator seed of the cell named by the integers ``parts`` (such as
    d, N, sample) under the master ``seed``, whatever the schedule."""
    import numpy as np

    ss = np.random.SeedSequence([int(seed)] + [int(v) for v in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def refuse_repeats(name, values):
    """Raise a ValueError naming ``name`` if ``values`` holds a value twice."""
    values = tuple(values)
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeats a value: {values}")


def refuse_over_budget(subject, estimate):
    """Raise a ValueError naming ``subject`` when ``estimate`` bytes pass
    ``MEMORY_BUDGET``; callers ask before they allocate."""
    if estimate > MEMORY_BUDGET:
        raise ValueError(f"{subject} needs about {estimate >> 20} MiB, "
                         f"above the {MEMORY_BUDGET >> 20} MiB budget")
