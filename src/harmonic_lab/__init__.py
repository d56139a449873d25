"""Discrete harmonic functions on lattice boxes, strips, and half-spaces.

The package bundles the pieces needed to experiment with gradient estimates
for discrete harmonic functions: lattice geometry and norms, a discrete
Fourier layer with the propagation symbols, dyadic variation machinery for
multiplier bounds, spectral layer propagation on periodic half-spaces,
box gradient operators, and random-walk estimators for the discrete
Poisson kernel.  The ``cli`` module drives reproducible experiment sweeps.

Submodules load on first access, so importing the package loads none of
them.
"""

import importlib

__all__ = ["boxes", "dyadic", "halfspace", "lattice", "spectral", "walks"]
__version__ = "0.1.0"

#: bytes a sweep cell, a symbol report or a kernel report may take by
#: estimate; each refuses, before it allocates, what would pass it
MEMORY_BUDGET = 2**31


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
