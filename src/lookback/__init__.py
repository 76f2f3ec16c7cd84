"""Floating-strike lookback options on a binomial lattice.

Exact n-period prices (direct sum, closed reduced form, backward
induction), the continuous-model limits, the oscillating asymptotic
expansion connecting the two, and a refined O(n^{-5/2}) normal
approximation of the binomial CDF.

The package root re-exports each module's ``__all__``.
"""

from . import asymptotics, binom_expansion, continuous, errors, lattice, numerics
from .asymptotics import *  # noqa: F403
from .binom_expansion import *  # noqa: F403
from .continuous import *  # noqa: F403
from .errors import *  # noqa: F403
from .lattice import *  # noqa: F403
from .numerics import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, numerics, lattice, continuous, asymptotics, binom_expansion)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
