"""Error taxonomy shared across the package.

Three failure families map onto the CLI exit discipline: invalid inputs
and unusable model parameters exit with status 2, exceeded work budgets
(tree size, the CLI's period caps, the binomial CDFs' largest n) exit
with status 3.
"""

from __future__ import annotations

__all__ = ["LookbackError", "DomainError", "ModelError", "BudgetError"]


class LookbackError(Exception):
    """Base class for all package-specific failures."""


class DomainError(LookbackError, ValueError):
    """An argument lies outside the operation's documented domain."""


class ModelError(LookbackError, ValueError):
    """Market and lattice inputs are individually valid but jointly unusable,
    e.g. a period count too small to keep the risk-neutral probability in (0, 1)."""


class BudgetError(LookbackError, RuntimeError):
    """A work cap was exceeded (tree size, period cap, ``CDF_MAX_N``)."""
