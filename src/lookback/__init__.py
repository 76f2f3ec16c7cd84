"""Floating-strike lookback options on a binomial lattice.

Exact n-period prices (direct sum, closed reduced form, backward
induction), the continuous-model limits, the oscillating asymptotic
expansion connecting the two, and a refined O(n^{-5/2}) normal
approximation of the binomial CDF.
"""

from __future__ import annotations

from .asymptotics import (
    PriceExpansion,
    expansion_coeffs,
    expansion_coeffs_at_emission,
    expansion_price,
    kappa_n,
    residual_scan,
)
from .binom_expansion import (
    CdfExpansion,
    CdfLimit,
    SequenceCoeffs,
    cdf_expansion,
    cdf_limit_classifier,
    complementary_expansion,
)
from .continuous import BsTerms, DValues, bs_price, bs_terms, d_values
from .errors import (
    BudgetError,
    DomainError,
    LookbackError,
    ModelError,
)
from .lattice import (
    ENUMERATION_MAX_N,
    TREE_MAX_N,
    MarketState,
    PathClass,
    PathCount,
    Side,
    TreeParams,
    iter_path_counts,
    path_count,
    path_count_enumerate,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
    tree_params,
)
from .numerics import (
    binom_cdf_complement,
    binom_cdf_exact,
    binom_cdfs,
    binom_pmf,
    binom_pmf_log,
    std_normal_cdf,
    std_normal_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LookbackError",
    "DomainError",
    "ModelError",
    "BudgetError",
    "std_normal_cdf",
    "std_normal_pdf",
    "binom_pmf_log",
    "binom_pmf",
    "binom_cdf_exact",
    "binom_cdf_complement",
    "binom_cdfs",
    "Side",
    "PathClass",
    "MarketState",
    "TreeParams",
    "PathCount",
    "ENUMERATION_MAX_N",
    "TREE_MAX_N",
    "tree_params",
    "path_count",
    "iter_path_counts",
    "path_count_enumerate",
    "price_closed",
    "price_closed_reduced",
    "price_backward_induction",
    "DValues",
    "BsTerms",
    "d_values",
    "bs_terms",
    "bs_price",
    "PriceExpansion",
    "kappa_n",
    "expansion_coeffs",
    "expansion_coeffs_at_emission",
    "expansion_price",
    "residual_scan",
    "CdfExpansion",
    "SequenceCoeffs",
    "CdfLimit",
    "cdf_expansion",
    "complementary_expansion",
    "cdf_limit_classifier",
]
