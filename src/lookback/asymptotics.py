"""Asymptotic expansion of the n-period lookback price around the
continuous-model price:

    price_n = c0 + c1 / sqrt(n) + c2(n) / n + O(n^{-3/2})

c0 is the continuous price, c1 is constant in n, and c2(n) is bounded
but oscillating: it is an affine function of kappa_n = {j0}(1 - {j0}),
the fractional-part product of the starting lattice level, which sweeps
parabola-like arcs as n runs.

With B-terms from the continuous module, Delta = sigma^2/(2r) (B_1 - B_3)
in its rate-continuous form, and B4 defined below,

    c1 = -S (sigma sqrt(tau)/2) (theta_1 B_1 + theta_2 B_3)
       = -S (sigma sqrt(tau)/2) (B_1 + B_3 + Delta).

The 1/n coefficient enters with a minus sign for calls and a plus sign
for puts:

    bracket = S (sigma^2 tau/12) ((theta_1+2) B_1 + (theta_2+2-T_1) B_3)
              -+ M T_2 B_4
            = S (sigma^2 tau/12) (3 (B_1 + B_3) + Delta - T_1 B_3)
              -+ M T_2 B_4

    T_1  = (12 r/sigma^2) theta_2 kappa_n - (1 + 4 r^2/sigma^4) log(S/M)
         = (6a - 6) kappa_n - (1 + a^2) log(S/M),   a = 2r/sigma^2
    T_2  = 1/2 + kappa_n + (d_4 / (6 sigma sqrt(tau))) log(S/M)
    B_4  = sigma sqrt(tau) (S/M)^{(1 - 2r/sigma^2)/2}
           e^{-(d_1^2 + d_4^2)/4} / sqrt(2 pi)

(the -+ is - for calls, + for puts).  Written this way no term has a
pole at r = 0, and one formula serves every rate; at r = 0 it is the
Babbs form with B_3* +- B_4* and T_2*.

For puts, j0 is built from the running maximum, so {j0} in kappa_n is
taken on log(M/S)/(sigma sqrt(tau/n)); any residual mismatch against
published table values must be reported against this reading rather
than silently patched.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .continuous import BsTerms, DValues, bs_terms, d_values, price_from_terms
# Unused here; perfbench/spans.py wraps these names on this module.
from .continuous import bs_price  # noqa: F401
from .errors import DomainError, ModelError
from .lattice import price_closed_reduced  # noqa: F401
from .lattice import MarketState, Side, price_closed_reduced_grid, tree_params
from .numerics import as_index

__all__ = [
    "PriceExpansion",
    "kappa_n",
    "expansion_coeffs",
    "expansion_price",
    "residual_scan",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PriceExpansion:
    """Expansion c0 + c1/sqrt(n) + c2_at(n)/n of one (market, side).

    c2_at is exposed as a function of n, not a cached constant, because
    kappa_n oscillates with n; it is affine in kappa_n for a fixed
    market, which tests exploit by two-point interpolation.
    """

    c0: float
    c1: float
    c2_at: Callable[[int], float]


def kappa_n(market: MarketState, n: int, side: Side) -> float:
    """{j0(n)}(1 - {j0(n)}) with the integer-snapped fractional part."""
    return tree_params(market, n, side).kappa


def _c2_affine(
    market: MarketState, side: Side, terms: BsTerms, d: DValues
) -> tuple[float, float]:
    """(a, b) with c2(kappa) = a + b * kappa, per the side; terms and d
    are ``bs_terms`` and ``d_values`` of the same market and side."""
    spot, extremum, sigma, rate, tau = (
        market.spot, market.extremum, market.sigma, market.rate, market.tau,
    )
    st = sigma * math.sqrt(tau)
    lsm = math.log(spot / extremum)
    alpha = 2.0 * rate / sigma / sigma
    if not math.isfinite(alpha * alpha):
        raise ModelError(f"(2r/sigma^2)^2 overflows in T_1, got sigma={sigma}")
    # The 1/n bracket enters the price with sign -1 (call) / +1 (put) and
    # carries the B4 block with the bracket sign inside; distributing the
    # outer sign leaves the B4 contributions always positive.
    bracket_sign = -1.0 if side == "call" else 1.0
    # (S/M)^{(1 - a)/2} e^{-(d1^2 + d4^2)/4} in one exp: for a small sigma
    # the power overflows where the Gaussian factor underflows
    b4 = st * math.exp(0.5 * (1.0 - alpha) * lsm
                       - 0.25 * (d.d1 * d.d1 + d.d4 * d.d4)) / _SQRT_2PI
    base = spot * sigma**2 * tau / 12.0
    t1_const = -(1.0 + alpha * alpha) * lsm
    t1_kappa = 6.0 * alpha - 6.0
    t2_const = 0.5 + d.d4 * lsm / (6.0 * st)
    if not math.isfinite(t2_const):
        raise ModelError(f"T_2 overflows in d_4 log(S/M) / sigma sqrt(tau), got sigma={sigma}")
    a = (bracket_sign
         * base * (3.0 * (terms.b1 + terms.b3) + terms.delta - t1_const * terms.b3)
         + extremum * t2_const * b4)
    b = -bracket_sign * base * t1_kappa * terms.b3 + extremum * b4
    return a, b


def expansion_coeffs(market: MarketState, side: Side) -> PriceExpansion:
    """Expansion coefficients for the given market and side; c0, c1 and
    c2 share one set of d-values and B-terms."""
    d = d_values(market, side)
    terms = bs_terms(market, side, d)
    st = market.sigma * math.sqrt(market.tau)
    c1 = -market.spot * (st / 2.0) * (terms.b1 + terms.b3 + terms.delta)
    a, b = _c2_affine(market, side, terms, d)

    def c2_at(n: int) -> float:
        return a + b * kappa_n(market, n, side)

    return PriceExpansion(c0=price_from_terms(market, side, terms), c1=c1, c2_at=c2_at)


def expansion_price(exp: PriceExpansion, n: int) -> float:
    """c0 + c1/sqrt(n) + c2_at(n)/n."""
    n = as_index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return exp.c0 + exp.c1 / math.sqrt(n) + exp.c2_at(n) / n


def residual_scan(
    market: MarketState, side: Side, n_list: Sequence[int], exp: PriceExpansion
) -> list[tuple[int, float, float, float, float]]:
    """(n, price_n, c0, scaled1, scaled2) rows over n_list.

    scaled1 = (price_n - c0) sqrt(n) converges to c1; scaled2 =
    (price_n - c0 - c1/sqrt(n)) n tracks the oscillating c2(n).
    price_n is the reduced closed form, priced for the whole of n_list
    by one ``price_closed_reduced_grid`` call; exp is the expansion of
    the same market and side (``expansion_coeffs``), which callers also
    need for c1 and c2(n).
    """
    rows = []
    for n, price_n in zip(n_list, price_closed_reduced_grid(market, n_list, side)):
        scaled1 = (price_n - exp.c0) * math.sqrt(n)
        scaled2 = (price_n - exp.c0 - exp.c1 / math.sqrt(n)) * n
        rows.append((n, price_n, exp.c0, scaled1, scaled2))
    return rows
