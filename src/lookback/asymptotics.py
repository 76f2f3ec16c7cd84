"""Asymptotic expansion of the n-period lookback price around the
continuous-model price:

    price_n = c0 + c1 / sqrt(n) + c2(n) / n + O(n^{-3/2})

c0 is the continuous price, c1 is constant in n, and c2(n) is bounded
but oscillating: it is an affine function of kappa_n = {j0}(1 - {j0}),
the fractional-part product of the starting lattice level, which sweeps
parabola-like arcs as n runs.

With B-terms from the continuous module and B4 defined below,

    c1 = -S (sigma sqrt(tau)/2) (theta_1 B_1 + theta_2 B_3)        (r > 0)
    c1 = -S (sigma sqrt(tau)/2) (2 B_1 + B_3* -+ B_4*)             (r = 0)

(the -+ is - for calls, + for puts).  The 1/n coefficient enters with a
minus sign for calls and a plus sign for puts:

    bracket = S (sigma^2 tau/12) ((theta_1+2) B_1 + (theta_2+2-T_1) B_3)
              -+ M T_2 B_4                                          (r > 0)
    bracket = S (sigma^2 tau/6) ((3 + 3 kappa_n - sigma^2 tau/4) B_1 + B_3*)
              -+ S T_2* B_4*                                        (r = 0)

    T_1  = (12 r/sigma^2) theta_2 kappa_n - (1 + 4 r^2/sigma^4) log(S/M)
    T_2  = 1/2 + kappa_n + (d_4 / (6 sigma sqrt(tau))) log(S/M)
    T_2* = 1/2 + kappa_n + sigma^2 tau/12 - (d_2 / (6 sigma sqrt(tau))) log(S/M)
    B_4  = sigma sqrt(tau) (S/M)^{(1 - 2r/sigma^2)/2}
           e^{-(d_1^2 + d_4^2)/4} / sqrt(2 pi)

For puts, j0 is built from the running maximum, so {j0} in kappa_n is
taken on log(M/S)/(sigma sqrt(tau/n)); any residual mismatch against
published table values must be reported against this reading rather
than silently patched.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Literal

from .continuous import BsTerms, DValues, bs_price, bs_terms, d_values
from .errors import DomainError
from .lattice import MarketState, Side, price_closed_reduced, tree_params

__all__ = [
    "PriceExpansion",
    "kappa_n",
    "expansion_coeffs",
    "expansion_coeffs_at_emission",
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
    side: Side
    rate_branch: Literal["positive", "zero"]


def kappa_n(market: MarketState, n: int, side: Side) -> float:
    """{j0(n)}(1 - {j0(n)}) with the integer-snapped fractional part."""
    return tree_params(market, n, side).kappa


def _c2_affine(
    market: MarketState, side: Side, terms: BsTerms, d: DValues
) -> tuple[float, float]:
    """(a, b) with c2(kappa) = a + b * kappa, per the side and rate branch;
    terms and d are ``bs_terms`` and ``d_values`` of the same market and side."""
    spot, extremum, sigma, rate, tau = (
        market.spot, market.extremum, market.sigma, market.rate, market.tau,
    )
    st = sigma * math.sqrt(tau)
    lsm = math.log(spot / extremum)
    # The 1/n bracket enters the price with sign -1 (call) / +1 (put) and
    # carries the B4 block with the bracket sign inside; distributing the
    # outer sign leaves the B4 contributions always positive.
    bracket_sign = -1.0 if side == "call" else 1.0
    if rate == 0.0:
        assert terms.b3_star is not None and terms.b4_star is not None
        base = spot * sigma**2 * tau / 6.0
        t2_star_const = 0.5 + sigma**2 * tau / 12.0 - d.d2 * lsm / (6.0 * st)
        a = (bracket_sign
             * base * ((3.0 - sigma**2 * tau / 4.0) * terms.b1 + terms.b3_star)
             + spot * t2_star_const * terms.b4_star)
        b = bracket_sign * base * 3.0 * terms.b1 + spot * terms.b4_star
        return a, b
    assert terms.theta1 is not None and terms.theta2 is not None
    assert terms.b3 is not None
    # (S/M)^{(1 - 2r/sigma^2)/2} e^{-(d1^2 + d4^2)/4} in one exp: for a small
    # sigma the power overflows where the Gaussian factor underflows
    b4 = st * math.exp(0.5 * (1.0 - 2.0 * rate / sigma**2) * lsm
                       - 0.25 * (d.d1**2 + d.d4**2)) / _SQRT_2PI
    base = spot * sigma**2 * tau / 12.0
    t1_const = -(1.0 + 4.0 * rate**2 / sigma**4) * lsm
    t1_kappa = 12.0 * rate / sigma**2 * terms.theta2
    t2_const = 0.5 + d.d4 * lsm / (6.0 * st)
    a = (bracket_sign
         * base * ((terms.theta1 + 2.0) * terms.b1
                   + (terms.theta2 + 2.0 - t1_const) * terms.b3)
         + extremum * t2_const * b4)
    b = -bracket_sign * base * t1_kappa * terms.b3 + extremum * b4
    return a, b


def expansion_coeffs(market: MarketState, side: Side) -> PriceExpansion:
    """Expansion coefficients for the given market and side."""
    terms = bs_terms(market, side)
    st = market.sigma * math.sqrt(market.tau)
    if market.rate == 0.0:
        assert terms.b3_star is not None and terms.b4_star is not None
        b4_sign = -1.0 if side == "call" else 1.0
        c1 = -market.spot * (st / 2.0) * (
            2.0 * terms.b1 + terms.b3_star + b4_sign * terms.b4_star
        )
        branch: Literal["positive", "zero"] = "zero"
    else:
        assert terms.theta1 is not None and terms.theta2 is not None
        assert terms.b3 is not None
        c1 = -market.spot * (st / 2.0) * (
            terms.theta1 * terms.b1 + terms.theta2 * terms.b3
        )
        branch = "positive"
    a, b = _c2_affine(market, side, terms, d_values(market, side))

    def c2_at(n: int) -> float:
        return a + b * kappa_n(market, n, side)

    return PriceExpansion(
        c0=bs_price(market, side), c1=c1, c2_at=c2_at, side=side,
        rate_branch=branch,
    )


def expansion_coeffs_at_emission(
    spot: float, sigma: float, rate: float, tau: float, side: Side
) -> PriceExpansion:
    """Expansion at emission, where spot = extremum.

    With log(S/M) = 0 the starting level is j0 = 0 for every n, so
    kappa_n = 0 identically and the coefficients lose their n
    dependence: T_1 = 0, T_2 = 1/2, T_2* = 1/2 + sigma^2 tau/12, and
    B_4 = sigma sqrt(tau) e^{-(d_1^2 + d_4^2)/4} / sqrt(2 pi).  This is
    the specialization the general coefficients must collapse to.
    """
    market = MarketState(spot=spot, extremum=spot, sigma=sigma, rate=rate, tau=tau)
    st = sigma * math.sqrt(tau)
    d = d_values(market, side)
    flip = 1.0 if side == "put" else -1.0
    disc = math.exp(-rate * tau)
    from .numerics import std_normal_cdf, std_normal_pdf

    b1 = std_normal_cdf(flip * d.d1)
    bracket_sign = -1.0 if side == "call" else 1.0
    if rate == 0.0:
        b3_star = 0.5 * sigma**2 * tau * b1
        b4_star = st * std_normal_pdf(d.d1)
        c1 = -spot * (st / 2.0) * (2.0 * b1 + b3_star + bracket_sign * b4_star)
        base = spot * sigma**2 * tau / 6.0
        t2_star = 0.5 + sigma**2 * tau / 12.0
        c2 = (bracket_sign * base * ((3.0 - sigma**2 * tau / 4.0) * b1 + b3_star)
              + spot * t2_star * b4_star)
        branch: Literal["positive", "zero"] = "zero"
    else:
        theta1 = 1.0 + sigma**2 / (2.0 * rate)
        theta2 = 1.0 - sigma**2 / (2.0 * rate)
        b3 = disc * std_normal_cdf(-flip * d.d3)
        b4 = st * math.exp(-0.25 * (d.d1**2 + d.d4**2)) / _SQRT_2PI
        c1 = -spot * (st / 2.0) * (theta1 * b1 + theta2 * b3)
        base = spot * sigma**2 * tau / 12.0
        c2 = (bracket_sign * base * ((theta1 + 2.0) * b1 + (theta2 + 2.0) * b3)
              + spot * 0.5 * b4)
        branch = "positive"
    return PriceExpansion(
        c0=bs_price(market, side), c1=c1, c2_at=lambda n: c2, side=side,
        rate_branch=branch,
    )


def expansion_price(exp: PriceExpansion, n: int) -> float:
    """c0 + c1/sqrt(n) + c2_at(n)/n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return exp.c0 + exp.c1 / math.sqrt(n) + exp.c2_at(n) / n


def residual_scan(
    market: MarketState, side: Side, n_list: Sequence[int], exp: PriceExpansion
) -> list[tuple[int, float, float, float, float]]:
    """(n, price_n, c0, scaled1, scaled2) rows over n_list.

    scaled1 = (price_n - c0) sqrt(n) converges to c1; scaled2 =
    (price_n - c0 - c1/sqrt(n)) n tracks the oscillating c2(n).
    price_n is the reduced closed form; exp is the expansion of the same
    market and side (``expansion_coeffs``), which callers also need for
    c1 and c2(n).
    """
    rows = []
    for n in n_list:
        price_n = price_closed_reduced(market, n, side)
        scaled1 = (price_n - exp.c0) * math.sqrt(n)
        scaled2 = (price_n - exp.c0 - exp.c1 / math.sqrt(n)) * n
        rows.append((n, price_n, exp.c0, scaled1, scaled2))
    return rows
