"""Continuous-model floating-strike lookback prices.

The Goldman-Sosin-Gatto formulas, with theta_1 = 1 + sigma^2/2r and
theta_2 = 1 - sigma^2/2r:

    C_BS = S - S theta_1 B_1 - M B_2 + S (1 - theta_2) B_3       (call)
    P_BS = -S + S theta_1 B_1 + M B_2 - S (1 - theta_2) B_3      (put)

built on d_1 = (log(S/M) + (r + sigma^2/2) tau) / (sigma sqrt(tau)),
d_2 = d_1 - sigma sqrt(tau), d_3 = -d_1 + (2r/sigma) sqrt(tau),
d_4 = d_3 + sigma sqrt(tau).  The side only changes the signs of the
normal-CDF arguments: the call uses (Phi(-d_1), Phi(d_2), Phi(d_3)) and
the put uses (Phi(d_1), Phi(-d_2), Phi(-d_3)) -- B_1 flips one way,
B_2 and B_3 the other.

The theta terms carry a 1/r pole: theta_1 B_1 + theta_2 B_3 =
B_1 + B_3 + Delta with Delta = sigma^2/(2r) (B_1 - B_3).  With
a = 2r/sigma^2 and G(x) = (S/M)^{-x} Phi(flip (d_1 - x sigma sqrt(tau))),
B_1 = G(0) and B_3 = e^{-r tau} G(a), so

    Delta = -mean_{[0, a]} G' + ((1 - e^{-r tau}) / a) G(a),

which is finite at r = 0, where it is Babbs' B_3* +- B_4* (Babbs 2000).
One formula therefore prices every rate r >= 0:

    C_BS = S - S B_1 - M B_2 - S Delta,   P_BS = -C_BS on the put's terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .lattice import MarketState, Side
from .numerics import (
    GL_MAX_SPREAD, _log_std_normal_cdf, expm1_ratio, gl_mean, std_normal_cdf, std_normal_pdf,
)

__all__ = ["DValues", "BsTerms", "d_values", "bs_terms", "bs_price"]


@dataclass(frozen=True)
class DValues:
    """The d_1..d_4 arguments; d_2 = d_1 - sigma sqrt(tau),
    d_3 = -d_1 + (2r/sigma) sqrt(tau), d_4 = d_3 + sigma sqrt(tau)."""

    d1: float
    d2: float
    d3: float
    d4: float


@dataclass(frozen=True)
class BsTerms:
    """B-terms of the continuous formulas for one (market, side); delta
    is sigma^2/(2r) (B_1 - B_3), continued to r = 0."""

    b1: float
    b2: float
    b3: float
    delta: float


def d_values(market: MarketState, side: Side) -> DValues:
    """d_1..d_4 for the given market; the same formulas serve both sides
    (log(spot/extremum) is <= 0 for puts, where the extremum is the
    running maximum)."""
    market.require_side(side)
    st = market.sigma * math.sqrt(market.tau)
    lsm = math.log(market.spot / market.extremum)
    d1 = (lsm + (market.rate + 0.5 * market.sigma**2) * market.tau) / st
    d2 = d1 - st
    d3 = -d1 + (2.0 * market.rate / market.sigma) * math.sqrt(market.tau)
    d4 = d3 + st
    return DValues(d1=d1, d2=d2, d3=d3, d4=d4)


def bs_terms(market: MarketState, side: Side, d: DValues) -> BsTerms:
    """Side-dispatched B-terms shared by ``bs_price`` and the price
    expansion coefficients; d is ``d_values(market, side)``."""
    st = market.sigma * math.sqrt(market.tau)
    lsm = math.log(market.spot / market.extremum)
    disc = math.exp(-market.rate * market.tau)
    flip = 1.0 if side == "put" else -1.0  # put uses Phi(d1), call Phi(-d1)
    b1 = std_normal_cdf(flip * d.d1)
    b2 = disc * std_normal_cdf(-flip * d.d2)
    alpha = 2.0 * market.rate / market.sigma / market.sigma  # inf once sigma^2 underflows
    # G(a) = (S/M)^{-a} Phi(-flip d3) in log space: for a small sigma or a
    # spot far from the extremum the power overflows where Phi underflows
    log_power = -alpha * lsm
    if not log_power < math.inf:
        raise ModelError(f"(S/M)^(-2r/sigma^2) overflows, got sigma={market.sigma}")
    g_a = math.exp(log_power + _log_std_normal_cdf(-flip * d.d3))
    b3 = disc * g_a
    # spread of G' over [0, a]: (S/M)^{-x} and Phi(y), phi(y) have log
    # slopes |log(S/M)| and at most sigma sqrt(tau) (|y| + 1)
    spread = alpha * (abs(lsm) + st * (max(abs(d.d1), abs(d.d3)) + 1.0))
    if spread > GL_MAX_SPREAD:
        delta = (b1 - b3) / alpha
    else:
        mid = 0.5 * alpha

        def g_prime(off: float) -> float:
            x = mid + off
            y = d.d1 - x * st
            return -math.exp(-x * lsm) * (lsm * std_normal_cdf(flip * y)
                                          + flip * st * std_normal_pdf(y))

        # (1 - e^{-r tau}) / a = (sigma^2 tau / 2) expm1(-r tau) / (-r tau)
        delta = (-gl_mean(g_prime, mid)
                 + 0.5 * market.sigma**2 * market.tau
                 * expm1_ratio(-market.rate * market.tau) * g_a)
    return BsTerms(b1=b1, b2=b2, b3=b3, delta=delta)


def price_from_terms(market: MarketState, side: Side, terms: BsTerms) -> float:
    """The continuous price on B-terms already formed for this market and
    side.  The put is the negated call expression on the put's terms."""
    call = (market.spot * (1.0 - terms.b1 - terms.delta)
            - market.extremum * terms.b2)
    return call if side == "call" else -call


def bs_price(market: MarketState, side: Side) -> float:
    """Continuous-model lookback price, one formula for every rate r >= 0."""
    return price_from_terms(market, side, bs_terms(market, side, d_values(market, side)))
