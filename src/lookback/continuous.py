"""Continuous-model floating-strike lookback prices.

For r > 0 the Goldman-Sosin-Gatto formulas, with theta_1 = 1 + sigma^2/2r
and theta_2 = 1 - sigma^2/2r:

    C_BS = S - S theta_1 B_1 - M B_2 + S (1 - theta_2) B_3       (call)
    P_BS = -S + S theta_1 B_1 + M B_2 - S (1 - theta_2) B_3      (put)

For r = 0 the Babbs formulas replace the divergent theta terms:

    C_BS = S - S B_1 - M B_2 - S (B_3* - B_4*)
    P_BS = -S + S B_1 + M B_2 + S (B_3* + B_4*)

built on d_1 = (log(S/M) + (r + sigma^2/2) tau) / (sigma sqrt(tau)),
d_2 = d_1 - sigma sqrt(tau), d_3 = -d_1 + (2r/sigma) sqrt(tau),
d_4 = d_3 + sigma sqrt(tau).  The side only changes the signs of the
normal-CDF arguments: the call uses (Phi(-d_1), Phi(d_2), Phi(d_3)) and
the put uses (Phi(d_1), Phi(-d_2), Phi(-d_3)) -- B_1 flips one way,
B_2 and B_3 the other.  The r = 0 branch is exact-equality dispatch (no
epsilon blending); continuity across the seam is a tested property, not
a runtime switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .lattice import MarketState, Side
from .numerics import _log_std_normal_cdf, std_normal_cdf, std_normal_pdf

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
    """B-terms of the continuous formulas for one (market, side).

    For rate > 0: theta1, theta2, b1, b2, b3 are set and b3_star/b4_star
    are None.  For rate = 0: b1, b2, b3_star, b4_star are set and the
    theta/b3 slots are None (theta_1,2 diverge as r -> 0).
    """

    b1: float
    b2: float
    theta1: float | None = None
    theta2: float | None = None
    b3: float | None = None
    b3_star: float | None = None
    b4_star: float | None = None


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


def bs_terms(market: MarketState, side: Side) -> BsTerms:
    """Side-dispatched B-terms shared by ``bs_price`` and the price
    expansion coefficients."""
    d = d_values(market, side)
    st = market.sigma * math.sqrt(market.tau)
    lsm = math.log(market.spot / market.extremum)
    disc = math.exp(-market.rate * market.tau)
    flip = 1.0 if side == "put" else -1.0  # put uses Phi(d1), call Phi(-d1)
    b1 = std_normal_cdf(flip * d.d1)
    b2 = disc * std_normal_cdf(-flip * d.d2)
    if market.rate == 0.0:
        b3_star = (lsm + 0.5 * market.sigma**2 * market.tau) * b1
        b4_star = st * std_normal_pdf(d.d1)
        return BsTerms(b1=b1, b2=b2, b3_star=b3_star, b4_star=b4_star)
    if market.sigma**2 == 0.0:
        raise ModelError(f"sigma**2 underflows to 0 in 2r/sigma^2, got sigma={market.sigma}")
    theta1 = 1.0 + market.sigma**2 / (2.0 * market.rate)
    theta2 = 1.0 - market.sigma**2 / (2.0 * market.rate)
    # (S/M)^{-2r/sigma^2} Phi(-flip d3) in log space: for a small sigma or
    # a spot far from the extremum the power overflows where Phi underflows
    log_power = -(2.0 * market.rate / market.sigma**2) * lsm
    if log_power == math.inf:
        raise ModelError(f"(S/M)^(-2r/sigma^2) overflows, got sigma={market.sigma}")
    b3 = disc * math.exp(log_power + _log_std_normal_cdf(-flip * d.d3))
    return BsTerms(b1=b1, b2=b2, theta1=theta1, theta2=theta2, b3=b3)


def bs_price(market: MarketState, side: Side) -> float:
    """Continuous-model lookback price, dispatching on rate == 0.

    The put is the negated call expression on the put's B-terms, except
    that B_4* enters both sides with the same sign.
    """
    t = bs_terms(market, side)
    spot, extremum = market.spot, market.extremum
    sign = -1.0 if side == "call" else 1.0
    if market.rate == 0.0:
        assert t.b3_star is not None and t.b4_star is not None
        call = (spot - spot * t.b1 - extremum * t.b2
                - spot * (t.b3_star + sign * t.b4_star))
    else:
        assert t.theta1 is not None and t.theta2 is not None and t.b3 is not None
        call = (spot - spot * t.theta1 * t.b1 - extremum * t.b2
                + spot * (1.0 - t.theta2) * t.b3)
    return -sign * call
