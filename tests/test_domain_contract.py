"""The domain contract as a property: over a wide draw of markets, every
pricer returns a finite price inside the no-arbitrage bounds
(0 <= call <= spot, put >= 0) or raises LookbackError.  The expansion
c0 + c1/sqrt(n) + c2/n is an approximation, not a price, so it is held
only to a finite value or LookbackError."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lookback import (
    MarketState,
    bs_price,
    expansion_coeffs,
    expansion_price,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
)
from lookback.errors import LookbackError


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@st.composite
def _markets(draw):
    side = draw(st.sampled_from(["call", "put"]))
    spot = draw(_log_uniform(1e-3, 1e4))
    ratio = draw(_log_uniform(1.0, 100.0))  # spot/min for a call, max/spot for a put
    rate = draw(st.one_of(st.just(0.0), _log_uniform(1e-14, 1.0)))
    market = MarketState(
        spot=spot,
        extremum=spot / ratio if side == "call" else spot * ratio,
        sigma=draw(_log_uniform(1e-3, 10.0)),
        rate=rate,
        tau=draw(_log_uniform(1e-3, 30.0)),
    )
    return market, side, draw(st.integers(min_value=1, max_value=300))


def _outcome(price_fn):
    """The value, or None where the pricer refused with LookbackError."""
    try:
        return price_fn()
    except LookbackError:
        return None


@settings(max_examples=300, derandomize=True)
@given(case=_markets())
def test_prices_are_finite_and_bounded_or_refused(case):
    market, side, n = case
    prices = {
        "closed": lambda: price_closed(market, n, side),
        "reduced": lambda: price_closed_reduced(market, n, side),
        "tree": lambda: price_backward_induction(market, n, side),
        "bs": lambda: bs_price(market, side),
    }
    for method, price_fn in prices.items():
        price = _outcome(price_fn)
        if price is None:
            continue
        assert math.isfinite(price), (method, price)
        assert price >= 0.0, (method, price)
        if side == "call":
            assert price <= market.spot, (method, price, market.spot)
    value = _outcome(lambda: expansion_price(expansion_coeffs(market, side), n))
    assert value is None or math.isfinite(value), ("expansion", value)
