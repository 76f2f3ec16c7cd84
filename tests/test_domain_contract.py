"""The domain contract as a property: over a wide draw of markets, every
pricer returns a finite price inside the no-arbitrage bounds
(0 <= call <= spot, put >= 0) or raises LookbackError.  The expansion
c0 + c1/sqrt(n) + c2/n is an approximation, not a price, so it is held
only to a finite value or LookbackError.  The CDF layer keeps the same
contract over the whole (n, p) domain: every CDF and pmf lies in
[0, 1], and the CDF and complementary expansions are finite or
refused."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lookback import (
    CDF_MAX_N,
    MarketState,
    binom_cdfs,
    binom_pmf_log,
    bs_price,
    cdf_expansion,
    complementary_expansion,
    expansion_coeffs,
    expansion_price,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
)
from lookback.binom_expansion import SequenceCoeffs
from lookback.cli import cmd_cdf_bench
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
# a low-volatility put at a positive rate, where the reduced form's
# factor e^E is about e^1599
@example(case=(MarketState(spot=103.33682690106653, extremum=119.0079808047861,
                           sigma=0.0016924579246134616, rate=0.016018594949345762,
                           tau=2.1394893654988296), "put", 5342))
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


@st.composite
def _cdf_args(draw):
    """(n, p, j): n up to CDF_MAX_N, p log-uniform down to 1e-320 or
    within 1e-16 of 1, j within 40 sd of n p or anywhere in -1..n+1."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=300),
                       _log_uniform(1.0, CDF_MAX_N).map(int)))
    p = draw(st.one_of(_log_uniform(1e-320, 0.999),
                       _log_uniform(1e-16, 0.5).map(lambda t: 1.0 - t)))
    sd = math.sqrt(n * p * (1.0 - p))
    j = draw(st.one_of(st.floats(min_value=-40.0, max_value=40.0).map(
                           lambda z: math.floor(n * p + z * sd)),
                       st.integers(min_value=-1, max_value=n + 1)))
    return n, p, j


@st.composite
def _sequence_coeffs(draw):
    """SequenceCoeffs with each coefficient, and the constant b_n, either
    in [-3, 3] or any float, huge, infinite and nan included."""
    def coeff():
        return draw(st.one_of(st.floats(-3.0, 3.0), st.floats()))
    names = ("alpha", "beta", "gamma", "delta", "epsilon", "a", "c", "d", "e")
    fields = {name: coeff() for name in names}
    b = coeff()
    return SequenceCoeffs(b_n=lambda n: b, **fields)


@settings(max_examples=150, derandomize=True)
@given(args=_cdf_args(), j_rule=st.one_of(st.just("median"), st.floats(-0.1, 1.1)),
       seq=_sequence_coeffs())
def test_cdf_layer_is_finite_and_bounded_or_refused(args, j_rule, seq):
    n, p, j = args
    values = _outcome(lambda: binom_cdfs([(n, p, j, False), (n, p, j, True), (n, p, j, None)]))
    assert values is None or all(0.0 <= v <= 1.0 for v in values), (args, values)
    log_pmf = _outcome(lambda: binom_pmf_log(n, p, min(max(j, 0), n)))
    assert log_pmf is None or (math.isfinite(log_pmf) and log_pmf <= 0.0), (args, log_pmf)
    value = _outcome(lambda: cdf_expansion(n, p, j).value)
    assert value is None or math.isfinite(value), (args, value)
    value = _outcome(lambda: complementary_expansion(seq, n))
    assert value is None or math.isfinite(value), (n, seq, value)
    rows = _outcome(lambda: cmd_cdf_bench([n], (p, 0.0), j_rule))
    if rows is not None:
        (_, exact, *rest), = rows
        assert 0.0 <= exact <= 1.0 and all(map(math.isfinite, rest)), (args, j_rule, rows)
