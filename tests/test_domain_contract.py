"""The domain contract as a property: over a wide draw of markets, every
pricer returns a finite price inside the no-arbitrage bounds
(0 <= call <= spot, put >= 0) or raises LookbackError.  The expansion
c0 + c1/sqrt(n) + c2/n is an approximation, not a price, so it is held
only to a finite value or LookbackError.  The CDF layer keeps the same
contract over the whole (n, p) domain: every CDF and pmf lies in
[0, 1], and the CDF and complementary expansions are finite or
refused.  Over a draw that reaches small steps and emission, the three
lattice pricers also agree where the README says they do.  An integer
argument past the float range is refused by every entry point that
takes it."""

from __future__ import annotations

import math

import pytest
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
    iter_path_counts,
    kappa_n,
    path_count,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
    tree_params,
)
from lookback.binom_expansion import SequenceCoeffs
from lookback.cli import cmd_cdf_bench
from lookback.errors import LookbackError, ModelError

from .markets import T1


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@st.composite
def _markets(draw, sigma_min=1e-3, n_max=300, emission=False):
    """(market, side, n); emission=True also draws spot = extremum."""
    side = draw(st.sampled_from(["call", "put"]))
    spot = draw(_log_uniform(1e-3, 1e4))
    ratio = _log_uniform(1.0, 100.0)  # spot/min for a call, max/spot for a put
    ratio = draw(st.one_of(st.just(1.0), ratio) if emission else ratio)
    rate = draw(st.one_of(st.just(0.0), _log_uniform(1e-14, 1.0)))
    market = MarketState(
        spot=spot,
        extremum=spot / ratio if side == "call" else spot * ratio,
        sigma=draw(_log_uniform(sigma_min, 10.0)),
        rate=rate,
        tau=draw(_log_uniform(1e-3, 30.0)),
    )
    return market, side, draw(st.integers(min_value=1, max_value=n_max))


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
# a log step s = 36.4, where rho' = P rounds to 0 but no weight of
# tree_params does yet
@example(case=(MarketState(spot=100.0, extremum=100.0, sigma=325.79936930779445, rate=0.0,
                           tau=0.06532231456178274), "call", 5))
# the reduced form's terms cancel below 0: a call at s = 26.4, and a put
# at emission with r tau/n just below s
@example(case=(MarketState(spot=100.0, extremum=0.052350084557848446, sigma=8.81057726899749,
                           rate=0.6729320088219917, tau=9.005464675884113), "call", 1))
@example(case=(MarketState(spot=100.0, extremum=100.0, sigma=0.5, rate=0.4999999995, tau=1.0),
               "put", 1))
def test_prices_are_finite_and_bounded_or_refused(case):
    market, side, n = case
    _bounded_prices(market, side, n, bs=lambda: bs_price(market, side))
    value = _outcome(lambda: expansion_price(expansion_coeffs(market, side), n))
    assert value is None or math.isfinite(value), ("expansion", value)


def _bounded_prices(market, side, n, **more):
    """The prices of the three lattice pricers and of more, by method,
    each finite and inside the no-arbitrage bounds; a refused one is
    left out."""
    prices = {
        "closed": lambda: price_closed(market, n, side),
        "reduced": lambda: price_closed_reduced(market, n, side),
        "tree": lambda: price_backward_induction(market, n, side),
        **more,
    }
    out = {}
    for method, price_fn in prices.items():
        price = _outcome(price_fn)
        if price is None:
            continue
        assert math.isfinite(price), (method, price)
        assert price >= 0.0, (method, price)
        if side == "call":
            assert price <= market.spot, (method, price, market.spot)
        out[method] = price
    return out


@settings(max_examples=300, derandomize=True)
@given(case=_markets(sigma_min=1e-9, n_max=500, emission=True))
def test_three_pricers_agree(case):
    """closed, tree and reduced agree within 1e-10 relative, except in
    three regions of the log step s = sigma sqrt(tau/n) and the rate.
    Near emission at small steps (s < 1e-4, spot within 1e-3 of the
    extremum) the price is O(s sqrt(n)) of spot and the reduced form's
    V1 - V2 - V3 cancels down to it: there they agree within
    32 ulps / (s sqrt(n)), against a worst of 19.0 on a probe of 3,097
    such markets.  At s >= 9 the
    reduced form's V3 cancels and a put's closed and tree prices carry
    the rounding of its up weight; and where the rate per step
    x = r tau/n is at least half its bound s, the reduced form misses
    1e-10 from x = 0.73 s on (README).  Only the domain contract is held
    in those two."""
    market, side, n = case
    prices = _bounded_prices(market, side, n)
    s = market.sigma * math.sqrt(market.tau / n)
    if s >= 9.0 or market.rate * market.tau / n >= 0.5 * s or len(prices) < 2:
        return
    tol = 1e-10
    if s < 1e-4 and abs(market.spot / market.extremum - 1.0) <= 1e-3:
        tol = 32.0 * 2.0**-52 / (s * math.sqrt(n))
    scale = max(map(abs, prices.values()))
    assert max(prices.values()) - min(prices.values()) <= tol * scale, (prices, s, tol)


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


# Each entry point that takes an integer n (or j), called at n; none of
# them iterates, so iter_path_counts must refuse at the call.
PAST_FLOAT_RANGE_CALLS = {
    "tree_params": lambda n: tree_params(T1, n, "call"),
    "price_closed": lambda n: price_closed(T1, n, "call"),
    "price_closed_reduced": lambda n: price_closed_reduced(T1, n, "call"),
    "price_backward_induction": lambda n: price_backward_induction(T1, n, "call"),
    "kappa_n": lambda n: kappa_n(T1, n, "call"),
    "expansion_price": lambda n: expansion_price(expansion_coeffs(T1, "call"), n),
    "cdf_expansion": lambda n: cdf_expansion(n, 0.5, 3),
    "iter_path_counts": lambda n: iter_path_counts(0.0, n),
    "path_count": lambda n: path_count(0.0, 1.0, 1, n),
    "binom_cdfs_j": lambda j: binom_cdfs([(10, 0.5, j, True)]),
}


@pytest.mark.parametrize("n", [2**1024 - 2**970, 10**400], ids=["2^1024-2^970", "10^400"])
@pytest.mark.parametrize("name", PAST_FLOAT_RANGE_CALLS)
def test_integers_past_the_float_range_are_refused(name, n):
    """2^1024 - 2^970, the least integer that rounds up to inf, and 10^400
    raised a raw OverflowError from the first float evaluation of n, or
    were not refused at all; ``as_index`` refuses them with ModelError."""
    with pytest.raises(ModelError, match="overflows a float"):
        PAST_FLOAT_RANGE_CALLS[name](n)


def test_largest_power_of_two_in_the_float_range_is_accepted():
    assert tree_params(T1, 2**1023, "call").n == 2**1023
