"""Tests for the continuous-model lookback prices: d-value identities,
B-term structure, price anchors, the rate grid down to r = 0, and limits."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from lookback import MarketState, bs_price, bs_terms, continuous, d_values
from lookback.errors import DomainError

from .markets import SMALL_RATES, T1, T2, T3, T4
from .oracles import bs_price_mp


def _random_markets(count: int, seed: int, with_zero_rate: bool = True):
    rng = random.Random(seed)
    markets = []
    for i in range(count):
        spot = rng.uniform(20.0, 150.0)
        ratio = rng.uniform(1.0, 2.5)
        side = "call" if rng.random() < 0.5 else "put"
        extremum = spot / ratio if side == "call" else spot * ratio
        rate = 0.0 if (with_zero_rate and i % 3 == 0) else rng.uniform(0.005, 0.12)
        markets.append(
            (
                MarketState(
                    spot=spot,
                    extremum=extremum,
                    sigma=rng.uniform(0.08, 0.5),
                    rate=rate,
                    tau=rng.uniform(0.1, 2.5),
                ),
                side,
            )
        )
    return markets


class TestDValues:
    def test_at_emission_zero_rate(self):
        """S = M, r = 0: d1 = sigma sqrt(tau)/2 = d4 and d2 = -d1 = d3."""
        market = MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=0.0, tau=1.0)
        d = d_values(market, "call")
        st_half = 0.2 * 0.5
        assert math.isclose(d.d1, st_half, rel_tol=1e-14)
        assert math.isclose(d.d4, st_half, rel_tol=1e-14)
        assert math.isclose(d.d2, -st_half, rel_tol=1e-14)
        assert math.isclose(d.d3, -st_half, rel_tol=1e-14)

    def test_table_market_values(self):
        d = d_values(T1, "call")
        st_ = 0.2 * math.sqrt(1.27)
        want_d1 = (math.log(80.0 / 60.0) + (0.08 + 0.02) * 1.27) / st_
        assert math.isclose(d.d1, want_d1, rel_tol=1e-14)

    def test_identities_on_random_markets(self):
        """d2 = d1 - s sqrt(tau), d4 = d3 + s sqrt(tau), and
        d3 = -d1 + (2r/s) sqrt(tau) hold to ~1 ulp for 100 markets."""
        for market, side in _random_markets(100, seed=11):
            d = d_values(market, side)
            st_ = market.sigma * math.sqrt(market.tau)
            scale = max(1.0, abs(d.d1), abs(d.d3))
            assert abs(d.d2 - (d.d1 - st_)) <= 1e-14 * scale
            assert abs(d.d4 - (d.d3 + st_)) <= 1e-14 * scale
            drift = (2.0 * market.rate / market.sigma) * math.sqrt(market.tau)
            assert abs(d.d3 - (-d.d1 + drift)) <= 1e-14 * scale

    def test_spot_extremum_swap_reverses_vector(self):
        """Swapping S and M negates the log term, which maps
        (d1, d2, d3, d4) onto (d4, d3, d2, d1)."""
        d_call = d_values(T1, "call")
        put_market = MarketState(
            spot=60.0, extremum=80.0, sigma=0.2, rate=0.08, tau=1.27
        )
        d_put = d_values(put_market, "put")
        assert math.isclose(d_put.d1, d_call.d4, rel_tol=1e-12)
        assert math.isclose(d_put.d2, d_call.d3, rel_tol=1e-12)
        assert math.isclose(d_put.d3, d_call.d2, rel_tol=1e-12)
        assert math.isclose(d_put.d4, d_call.d1, rel_tol=1e-12)


class TestBsTerms:
    def test_theta_sum_is_two(self):
        """theta_1 + theta_2 = 2 splits theta_1 B_1 + theta_2 B_3 into
        B_1 + B_3 + delta, delta = sigma^2/(2r) (B_1 - B_3)."""
        for market in (T1, T3):
            side = "call" if market.extremum <= market.spot else "put"
            terms = bs_terms(market, side, d_values(market, side))
            theta1 = 1.0 + market.sigma**2 / (2.0 * market.rate)
            theta2 = 1.0 - market.sigma**2 / (2.0 * market.rate)
            assert math.isclose(theta1 + theta2, 2.0, rel_tol=1e-12)
            assert math.isclose(theta1 * terms.b1 + theta2 * terms.b3,
                                terms.b1 + terms.b3 + terms.delta, rel_tol=1e-12)

    def test_terms_nonnegative(self):
        for market, side in _random_markets(60, seed=12):
            terms = bs_terms(market, side, d_values(market, side))
            assert terms.b1 >= 0.0 and terms.b2 >= 0.0 and terms.b3 >= 0.0

    def test_rate_zero_uses_starred_terms(self):
        """At r = 0 every slot is a float and delta is Babbs' B_3* -+ B_4*
        (minus for the call, plus for the put)."""
        for market, side, sign in ((T2, "call", -1.0), (T4, "put", 1.0)):
            d = d_values(market, side)
            terms = bs_terms(market, side, d)
            for field in dataclasses.fields(terms):
                assert isinstance(getattr(terms, field.name), float), field.name
            st = market.sigma * math.sqrt(market.tau)
            lsm = math.log(market.spot / market.extremum)
            b3_star = (lsm + 0.5 * market.sigma**2 * market.tau) * terms.b1
            b4_star = st * math.exp(-0.5 * d.d1**2) / math.sqrt(2.0 * math.pi)
            assert math.isclose(terms.delta, b3_star + sign * b4_star, rel_tol=1e-12)

    def test_rate_positive_uses_theta_terms(self):
        """At r > 0 every slot is a float and delta is the theta terms'
        sigma^2/(2r) (B_1 - B_3)."""
        for market, side in ((T1, "call"), (T3, "put")):
            terms = bs_terms(market, side, d_values(market, side))
            for field in dataclasses.fields(terms):
                assert isinstance(getattr(terms, field.name), float), field.name
            theta_delta = market.sigma**2 / (2.0 * market.rate) * (terms.b1 - terms.b3)
            assert math.isclose(terms.delta, theta_delta, rel_tol=1e-12)


class TestBsPrice:
    @pytest.mark.parametrize(
        "market,side,printed",
        [
            (T1, "call", 26.3864),
            (T2, "call", 21.4214),
            (T3, "put", 16.5260),
            (T4, "put", 23.5921),
        ],
    )
    def test_table_anchors(self, market, side, printed):
        assert abs(bs_price(market, side) - printed) <= 5e-5

    def test_expiry_limit_call(self):
        """tau -> 0: the call is worth its intrinsic S - M."""
        market = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1e-12)
        assert abs(bs_price(market, "call") - 20.0) <= 1e-6

    def test_expiry_limit_put(self):
        market = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.08, tau=1e-12)
        assert abs(bs_price(market, "put") - 20.0) <= 1e-6

    @pytest.mark.parametrize(
        "market,side", [(T2, "call"), (T4, "put")]
    )
    def test_rate_zero_branch_is_continuous(self, market, side, monkeypatch):
        """From r = 0 (the Babbs form in the oracle) up to r = 0.3 the one
        formula stays within 1e-13 relative of a 50-digit evaluation (worst
        seen 1.1e-15).  Delta is a Gauss-Legendre mean up to r = 0.01 and a
        direct difference at 0.3, so the grid runs both paths."""
        means = []
        gl_mean = continuous.gl_mean
        monkeypatch.setattr(continuous, "gl_mean", lambda *args: means.append(1) or gl_mean(*args))
        for rate in SMALL_RATES:
            means.clear()
            nearby = dataclasses.replace(market, rate=rate)
            ref = bs_price_mp(nearby.spot, nearby.extremum, nearby.sigma, rate,
                              nearby.tau, side)
            got = bs_price(nearby, side)
            assert abs(got - ref) <= 1e-13 * abs(ref), f"r={rate}: {float((got - ref) / ref):.2e}"
            if rate <= 0.01 or rate == 0.3:
                assert bool(means) == (rate <= 0.01), f"r={rate}"

    def test_dominates_intrinsic(self):
        """C_BS >= S - M >= 0: the call payoff S_T - m_T is at least
        S_T - m_t pathwise and e^{-r tau} E[S_T] = S_t.  The European put
        bound carries the discount factor, P_BS >= e^{-r tau} M - S
        (equal to M - S >= 0 when r = 0): the undiscounted form fails for
        deep in-the-money puts at positive rates."""
        for market, side in _random_markets(80, seed=13):
            price = bs_price(market, side)
            disc = math.exp(-market.rate * market.tau)
            if side == "call":
                floor_value = market.spot - market.extremum
                assert floor_value >= 0.0
            else:
                floor_value = disc * market.extremum - market.spot
            assert price >= floor_value - 1e-9 * market.spot, (
                f"{side} price {price} below bound {floor_value} on {market}"
            )
            assert price >= 0.0

    @pytest.mark.parametrize(
        "market",
        [
            MarketState(spot=1.0, extremum=1e100, sigma=0.2, rate=0.08, tau=1.27),
            MarketState(spot=1.48, extremum=2.52, sigma=0.0022, rate=0.21, tau=0.0011),
        ],
    )
    def test_put_where_power_overflows(self, market):
        # (S/M)^{-2r/sigma^2} overflows while Phi(-d3) underflows
        price = bs_price(market, "put")
        assert math.isfinite(price) and price >= 0.0
        reference = bs_price_mp(market.spot, market.extremum, market.sigma,
                                market.rate, market.tau, "put")
        assert abs(price - reference) <= 1e-12 * abs(reference)

    def test_invalid_side_rejected(self):
        with pytest.raises(DomainError):
            bs_price(T1, "straddle")  # type: ignore[arg-type]

    def test_side_extremum_mismatch_rejected(self):
        with pytest.raises(DomainError):
            bs_price(T1, "put")
        with pytest.raises(DomainError):
            bs_price(T3, "call")
