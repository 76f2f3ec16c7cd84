"""Tests for the level lattice: parameters, reflection path counts, and
the three price implementations (literal sum, reduced CDF form, backward
induction)."""

from __future__ import annotations

import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lookback import (
    MarketState,
    bs_price,
    expansion_coeffs,
    iter_path_counts,
    path_count,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
    price_closed_reduced_grid,
    tree_params,
)
from lookback import lattice, numerics
from lookback.cli import TABLE_N_VALUES
from lookback.errors import BudgetError, DomainError, LookbackError, ModelError

from .markets import J0_GRID, SMALL_RATES, TABLE_SIDES, T1, T2, T3, T4
from .oracles import (
    closed_sum_mp,
    dense_backward_induction,
    lattice_ratios_mp,
    walk_level_paths,
    walk_price,
)

# Exactly zero, or anywhere down to 1e-14: one formula serves every rate.
rate_strategy = st.one_of(
    st.just(0.0), st.floats(min_value=1e-14, max_value=0.15)
)

market_strategy = st.builds(
    lambda spot, ratio, sigma, rate, tau, put: MarketState(
        spot=spot,
        extremum=spot * ratio if put else spot / ratio,
        sigma=sigma,
        rate=rate,
        tau=tau,
    ),
    spot=st.floats(min_value=10.0, max_value=200.0),
    ratio=st.floats(min_value=1.0, max_value=3.0),
    sigma=st.floats(min_value=0.05, max_value=0.6),
    rate=rate_strategy,
    tau=st.floats(min_value=0.1, max_value=3.0),
    put=st.booleans(),
)


class TestMarketState:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spot": 0.0}, {"spot": -5.0}, {"extremum": 0.0},
            {"sigma": 0.0}, {"rate": -0.01}, {"tau": 0.0},
            # spot/extremum or its inverse overflows, so the lattice level
            # log(spot/extremum) is infinite
            {"spot": 1e-300, "extremum": 1e300},
            {"spot": 1e300, "extremum": 1e-300},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        base = dict(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
        base.update(kwargs)
        with pytest.raises(DomainError):
            MarketState(**base)

    @pytest.mark.parametrize("field", ["spot", "extremum", "sigma", "rate", "tau"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_fields_raise(self, field, value):
        base = dict(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
        base[field] = value
        with pytest.raises(DomainError):
            MarketState(**base)

    @pytest.mark.parametrize("pricer", [
        lambda side: price_closed(T1, 50, side),
        lambda side: price_closed_reduced(T1, 100, side),
        lambda side: price_backward_induction(T1, 50, side),
        lambda side: bs_price(T1, side),
        lambda side: expansion_coeffs(T1, side),
    ], ids=["closed", "reduced", "tree", "bs", "expansion"])
    @pytest.mark.parametrize("side", ["CALL", "Put", "", "straddle"])
    def test_unknown_side_raises(self, pricer, side):
        """An unknown side is refused, not priced as the other side."""
        with pytest.raises(DomainError):
            pricer(side)

    def test_require_side(self):
        """Calls need extremum <= spot (running min); puts the reverse."""
        below = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.0, tau=1.0)
        above = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.0, tau=1.0)
        below.require_side("call")
        above.require_side("put")
        with pytest.raises(DomainError):
            below.require_side("put")
        with pytest.raises(DomainError):
            above.require_side("call")


class TestTreeParams:
    def test_emission_level_is_zero(self):
        par = tree_params(
            MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=0.08, tau=1.27),
            100,
            "call",
        )
        assert par.j0 == 0.0 and par.j0_floor == 0
        assert par.j0_frac == 0.0 and par.kappa == 0.0

    def test_table_market_parameters(self):
        """n = 1000 on the rate-0.08 call market: u = e^{0.2 sqrt(0.00127)},
        j0 = log(4/3) / (0.2 sqrt(0.00127))."""
        par = tree_params(T1, 1000, "call")
        s = 0.2 * math.sqrt(1.27 / 1000)
        assert math.isclose(par.u, math.exp(s), rel_tol=1e-14)
        assert math.isclose(par.j0, math.log(4.0 / 3.0) / s, rel_tol=1e-12)
        assert par.j0_floor == math.floor(par.j0)
        assert math.isclose(par.kappa, par.j0_frac * (1.0 - par.j0_frac), rel_tol=1e-12)

    def test_put_level_swaps_ratio(self):
        par = tree_params(T3, 1000, "put")
        s = 0.2 * math.sqrt(1.27 / 1000)
        assert math.isclose(par.j0, math.log(100.0 / 80.0) / s, rel_tol=1e-12)

    def test_reciprocal_factors(self):
        par = tree_params(T1, 313, "call")
        assert abs(par.u * par.d - 1.0) <= 1e-15

    def test_adjusted_weight_identity(self):
        """q_adj == (u - e^{-r dt})/(u - d) and p_up == (e^{r dt} - d)/(u - d)."""
        par = tree_params(T1, 313, "call")
        dt = 1.27 / 313
        u, d = par.u, par.d
        assert math.isclose(par.q_adj, (u - math.exp(-0.08 * dt)) / (u - d), rel_tol=1e-12)
        assert math.isclose(par.p_up, (math.exp(0.08 * dt) - d) / (u - d), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [313, 10**7])
    @pytest.mark.parametrize("market, side, sign", [(T1, "call", 1.0), (T3, "put", -1.0)],
                             ids=["T1", "T3"])
    def test_ratio_fields_against_mpmath(self, market, side, sign, n):
        """Q and the vanishing P - 1, Q d - 1 keep full relative
        precision, a put's on its own lattice at -sigma; at n = 1e7 forming
        them as P - 1 or Q*d - 1 from the float Q, P loses 3e-13 to 4e-13."""
        par = tree_params(market, n, side)
        ref = lattice_ratios_mp(sign * market.sigma, market.rate, market.tau, n)
        for name, value in ref.items():
            got = getattr(par, name)
            assert abs(got - float(value)) <= 2e-15 * abs(float(value)), name

    def test_integer_level_snaps(self):
        """A spot/extremum ratio that is an exact power of u must give a
        fractional part of exactly zero (and kappa = 0), even though the
        log/sqrt round trip is inexact."""
        n = 50
        s = 0.2 * math.sqrt(1.27 / n)
        market = MarketState(
            spot=80.0, extremum=80.0 * math.exp(-3 * s), sigma=0.2, rate=0.08, tau=1.27
        )
        par = tree_params(market, n, "call")
        assert par.j0_floor == 3 and par.j0_frac == 0.0 and par.kappa == 0.0

    def test_near_integer_level_does_not_snap(self):
        """1e-6 away from an integer is a real fractional part, far above
        the snapping threshold."""
        n = 50
        s = 0.2 * math.sqrt(1.27 / n)
        market = MarketState(
            spot=80.0,
            extremum=80.0 * math.exp(-(3.0 + 1e-6) * s),
            sigma=0.2,
            rate=0.08,
            tau=1.27,
        )
        par = tree_params(market, n, "call")
        assert par.j0_floor == 3
        assert par.j0_frac == pytest.approx(1e-6, rel=1e-3)

    def test_rate_dominating_volatility_rejected(self):
        """p would leave (0, 1) when r dt >= sigma sqrt(dt), and p or 1 - p
        rounds to 0 or 1 from about s = sigma sqrt(dt) = 37, where
        price_closed and price_closed_reduced would fail in log1p."""
        cases = [
            (MarketState(spot=80.0, extremum=60.0, sigma=0.01, rate=5.0, tau=1.0), 1, "call"),
            (MarketState(spot=0.0635, extremum=0.0031, sigma=2173.0, rate=0.0345,
                         tau=0.0766), 100, "call"),
            (MarketState(spot=90.43, extremum=4710.5, sigma=125.5, rate=0.0004,
                         tau=5.125), 10, "put"),
        ]
        for market, n, side in cases:
            for pricer in (tree_params, price_closed, price_closed_reduced):
                with pytest.raises(ModelError):
                    pricer(market, n, side)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            tree_params(T1, 0, "call")

    @pytest.mark.parametrize("pricer", [price_closed, price_closed_reduced,
                                        price_backward_induction])
    @pytest.mark.parametrize("n", [5.0, 5.5, "7", None])
    def test_non_integer_n_rejected(self, pricer, n):
        with pytest.raises(DomainError):
            pricer(T1, n, "call")

    @pytest.mark.parametrize("pricer", [price_closed, price_closed_reduced,
                                        price_backward_induction])
    def test_numpy_integer_n_accepted(self, pricer):
        assert pricer(T1, np.int64(50), "call") == pricer(T1, 50, "call")

    @settings(max_examples=80)
    @given(market=market_strategy, n=st.integers(min_value=10, max_value=400))
    def test_probabilities_and_kappa_in_range(self, market, n):
        """0 < p_up, q_adj < 1 and 0 <= kappa <= 1/4 whenever the model
        constraint r dt < sigma sqrt(dt) holds.  A put's walk steps by
        s < 0, and the tree's pair (w_up, w_dn) sums to 1 exactly: the
        weight of q_adj and one_m_q that is at least 1/2, and 1.0 minus it."""
        dt = market.tau / n
        assume(market.rate * dt < market.sigma * math.sqrt(dt) * 0.999)
        side = "call" if market.extremum <= market.spot else "put"
        par = tree_params(market, n, side)
        assert 0.0 < par.p_up < 1.0
        assert 0.0 < par.q_adj < 1.0
        assert 0.0 <= par.kappa <= 0.25
        assert par.j0 == par.j0_floor + par.j0_frac
        assert (par.s > 0.0) == (side == "call")
        assert par.w_up + par.w_dn == 1.0
        assert max(par.w_up, par.w_dn) >= 0.5
        assert max(par.w_up, par.w_dn) in (par.q_adj, par.one_m_q)


class TestPathCounts:
    def test_single_step_from_emission(self):
        assert path_count(0.0, 1.0, 1, 1) == 1
        assert path_count(0.0, 0.0, 0, 1) == 1

    def test_reflection_corrected_count(self):
        """From j0 = 1.6 in 5 steps, 3 ups end at 2.6; the reflection
        principle removes C(5,5) of the C(5,3) unconstrained words."""
        assert path_count(1.6, 2.6, 3, 5) == math.comb(5, 3) - math.comb(5, 5)
        assert path_count(1.6, 2.6, 3, 5) == 9

    def test_out_of_range_is_zero(self):
        assert path_count(1.6, 2.6, 5, 5) == 0
        assert path_count(1.6, 7.0, 3, 5) == 0
        assert path_count(0.3, 0.3, 9, 5) == 0

    @pytest.mark.parametrize("j0,n", [(1.6, 5), (1.0, 5), (0.0, 8), (2.3, 12)])
    def test_totals(self, j0, n):
        """Every one of the 2^n words lands in exactly one (j, k) cell."""
        assert sum(pc.count for pc in iter_path_counts(j0, n)) == 2**n

    @pytest.mark.parametrize("j0", J0_GRID)
    def test_totals_at_enumeration_budget(self, j0):
        n = 22
        assert sum(pc.count for pc in iter_path_counts(j0, n)) == 2**n

    @pytest.mark.parametrize("j0,n", [(1.6, 5), (1.0, 5), (0.0, 6), (3.7, 9)])
    def test_cells_are_disjoint(self, j0, n):
        seen = [(pc.j, pc.k) for pc in iter_path_counts(j0, n)]
        assert len(seen) == len(set(seen))

    def test_enumerate_single_step(self):
        assert walk_level_paths(Fraction(0), 1) == {(Fraction(1), 1): 1, (Fraction(0), 0): 1}

    @pytest.mark.parametrize("j0,n", [(1.6, 5), (1.0, 5), (0.0, 8), (2.3, 10)])
    def test_enumerate_matches_formula(self, j0, n):
        enum = {
            (float(level), k): c
            for (level, k), c in walk_level_paths(Fraction(j0), n).items()
        }
        from_iter = {(pc.j, pc.k): pc.count for pc in iter_path_counts(j0, n)}
        assert enum == from_iter

    @settings(max_examples=25)
    @given(
        j0=st.sampled_from(J0_GRID + (2.0 + 1e-6, 1.0 - 1e-6, 0.0 + 1e-6)),
        n=st.integers(min_value=1, max_value=10),
    )
    def test_against_brute_force_walk(self, j0, n):
        """The formula counts equal a literal walk over all 2^n words,
        including just off-integer starts that must not snap."""
        walked = {
            (float(level), k): c
            for (level, k), c in walk_level_paths(Fraction(j0), n).items()
        }
        from_iter = {(pc.j, pc.k): pc.count for pc in iter_path_counts(j0, n)}
        assert walked == from_iter
        for (j, k), count in walked.items():
            assert path_count(j0, j, k, n) == count

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            path_count(-0.5, 0.0, 0, 3)
        with pytest.raises(DomainError):
            path_count(1.0, 0.0, 0, 0)

    @pytest.mark.parametrize("n", [lattice.TREE_MAX_N + 1, 2**1023], ids=["cap+1", "2^1023"])
    def test_n_past_the_tree_cap_is_refused_at_the_call(self, n):
        """The cells grow about as n^3.6 in time (3.1 s at n = 800), and at
        2**1023 ``math.comb`` raised a raw OverflowError."""
        with pytest.raises(BudgetError):
            iter_path_counts(0.0, n)
        with pytest.raises(BudgetError):
            path_count(0.0, 1.0, 1, n)

    @pytest.mark.parametrize("bad", [5.0, 5.5, "7", None])
    def test_non_integer_n_and_k_rejected(self, bad):
        with pytest.raises(DomainError):
            list(iter_path_counts(0.0, bad))
        with pytest.raises(DomainError):
            path_count(0.0, 1.0, 3, bad)
        with pytest.raises(DomainError):
            path_count(0.0, 1.0, bad, 5)

    def test_numpy_integer_n_and_k_accepted(self):
        assert list(iter_path_counts(1.6, np.int64(5))) == list(iter_path_counts(1.6, 5))
        assert path_count(1.6, 2.6, np.int64(3), np.int64(5)) == 9

    @pytest.mark.parametrize("j0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, j0):
        with pytest.raises(DomainError):
            list(iter_path_counts(j0, 5))

    @pytest.mark.parametrize("j0,n", [(math.nan, 5), (math.inf, 5), (-1.0, 5),
                                      (0.0, 5.0), (0.0, 0)])
    def test_refused_at_the_call(self, j0, n):
        with pytest.raises(DomainError):
            iter_path_counts(j0, n)


class TestProbabilityMass:
    @settings(max_examples=30)
    @given(
        j0=st.sampled_from(J0_GRID),
        n=st.integers(min_value=1, max_value=18),
        w=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_counts_carry_unit_mass(self, j0, n, w):
        """sum_j,k Lambda w^k (1-w)^{n-k} == 1: the counts partition all
        words, so any Bernoulli weighting must integrate to one."""
        total = math.fsum(
            pc.count * w**pc.k * (1.0 - w) ** (n - pc.k)
            for pc in iter_path_counts(j0, n)
        )
        assert abs(total - 1.0) <= 1e-12


class TestPriceClosed:
    @pytest.mark.parametrize(
        "n,anchor",
        [(2, 26.03214307), (100, 26.32139249), (400, 26.35271248)],
    )
    def test_plotted_anchors(self, n, anchor):
        assert abs(price_closed(T1, n, "call") - anchor) <= 5e-8

    @pytest.mark.parametrize(
        "market,side,printed",
        [(T1, "call", 26.3647), (T2, "call", 21.3779), (T3, "put", 16.3662)],
    )
    def test_reduced_reproduces_table_prices(self, market, side, printed):
        assert abs(price_closed_reduced(market, 1000, side) - printed) <= 5e-5

    @pytest.mark.parametrize("market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")])
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 313])
    def test_closed_equals_reduced(self, market, side, n):
        a = price_closed(market, n, side)
        b = price_closed_reduced(market, n, side)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), f"n={n}: {a} vs {b}"

    @settings(max_examples=20)
    @given(
        market=market_strategy,
        n=st.integers(min_value=1, max_value=60),
    )
    def test_never_negative(self, market, n):
        """A floating-strike lookback payoff is nonnegative pathwise."""
        dt = market.tau / n
        assume(market.rate * dt < market.sigma * math.sqrt(dt) * 0.999)
        side = "call" if market.extremum <= market.spot else "put"
        assert price_closed_reduced(market, n, side) >= 0.0

    @settings(max_examples=15)
    @given(
        market=market_strategy,
        n=st.integers(min_value=1, max_value=12),
    )
    def test_against_brute_force_expectation(self, market, n):
        """S times the payoff expectation over all 2^n literally walked
        paths reproduces the closed sum."""
        dt = market.tau / n
        assume(market.rate * dt < market.sigma * math.sqrt(dt) * 0.999)
        side = "call" if market.extremum <= market.spot else "put"
        par = tree_params(market, n, side)
        s = market.sigma * math.sqrt(dt)
        ref = walk_price(market.spot, Fraction(par.j0), n, par.w_up, s, side)
        got = price_closed(market, n, side)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [lattice.CLOSED_MAX_N + 1, 10**12])
    def test_budget(self, n):
        """Past CLOSED_MAX_N the closed sum refuses before it allocates its
        pmf row (80 MB at the cap, 7.3 TiB at 10^12)."""
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                price_closed(T1, n, "call")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _closed_sum_mp(market: MarketState, n: int, side: str):
    par = tree_params(market, n, side)
    return closed_sum_mp(market.spot, n, par.w_up, par.j0, par.j0_floor, abs(par.s), side)


# (spot, extremum, sigma, rate, tau, n) of calls that price_closed's sums
# put 1.6e-16 to 4.4e-16 relative above spot, where the price tends to spot,
# and (the last two) that an earlier arrangement of price_closed_reduced,
# with six CDFs, put 2.2e-16 above it
CALLS_NEAR_SPOT = [
    (87.67412162917454, 41.61560457517693, 8.844315758515796, 3.240377741539851e-08,
     23.388526053033033, 85),
    (214.6816323297593, 21.379849374909693, 4.253163029559648, 0.0, 24.410891854945056, 101),
    (8261.450323902052, 5561.564308127333, 9.434108357512072, 0.886725427074273,
     2.81484476259427, 116),
    (4.154155499349528, 3.807908762032182, 3.434727580726982, 1.0420111821095741e-13,
     23.02997871878552, 219),
    (2.90157339748838, 0.03929265429900224, 3.6553721892133555, 8.901567779559247e-06,
     20.66795101218289, 166),
]


@pytest.mark.parametrize("pricer", [price_closed, price_closed_reduced,
                                    price_backward_induction])
@pytest.mark.parametrize("spot,extremum,sigma,rate,tau,n", CALLS_NEAR_SPOT)
def test_call_within_spot(pricer, spot, extremum, sigma, rate, tau, n):
    """A call's payoff S_T - min is at most S_T, so its price is at most spot."""
    market = MarketState(spot=spot, extremum=extremum, sigma=sigma, rate=rate, tau=tau)
    assert 0.0 <= pricer(market, n, "call") <= spot


class TestClosedSum:
    """The O(n) closed sum against the tree, a 40-digit evaluation of the
    same formula, and the reduced form beyond the tree's budget."""

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_matches_tree_tightly(self, market, side):
        """Within 1e-13 relative of backward induction for every n <= 500
        and at n = 1000, 2000, 5000 (worst seen 5e-15)."""
        for n in [*range(1, 501), 1000, 2000, 5000]:
            a = price_closed(market, n, side)
            b = price_backward_induction(market, n, side)
            assert abs(a - b) <= 1e-13 * abs(b), f"n={n}: {a} vs {b}"

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_against_mp_closed_sum(self, market, side):
        ref = _closed_sum_mp(market, 5000, side)
        got = price_closed(market, 5000, side)
        assert abs(got - ref) <= 1e-13 * abs(ref), f"{got} vs {ref}"

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_mp_closed_sum_against_walk(self, market, side, n):
        """The 40-digit oracle itself reproduces the 2^n path walk."""
        par = tree_params(market, n, side)
        walk = walk_price(market.spot, Fraction(par.j0), n, par.w_up, abs(par.s), side)
        ref = _closed_sum_mp(market, n, side)
        assert abs(walk - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_reduced_matches_closed_at_large_n(self, market, side, n):
        a = price_closed(market, n, side)
        b = price_closed_reduced(market, n, side)
        assert abs(a - b) <= 1e-10 * abs(a), f"n={n}: {(b - a) / a:.2e}"

    @pytest.mark.parametrize("market,side", [(T2, "call"), (T4, "put")])
    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_zero_rate_reduced_does_not_drift(self, market, side, n):
        """At r = 0 V3's CDF difference is n pmf_{n-1}(j3), so no two
        O(n) terms cancel (worst seen 1.4e-13, T4 at n = 1e6)."""
        a = price_closed(market, n, side)
        b = price_closed_reduced(market, n, side)
        assert abs(a - b) <= 3e-13 * abs(a), f"n={n}: {(b - a) / a:.2e}"

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_reduced_error_in_printed_scaled2(self, market, side):
        """scaled2 = (price_n - c0 - c1/sqrt(n)) n carries n times the
        pricer's error (worst seen 2.3e-7, T4 at n = 1e5)."""
        for n in TABLE_N_VALUES:
            a = price_closed(market, n, side)
            b = price_closed_reduced(market, n, side)
            assert abs(a - b) * n <= 5e-7, f"n={n}: {abs(a - b) * n:.2e}"


class TestReducedBothSides:
    """One arrangement of the reduced form prices calls and puts."""

    def test_random_markets_against_closed(self):
        """Both sides, r = 0 and r in [1e-3, 0.16], n <= 5000."""
        rng = random.Random(20261018)
        worst = []
        for i in range(300):
            side = ("call", "put")[i % 2]
            spot = math.exp(rng.uniform(-3.0, 5.0))
            ratio = math.exp(rng.uniform(0.0, 0.8))
            sigma = math.exp(rng.uniform(math.log(0.02), 0.0))
            rate = 0.0 if i % 3 == 0 else rng.uniform(1e-3, 0.16)
            tau = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
            # n > r^2 tau / sigma^2 keeps r tau/n below the log step
            n = max(int(math.exp(rng.uniform(0.0, math.log(5000.0)))),
                    math.floor(rate**2 * tau / sigma**2) + 1)
            market = MarketState(spot=spot, extremum=spot * ratio if side == "put"
                                 else spot / ratio, sigma=sigma, rate=rate, tau=tau)
            a = price_closed(market, n, side)
            b = price_closed_reduced(market, n, side)
            worst.append((abs(b - a) / abs(a), side, rate, n))
        err, side, rate, n = max(worst)
        assert err <= 1e-11, f"{side}, r = {rate}, n = {n}: {err:.2e}"

    @pytest.mark.parametrize("market,side", [(T1, "call"), (T3, "put")])
    @pytest.mark.parametrize("rate", SMALL_RATES)
    def test_small_rate_against_tree(self, market, side, rate, monkeypatch):
        """One formula for every rate: no 1/r pole, both sides within 1e-12
        of backward induction from r = 0 up (worst seen 2.2e-13, T3 at
        r = 0.3 and n = 3, where r tau/n is 2% below the log step).  V3's
        CDF difference is a Gauss-Legendre mean up to r = 0.01 and a direct
        difference at 0.3, so the grid runs both paths."""
        means = []
        gl_mean = lattice.gl_mean
        monkeypatch.setattr(lattice, "gl_mean", lambda *args: means.append(1) or gl_mean(*args))
        market = dataclasses.replace(market, rate=rate)
        for n in (1, 2, 3, 50, 499, 500):
            if rate * (market.tau / n) >= market.sigma * math.sqrt(market.tau / n):
                with pytest.raises(ModelError):
                    price_closed_reduced(market, n, side)
                continue
            a = price_closed_reduced(market, n, side)
            b = price_backward_induction(market, n, side)
            assert abs(a - b) <= 1e-12 * abs(b), f"n={n}: {(a - b) / b:.2e}"
        if rate <= 0.01 or rate == 0.3:
            assert bool(means) == (rate <= 0.01)

    def test_two_v3_routes_agree(self, monkeypatch):
        """V3's CDF difference taken as a Gauss-Legendre mean and taken
        directly give the same price within 2e-13 relative, on markets
        whose spread lies in [0.5, 1.5] either side of ``GL_MAX_SPREAD``,
        at n from 1e3 to 1e5 where neither the tree nor ``price_closed``
        checks them (worst seen 5.5e-14 on these 60, and 1.2e-13 over 1,096
        drawn alike)."""
        rng = random.Random(26)
        worst, markets = [], 0
        while markets < 60:
            side = rng.choice(("call", "put"))
            ratio = math.exp(rng.uniform(0.0, 0.3))
            market = MarketState(spot=100.0, extremum=100.0 / ratio if side == "call"
                                 else 100.0 * ratio,
                                 sigma=math.exp(rng.uniform(math.log(0.05), math.log(0.6))),
                                 rate=rng.uniform(0.01, 0.3), tau=rng.uniform(0.25, 3.0))
            n = int(math.exp(rng.uniform(math.log(1e3), math.log(1e5))))
            if not 0.5 <= _v3_spread(market, n, side) <= 1.5:
                continue
            markets += 1
            prices = []
            for cap in (0.0, math.inf):
                monkeypatch.setattr(lattice, "GL_MAX_SPREAD", cap)
                prices.append(price_closed_reduced(market, n, side))
            direct, mean = prices
            worst.append((abs(mean - direct) / abs(direct), side, n))
        err, side, n = max(worst)
        assert err <= 2e-13, f"{side}, n = {n}: {err:.2e}"


def _v3_spread(market: MarketState, n: int, side: str) -> float:
    """About the spread that ``_reduced_terms`` weighs against
    ``GL_MAX_SPREAD``: the width of V3's interval [w, 1 - w'], formed by
    subtraction, times the largest |d/dt log pmf_{n-1,t}(j3)| on it; -1
    where j3 < 0."""
    par = tree_params(market, n, side)
    j3 = n - (n + par.j0_floor) // 2 - 1
    if j3 < 0:
        return -1.0
    width = 1.0 - par.p_up - par.q_adj
    return abs(width) * max(abs(j3 / t - (n - 1 - j3) / (1.0 - t))
                            for t in (par.q_adj, par.one_m_p))


# (spot, sigma, rate, tau, n) of calls at emission whose log step
# s = sigma sqrt(tau/n) is about 1.1e-5
SMALL_STEP_CALLS = [
    (1.5147021408700285, 0.0014859041406720694, 4.4516523936537355e-08,
     0.017546769983361868, 316),
    (384.1509194475397, 0.001324933496710744, 1.2609610956980443e-10,
     0.006878952057274318, 107),
]


@pytest.mark.parametrize("spot,sigma,rate,tau,n", SMALL_STEP_CALLS)
def test_small_step_at_emission_against_mp_closed_sum(spot, sigma, rate, tau, n):
    """At emission the price is O(s sqrt(n)) of spot, and V1 - V2 - V3
    cancels down to it, so the reduced form loses about 1/(s sqrt(n))
    ulps: 7.2e-12 and 2.9e-12 relative on these two calls, where
    ``price_closed`` stays within 1.3e-15."""
    market = MarketState(spot=spot, extremum=spot, sigma=sigma, rate=rate, tau=tau)
    ref = _closed_sum_mp(market, n, "call")
    got = price_closed_reduced(market, n, "call")
    assert abs(got - ref) <= 1e-11 * abs(ref), f"{(got - ref) / ref:.2e}"


def _branches(market: MarketState, ns, side: str, monkeypatch) -> set[str]:
    """The branches of the reduced form that the prices of a grid take.
    V3's difference is direct where a price runs no ``gl_mean``."""
    means = []
    gl_mean = lattice.gl_mean
    monkeypatch.setattr(lattice, "gl_mean", lambda *args: means.append(1) or gl_mean(*args))
    taken = set()
    for n in ns:
        par = tree_params(market, n, side)
        n_inner = n - par.j0_floor - 1
        if n_inner < 0:
            taken.add("n_inner < 0")
            continue
        if n_inner % 2 == 0:
            taken.add("parity edge")
        means.clear()
        price_closed_reduced(market, n, side)
        if not means:
            taken.add("direct difference")
    return taken


T1_FAST = dataclasses.replace(T1, rate=0.3)
T3_FAST = dataclasses.replace(T3, rate=0.3)


class TestReducedGrid:
    """A grid of reduced prices from one ``binom_cdfs`` call is the loop of
    single prices, bit for bit, and raises what that loop raises."""

    @pytest.mark.parametrize("market,side,ns,branch", [
        (T1, "call", (1, 2, 3, 7, 40), "n_inner < 0"),
        (dataclasses.replace(T3, extremum=150.0), "put", (1, 2, 5, 8, 9), "n_inner < 0"),
        (T1, "call", (2, 3, 4, 5, 6, 17, 1000), "parity edge"),
        (T4, "put", (2, 3, 4, 5, 6, 999, 1000), "parity edge"),
        (T1_FAST, "call", (3, 50, 499, 500), "direct difference"),
        (T3_FAST, "put", (3, 50, 499, 500), "direct difference"),
    ])
    def test_branches_equal_the_loop(self, market, side, ns, branch, monkeypatch):
        assert branch in _branches(market, ns, side, monkeypatch)
        assert price_closed_reduced_grid(market, ns, side) == [
            price_closed_reduced(market, n, side) for n in ns]

    @settings(max_examples=40)
    @given(market=market_strategy,
           ns=st.lists(st.integers(min_value=1, max_value=3000), min_size=2, max_size=20,
                       unique=True).map(sorted))
    @example(market=T1, ns=[1, 2, 3, 7, 40])
    @example(market=T3_FAST, ns=[3, 50, 499, 500])
    def test_random_grids_equal_the_loop(self, market, ns):
        side = "call" if market.extremum <= market.spot else "put"
        try:
            loop = [price_closed_reduced(market, n, side) for n in ns]
        except LookbackError as exc:
            with pytest.raises(type(exc)) as raised:
                price_closed_reduced_grid(market, ns, side)
            assert str(raised.value) == str(exc)
        else:
            assert price_closed_reduced_grid(market, ns, side) == loop

    def test_empty_grid(self):
        assert price_closed_reduced_grid(T1, [], "call") == []

    @pytest.mark.parametrize("ns", [
        (100, 400), (400, 100), (10**9 + 1, 100), (400, 10**9 + 1), (5, 5.5, 100),
    ])
    def test_refused_n_raises_as_the_loop(self, ns):
        """At r = 3 on the T1 market tree_params refuses n below 286.  The
        loop meets a refused n, or one past CDF_MAX_N, in grid order."""
        market = dataclasses.replace(T1, rate=3.0)
        with pytest.raises(LookbackError) as loop:
            for n in ns:
                price_closed_reduced(market, n, "call")
        with pytest.raises(type(loop.value)) as grid:
            price_closed_reduced_grid(market, ns, "call")
        assert str(grid.value) == str(loop.value)

    @pytest.mark.parametrize("ns", [(1, 0), (2, 1, 10**9 + 1), (1, 5.5)])
    def test_bound_refusal_before_a_later_refused_n(self, ns):
        """On the put at emission with r tau/n just below s, n = 1 prices
        below 0, which is refused only once its CDFs are summed; an n
        after it that tree_params or the CDFs refuse does not pre-empt it."""
        market = MarketState(spot=100.0, extremum=100.0, sigma=0.5, rate=0.4999999995, tau=1.0)
        with pytest.raises(ModelError, match="below 0") as loop:
            for n in ns:
                price_closed_reduced(market, n, "put")
        with pytest.raises(ModelError) as grid:
            price_closed_reduced_grid(market, ns, "put")
        assert str(grid.value) == str(loop.value)


@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_price_closed_takes_one_kernel_call_for_its_row(n, kernel_calls):
    price_closed(T1, n, "call")
    assert kernel_calls == [(n + 1, False)]


class TestReducedPackedPass:
    """The CDFs of a reduced price share kernel calls of bounded size."""

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_one_kernel_call_up_to_n_2000(self, market, side, kernel_calls):
        for n in [*range(2, 2000, 13), 2000]:
            kernel_calls.clear()
            price_closed_reduced(market, n, side)
            assert len(kernel_calls) == 1, f"n={n}: {kernel_calls}"

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_grid_shares_kernel_calls(self, market, side, kernel_calls):
        # a 16-n window priced one n at a time takes 16 calls
        for start, calls in zip((2, 100, 1000), (1, 1, 2)):
            kernel_calls.clear()
            price_closed_reduced_grid(market, range(start, start + 16), side)
            assert len(kernel_calls) == calls, f"start={start}: {kernel_calls}"
            assert max(size for size, _ in kernel_calls) <= numerics._PACK_MAX

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_packed_calls_within_cap(self, market, side, monkeypatch):
        """A call over two or more segments holds at most ``_PACK_MAX``
        entries."""
        chunk_terms, calls = numerics._chunk_terms, []

        def recording(chunks):
            calls.append([len(chunk) for _, _, chunk in chunks])
            return chunk_terms(chunks)

        monkeypatch.setattr(numerics, "_chunk_terms", recording)
        for n in [5000, 10**4, 3 * 10**4, 10**5, 10**6]:
            price_closed_reduced(market, n, side)
        packed = [sizes for sizes in calls if len(sizes) > 1]
        assert packed and all(sum(sizes) <= numerics._PACK_MAX for sizes in packed), packed

    @pytest.mark.parametrize("market,side,n,calls", [
        (T4, "put", 10**6, 3),
        # a put of the seed-1 ``deep`` benchmark round, at emission
        (MarketState(spot=116.06187021975191, extremum=116.06187021975191,
                     sigma=0.1968400610033863, rate=0.0, tau=1.3905743117616243),
         "put", 886_489, 2),
    ])
    def test_terms_are_the_prices_own(self, market, side, n, calls, kernel_calls,
                                      monkeypatch):
        """Every pmf term of a price is of its own (n, q_adj) or
        (n, p_up): no term of n - 1 is left."""
        chunk_terms, pairs = numerics._chunk_terms, set()

        def recording(chunks):
            pairs.update((m, p) for m, p, _ in chunks)
            return chunk_terms(chunks)

        monkeypatch.setattr(numerics, "_chunk_terms", recording)
        price_closed_reduced(market, n, side)
        assert len(kernel_calls) == calls, kernel_calls
        par = tree_params(market, n, side)
        assert pairs and pairs <= {(n, par.q_adj), (n, par.p_up)}, pairs


def _exact_pair(t: float, one_m: float) -> tuple[float, float]:
    """(t, 1 - t) as a pair of floats that sum to 1 exactly: the one of
    t and one_m that is at least 1/2, as formed, and 1.0 minus it."""
    return (t, 1.0 - t) if t >= 0.5 else (1.0 - one_m, one_m)


class TestReducedIdentities:
    """pmf_{n,1-t}(k) = pmf_{n,t}(n - k) and n - j3 - 1 = j2 - 1 - [n + f
    odd], so the lower sums in 1 - w and 1 - w' at j3, which V3 held, are
    the upper sums in w and w' at j2 - 1 plus [n + f odd] times their
    pmfs at j2 - 1.  Each pair of weights sums to 1 exactly, so the
    kernel's terms of the two sides are mirrors, and they differ only by
    the rounding of their logs, about |log term| ulps: within 1e-14 of
    the sum, or 5e-16 |log sum| in the far tails.  At odd n + f,
    C(n, j2 - 1) = C(n, j3), so t^{-(f+1)} (1-t)^{f+1} pmf_t(j2 - 1) is
    pmf_t(j3), which the reduced form takes in its place; the logs are
    compared, as the power overflows at large f."""

    @staticmethod
    def _check(market: MarketState, n: int, side: str) -> int:
        par = tree_params(market, n, side)
        floor = par.j0_floor
        j3 = n - (n + floor) // 2 - 1
        j2 = j3 + floor + 2
        odd = (n + floor) % 2
        for t, one_m in (_exact_pair(par.q_adj, par.one_m_q),
                         _exact_pair(par.p_up, par.one_m_p)):
            low, upper, pmf = numerics.binom_cdfs([(n, one_m, j3, False), (n, t, j2 - 1, True),
                                                   (n, t, j2 - 1, None)])
            want = upper + odd * pmf
            tol = max(1e-14, -5e-16 * math.log(want)) * want if want else 0.0
            assert abs(low - want) <= tol, f"n={n}, f={floor}: {low!r} vs {want!r}"
            if odd and j3 >= 0:
                log_top = numerics.binom_pmf_log(n, t, j2 - 1) - (floor + 1) * math.log(t / one_m)
                log_j3 = numerics.binom_pmf_log(n, t, j3)
                assert abs(log_top - log_j3) <= 1e-14 * max(1.0, abs(log_j3), (floor + 1)), (
                    f"n={n}, f={floor}: {log_top!r} vs {log_j3!r}")
        return odd

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_table_markets(self, market, side):
        ns = (2, 3, 10, 11, 100, 101, 1000, 1001, 10**4, 10**4 + 1, 10**5, 10**5 + 1,
              10**6, 10**6 + 1)
        assert {self._check(market, n, side) for n in ns} == {0, 1}

    @settings(max_examples=200, derandomize=True)
    @given(market=market_strategy, n=st.integers(min_value=1, max_value=20_000))
    def test_random_markets(self, market, n):
        side = "put" if market.extremum > market.spot else "call"
        try:
            tree_params(market, n, side)
        except LookbackError:
            assume(False)
        self._check(market, n, side)


class TestPriceBackwardInduction:
    @pytest.mark.parametrize("n", [2, 5, 50, 313])
    def test_matches_closed_form(self, n):
        a = price_closed(T1, n, "call")
        b = price_backward_induction(T1, n, "call")
        assert abs(a - b) <= 1e-10 * abs(a), f"n={n}: {a} vs {b}"

    @pytest.mark.parametrize("market,side", [(T2, "call"), (T3, "put"), (T4, "put")])
    def test_matches_closed_form_other_markets(self, market, side):
        n = 97
        a = price_closed(market, n, side)
        b = price_backward_induction(market, n, side)
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_two_period_anchor(self):
        assert abs(price_backward_induction(T1, 2, "call") - 26.03214307) <= 5e-8

    def test_emission_matches_direct_sum(self):
        """At emission (j0 = 0) with n = 3 the tree value is the plain
        expectation S sum_j payoff(j) sum_k Lambda^0_{j,k,3} q^k (1-q)^{3-k}."""
        market = MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=0.08, tau=1.27)
        n = 3
        par = tree_params(market, n, "call")
        s = market.sigma * math.sqrt(market.tau / n)
        q = par.q_adj
        direct = market.spot * math.fsum(
            pc.count * q**pc.k * (1.0 - q) ** (n - pc.k) * -math.expm1(-pc.j * s)
            for pc in iter_path_counts(0.0, n)
        )
        got = price_backward_induction(market, n, "call")
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_budget(self):
        with pytest.raises(BudgetError):
            price_backward_induction(T1, 5001, "call")

    @pytest.mark.parametrize("side,rate", [("call", 0.0), ("call", 0.08),
                                           ("put", 0.0), ("put", 0.08)])
    def test_matches_dense_oracle_bit_for_bit(self, side, rate):
        """The banded tree returns exactly the float of a tree that steps
        every level from 0 up in plain Python: emission, integer and
        fractional starts, starts just below and above n, and starts no
        path can be absorbed from.  From n = block - 1 on, n sits just
        below, at and just above a block of steps and past two of them.
        Time f, where an integer or fractional start's window stops
        reaching down to G_0 and holds only the cells within t of the
        start, falls at a block's edge (n - f a multiple of the block) or
        inside one, so one block's views may span both sides of it; f =
        block - 1 and n - 1 give the narrower windows one block or more
        of their own."""
        sigma, tau = 0.3, 0.5
        block = lattice._TREE_BLOCK
        grid = [(n, (0, 3, 2.4, n - 0.5, n, n + 1.75, 2 * n + 0.5)) for n in range(1, 41)]
        grid += [(n, (0, 1, 0.4, 1.4, block - 0.6, block - 1, n - 1, n - 0.6, n + 0.4))
                 for n in (block - 1, block, block + 1, 2 * block + 1, 2 * block + 5)]
        for n, starts in grid:
            s = sigma * math.sqrt(tau / n)
            for j0 in starts:
                ratio = math.exp(j0 * s)
                market = MarketState(spot=100.0, extremum=100.0 / ratio if side == "call"
                                     else 100.0 * ratio, sigma=sigma, rate=rate, tau=tau)
                got = price_backward_induction(market, n, side)
                want = dense_backward_induction(market, n, side)
                assert got == want, f"n={n}, j0={j0}: {got!r} vs {want!r}"

    def test_block_length_leaves_the_bits_alone(self, monkeypatch):
        """The block length only groups steps under one set of views: at
        1, 2 and 3 steps a block the tree returns the default's floats."""
        emission = MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=0.08, tau=1.27)
        cases = [*TABLE_SIDES, (emission, "call"), (emission, "put")]
        ns = (1, 7, 130, 500, 2000)
        want = [price_backward_induction(m, n, side) for m, side in cases for n in ns]
        for block in (1, 2, 3):
            monkeypatch.setattr(lattice, "_TREE_BLOCK", block)
            got = [price_backward_induction(m, n, side) for m, side in cases for n in ns]
            assert got == want, f"block {block}"

    @pytest.mark.parametrize("sigma", [0.01, 1e-8, 1e-14, 1e-300])
    @pytest.mark.parametrize("side,extremum", [("call", 1.0), ("put", 1e4)])
    def test_far_start_level_is_banded(self, side, extremum, sigma):
        """spot/extremum = 100 at sigma = 0.01, tau = 1e-4 puts the start
        2,059,494 levels up at n = 2000, beyond any absorption, and the
        smaller sigma put it up to 2e304 levels up, past 2^53, where
        binary64 levels are no longer integers.  The tree holds only the
        2n + 2 levels from f - n - 1 to f + n and steps the 2t + 1 of them
        within t of the start at time t, so it takes milliseconds
        (unbanded, 2e6 cells for 2000 steps at sigma = 0.01) and matches
        the closed sum."""
        market = MarketState(spot=100.0, extremum=extremum, sigma=sigma,
                             rate=0.05 if sigma >= 0.01 else 0.0, tau=1e-4)
        start = time.perf_counter()
        got = price_backward_induction(market, 2000, side)
        elapsed = time.perf_counter() - start
        want = price_closed(market, 2000, side)
        assert abs(got - want) <= 1e-12 * abs(want), f"{got} vs {want}"
        assert elapsed < 5.0, f"{elapsed:.1f} s"

    @pytest.mark.parametrize("side", ["call", "put"])
    @pytest.mark.parametrize("n,offset", [(5, 0.5), (40, 3.0), (40, 17.25), (301, 1.75)])
    def test_band_edge_near_the_start(self, side, n, offset):
        """Start levels just above n, which no path can be absorbed
        from: the column holds levels f - n - 1 .. f + n, its lowest a
        ghost cell that no window reads, and the cell above it, a few
        levels above 0, is read only by the first backward step."""
        sigma, tau = 0.2, 1.27
        ratio = math.exp((n + offset) * sigma * math.sqrt(tau / n))
        market = MarketState(spot=80.0, extremum=80.0 / ratio if side == "call"
                             else 80.0 * ratio, sigma=sigma, rate=0.08, tau=tau)
        a = price_closed(market, n, side)
        b = price_backward_induction(market, n, side)
        assert abs(a - b) <= 1e-13 * abs(a), f"{a} vs {b}"


class TestThreeWayAgreement:
    @pytest.mark.parametrize("market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")])
    @pytest.mark.parametrize("n", [3, 41, 200])
    def test_spot_checks(self, market, side, n):
        """Literal sum, reduced CDF form, and backward induction price the
        same contract; the full n <= 500 sweep runs in the acceptance suite."""
        a = price_closed(market, n, side)
        b = price_closed_reduced(market, n, side)
        c = price_backward_induction(market, n, side)
        scale = max(abs(a), abs(b), abs(c))
        assert abs(a - b) <= 1e-10 * scale
        assert abs(a - c) <= 1e-10 * scale
