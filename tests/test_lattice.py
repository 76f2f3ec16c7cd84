"""Tests for the level lattice: parameters, reflection path counts, and
the three price implementations (literal sum, reduced CDF form, backward
induction)."""

from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    tree_params,
)
from lookback import numerics
from lookback.cli import TABLE_N_VALUES
from lookback.errors import BudgetError, DomainError, ModelError

from .oracles import closed_sum_mp, lattice_ratios_mp, walk_level_paths, walk_price

T1 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
T2 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.0, tau=1.27)
T3 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.08, tau=1.27)
T4 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.0, tau=1.27)

TABLE_SIDES = [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")]

J0_GRID = (0.0, 0.3, 1.0, 1.6, 2.0, 3.7)

# Rates are either exactly zero (its own formula branch) or at least
# 1e-6: branch dispatch is by design exact equality, and the reduced
# rate-positive rearrangement is documented as ill-conditioned for
# economically meaningless rates below ~1e-9.
rate_strategy = st.one_of(
    st.just(0.0), st.floats(min_value=1e-6, max_value=0.15)
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
    @pytest.mark.parametrize("market, side", [(T1, "call"), (T3, "put")],
                             ids=["T1", "T3"])
    def test_ratio_fields_against_mpmath(self, market, side, n):
        """Q, P and the vanishing Q - 1, P - 1, Q d - 1, u/Q - 1 keep full
        relative precision; at n = 1e7 forming them as P - 1, Q*d - 1 or
        u/Q - 1 from the float Q, P loses 3e-13 to 4e-13."""
        par = tree_params(market, n, side)
        ref = lattice_ratios_mp(market.sigma, market.rate, market.tau, n)
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
        """p would leave (0, 1) when r dt >= sigma sqrt(dt)."""
        market = MarketState(spot=80.0, extremum=60.0, sigma=0.01, rate=5.0, tau=1.0)
        with pytest.raises(ModelError):
            tree_params(market, 1, "call")

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            tree_params(T1, 0, "call")

    @settings(max_examples=80, deadline=None)
    @given(market=market_strategy, n=st.integers(min_value=10, max_value=400))
    def test_probabilities_and_kappa_in_range(self, market, n):
        """0 < p_up, q_adj < 1 and 0 <= kappa <= 1/4 whenever the model
        constraint r dt < sigma sqrt(dt) holds."""
        dt = market.tau / n
        assume(market.rate * dt < market.sigma * math.sqrt(dt) * 0.999)
        side = "call" if market.extremum <= market.spot else "put"
        par = tree_params(market, n, side)
        assert 0.0 < par.p_up < 1.0
        assert 0.0 < par.q_adj < 1.0
        assert 0.0 <= par.kappa <= 0.25
        assert par.j0 == par.j0_floor + par.j0_frac


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

    @settings(max_examples=25, deadline=None)
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


class TestProbabilityMass:
    @settings(max_examples=30, deadline=None)
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

    @settings(max_examples=20, deadline=None)
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

    @settings(max_examples=15, deadline=None)
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
        w_up = par.q_adj if side == "call" else 1.0 - par.q_adj
        s = market.sigma * math.sqrt(dt)
        ref = walk_price(market.spot, Fraction(par.j0), n, w_up, s, side)
        got = price_closed(market, n, side)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def _closed_sum_mp(market: MarketState, n: int, side: str):
    par = tree_params(market, n, side)
    w_up = par.q_adj if side == "call" else 1.0 - par.q_adj
    return closed_sum_mp(market.spot, n, w_up, par.j0, par.j0_floor, par.s, side)


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
        w_up = par.q_adj if side == "call" else 1.0 - par.q_adj
        walk = walk_price(market.spot, Fraction(par.j0), n, w_up, par.s, side)
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
        """The zero-rate V3 sums no CDF of length n - 1 (worst seen
        1.2e-13, T4 at n = 1e6)."""
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
    @pytest.mark.parametrize("rate", [1e-4, 1e-5, 1e-6])
    def test_small_rate_against_tree(self, market, side, rate):
        """The r > 0 arrangement has a 1/r pole; at n = 500 both sides
        stay within 1e-10 down to r = 1e-6 (worst seen 6.1e-11, T3)."""
        market = dataclasses.replace(market, rate=rate)
        a = price_closed_reduced(market, 500, side)
        b = price_backward_induction(market, 500, side)
        assert abs(a - b) <= 1e-10 * abs(b), f"{(a - b) / b:.2e}"


class TestReducedPackedPass:
    """The CDFs of a reduced price share kernel calls of bounded size."""

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_one_kernel_call_up_to_n_2000(self, market, side, kernel_calls):
        for n in [*range(2, 2000, 13), 2000]:
            kernel_calls.clear()
            price_closed_reduced(market, n, side)
            assert len(kernel_calls) == 1, f"n={n}: {kernel_calls}"

    @pytest.mark.parametrize("market,side", TABLE_SIDES)
    def test_packed_calls_within_cap(self, market, side, kernel_calls):
        for n in [5000, 10**4, 3 * 10**4, 10**5, 10**6]:
            price_closed_reduced(market, n, side)
        packed = [size for size, is_packed in kernel_calls if is_packed]
        assert packed and max(packed) <= numerics._PACK_MAX


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

    @pytest.mark.parametrize("side,extremum", [("call", 1.0), ("put", 1e4)])
    def test_far_start_level_is_banded(self, side, extremum):
        """spot/extremum = 100 at sigma = 0.01, tau = 1e-4 puts the start
        2,059,494 levels up at n = 2000.  Only the 2n + 1 levels within
        reach of the start are stepped, so the tree takes milliseconds
        (unbanded, 2e6 cells per column for 2000 steps) and matches the
        closed sum."""
        market = MarketState(spot=100.0, extremum=extremum, sigma=0.01, rate=0.05,
                             tau=1e-4)
        start = time.perf_counter()
        got = price_backward_induction(market, 2000, side)
        elapsed = time.perf_counter() - start
        want = price_closed(market, 2000, side)
        assert abs(got - want) <= 1e-12 * abs(want), f"{got} vs {want}"
        assert elapsed < 5.0, f"{elapsed:.1f} s"

    @pytest.mark.parametrize("side", ["call", "put"])
    @pytest.mark.parametrize("n,offset", [(5, 0.5), (40, 3.0), (40, 17.25), (301, 1.75)])
    def test_band_edge_near_the_start(self, side, n, offset):
        """Start levels just above n, where the band's lower edge is
        stale but still close to the start."""
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
