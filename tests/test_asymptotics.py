"""Tests for the price expansion c0 + c1/sqrt(n) + c2(n)/n: coefficient
anchors, residual scans against the lattice, kappa-affinity, the rate-zero
seam, and the emission specialization."""

from __future__ import annotations

import math
import random

import pytest

from lookback import (
    MarketState,
    expansion_coeffs,
    expansion_price,
    kappa_n,
    residual_scan,
    tree_params,
)
from lookback.errors import DomainError

from .oracles import expansion_coeffs_at_emission

T1 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
T2 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.0, tau=1.27)
T3 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.08, tau=1.27)
T4 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.0, tau=1.27)
TABLE_GRID = (1000, 5000, 10000, 50000, 100000)


class TestKappaN:
    def test_matches_tree_params(self):
        for n in (313, 1000, 4097):
            assert kappa_n(T1, n, "call") == tree_params(T1, n, "call").kappa

    def test_emission_is_zero(self):
        market = MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=0.08, tau=1.27)
        for n in (7, 100, 12345):
            assert kappa_n(market, n, "call") == 0.0

    def test_range(self):
        for n in range(50, 80):
            assert 0.0 <= kappa_n(T1, n, "call") <= 0.25


class TestExpansionCoeffs:
    @pytest.mark.parametrize(
        "market,side,want_c1",
        [
            (T1, "call", -0.7071),
            (T2, "call", -1.4095),
            (T3, "put", -5.1466),
            (T4, "put", -3.6413),
        ],
    )
    def test_c1_anchors(self, market, side, want_c1):
        coeffs = expansion_coeffs(market, side)
        assert abs(coeffs.c1 - want_c1) <= 5e-5

    @pytest.mark.parametrize(
        "n,printed",
        [
            # The ids keep the published values; see the erratum below.
            pytest.param(1000, 0.6724, id="1000-0.664"),
            pytest.param(5000, 0.6045, id="5000-0.5961"),
        ],
    )
    def test_c2_printed_rate_positive_call(self, n, printed):
        """Corrected second-coefficient values on the rate-0.08 call market.

        Erratum: the published C2 row reads 0.6640 and 0.5961 here, 0.0084
        below c2_at(n) at every n; it fails the residual-row bound of
        test_scaled2_tracks_c2 (see the erratum in test_acceptance.py)."""
        coeffs = expansion_coeffs(T1, "call")
        assert abs(coeffs.c2_at(n) - printed) <= 5e-5

    def test_c2_printed_rate_positive_put(self):
        """Corrected second coefficient on the rate-0.08 put market at
        n = 1000.

        Erratum: the published P2 row reads 3.0671 here, 0.0344 above
        c2_at(n) at every n; it fails the residual-row bound of
        test_scaled2_tracks_c2 (see the erratum in test_acceptance.py)."""
        coeffs = expansion_coeffs(T3, "put")
        assert abs(coeffs.c2_at(1000) - 3.0327) <= 5e-5

    @pytest.mark.parametrize(
        "market,side,printed_row",
        [
            (T2, "call", (1.1144, 1.0069, 1.1136, 1.1410, 1.1209)),
            (T4, "put", (3.0623, 1.9703, 1.9577, 3.1807, 2.3166)),
        ],
    )
    def test_c2_printed_rate_zero_rows(self, market, side, printed_row):
        coeffs = expansion_coeffs(market, side)
        for n, printed in zip(TABLE_GRID, printed_row):
            assert abs(coeffs.c2_at(n) - printed) <= 5e-5, f"n={n}"

    def test_branch_tags(self):
        assert expansion_coeffs(T1, "call").rate_branch == "positive"
        assert expansion_coeffs(T2, "call").rate_branch == "zero"
        assert expansion_coeffs(T3, "put").side == "put"

    def test_finite_where_b4_power_overflows(self):
        """(S/M)^{(1 - 2r/sigma^2)/2} alone overflows on this low-volatility
        put; its product with e^{-(d1^2 + d4^2)/4} does not."""
        market = MarketState(spot=1.48, extremum=2.52, sigma=0.0022, rate=0.21, tau=0.0011)
        coeffs = expansion_coeffs(market, "put")
        assert all(math.isfinite(c) for c in (coeffs.c0, coeffs.c1, coeffs.c2_at(100)))

    def test_c0_is_continuous_price(self):
        from lookback import bs_price

        assert expansion_coeffs(T1, "call").c0 == bs_price(T1, "call")

    @pytest.mark.parametrize("market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")])
    def test_kappa_affinity(self, market, side):
        """c2_at(n) depends on n only through kappa_n, affinely: the line
        through two observations with distinct kappa reproduces every
        other n within 1e-12."""
        coeffs = expansion_coeffs(market, side)
        probes = [(n, kappa_n(market, n, side)) for n in range(500, 560)]
        (na, ka), (nb, kb) = sorted(probes, key=lambda t: t[1])[0], sorted(
            probes, key=lambda t: t[1]
        )[-1]
        assert abs(ka - kb) >= 0.05, "need well-separated kappas for the fit"
        ca, cb = coeffs.c2_at(na), coeffs.c2_at(nb)
        slope = (cb - ca) / (kb - ka)
        intercept = ca - slope * ka
        for n in (313, 1000, 4096, 50000):
            want = intercept + slope * kappa_n(market, n, side)
            got = coeffs.c2_at(n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(got)), f"n={n}"

    @pytest.mark.parametrize(
        "market,side",
        [(T2, "call"), (T4, "put")],
    )
    def test_rate_zero_branch_is_continuous(self, market, side):
        """Coefficients at r = 1e-7 stay within 1e-4 of the r = 0 branch."""
        nearby = MarketState(
            spot=market.spot,
            extremum=market.extremum,
            sigma=market.sigma,
            rate=1e-7,
            tau=market.tau,
        )
        a = expansion_coeffs(nearby, side)
        b = expansion_coeffs(market, side)
        assert a.rate_branch == "positive" and b.rate_branch == "zero"
        assert abs(a.c1 - b.c1) <= 1e-4
        for n in (1000, 10000):
            assert abs(a.c2_at(n) - b.c2_at(n)) <= 1e-4, f"n={n}"


class TestExpansionPrice:
    def test_large_n_table_price_call(self):
        coeffs = expansion_coeffs(T1, "call")
        assert abs(expansion_price(coeffs, 100000) - 26.3842) <= 2e-4

    def test_large_n_table_price_put(self):
        coeffs = expansion_coeffs(T4, "put")
        assert abs(expansion_price(coeffs, 100000) - 23.5806) <= 2e-4

    def test_limit_is_c0(self):
        coeffs = expansion_coeffs(T1, "call")
        assert abs(expansion_price(coeffs, 10**12) - coeffs.c0) <= 1e-5

    def test_n_zero_rejected(self):
        coeffs = expansion_coeffs(T1, "call")
        with pytest.raises(DomainError):
            expansion_price(coeffs, 0)


class TestResidualScan:
    def test_table_one_row(self):
        rows = residual_scan(T1, "call", [1000], expansion_coeffs(T1, "call"))
        (n, price_n, c0, scaled1, scaled2) = rows[0]
        assert n == 1000
        assert abs(scaled1 - (-0.6866)) <= 5e-4
        assert abs(scaled2 - 0.6491) <= 5e-4

    def test_table_two_scaled1(self):
        rows = residual_scan(T2, "call", [50000], expansion_coeffs(T2, "call"))
        assert abs(rows[0][3] - (-1.4044)) <= 5e-4

    def test_table_three_scaled2(self):
        rows = residual_scan(T3, "put", [10000], expansion_coeffs(T3, "put"))
        assert abs(rows[0][4] - 1.9153) <= 5e-4

    def test_row_structure(self):
        rows = residual_scan(T1, "call", [500, 1000], expansion_coeffs(T1, "call"))
        assert [r[0] for r in rows] == [500, 1000]
        for (n, price_n, c0, scaled1, scaled2) in rows:
            assert abs(scaled1 - (price_n - c0) * math.sqrt(n)) <= 1e-12 * max(
                1.0, abs(scaled1)
            )

    @pytest.mark.parametrize(
        "market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")]
    )
    def test_scaled1_converges_to_c1(self, market, side):
        """|scaled1(n) - c1| <= K/sqrt(n) with a stable K: the fitted
        K_n = |scaled1 - c1| sqrt(n) varies by less than 2x across the
        Table n-grid (it converges to |c2| up to the kappa oscillation)."""
        coeffs = expansion_coeffs(market, side)
        rows = residual_scan(market, side, list(TABLE_GRID), coeffs)
        fitted = [abs(r[3] - coeffs.c1) * math.sqrt(r[0]) for r in rows]
        assert max(fitted) <= 2.0 * min(fitted), f"K_n = {fitted}"

    @pytest.mark.parametrize(
        "market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")]
    )
    def test_scaled2_tracks_c2(self, market, side):
        """scaled2(n) = c2_at(n) + O(n^-1/2): |scaled2 - c2_at(n)| sqrt(n)
        stays below 5 at large n (observed at most 3.46, on T3 at 1e6).
        A c2 off by a constant in n fails this: the published positive-rate
        C2 rows give 7.7 on T1 and -37.8 on T3 at n = 1e6.  This is the gap
        of test_convergence_order, taken where an offset of 0.0084 is no
        longer hidden under that test's bound of 10."""
        coeffs = expansion_coeffs(market, side)
        rows = residual_scan(market, side, [10**5, 3 * 10**5, 10**6], coeffs)
        for (n, _, _, _, scaled2) in rows:
            gap = (scaled2 - coeffs.c2_at(n)) * math.sqrt(n)
            assert abs(gap) <= 5.0, f"n={n}: {gap}"

    @pytest.mark.parametrize(
        "market,side", [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")]
    )
    def test_convergence_order(self, market, side):
        """|price_n - expansion(n)| n^{3/2} stays bounded (by 10, with
        observed maxima well under 4)."""
        coeffs = expansion_coeffs(market, side)
        for n in (500, 2000, 8000):
            from lookback import price_closed_reduced

            gap = price_closed_reduced(market, n, side) - expansion_price(coeffs, n)
            assert abs(gap) * n**1.5 <= 10.0, f"n={n}: scaled gap {gap * n**1.5}"


class TestEmissionSpecialization:
    @pytest.mark.parametrize("rate", [0.08, 0.0])
    @pytest.mark.parametrize("side", ["call", "put"])
    def test_general_collapses_at_emission(self, rate, side):
        market = MarketState(spot=80.0, extremum=80.0, sigma=0.2, rate=rate, tau=1.27)
        general = expansion_coeffs(market, side)
        special = expansion_coeffs_at_emission(80.0, 0.2, rate, 1.27, side)
        assert abs(general.c0 - special.c0) <= 1e-12 * max(1.0, abs(special.c0))
        assert abs(general.c1 - special.c1) <= 1e-12 * max(1.0, abs(special.c1))
        for n in (100, 1000, 99999):
            delta = abs(general.c2_at(n) - special.c2_at(n))
            assert delta <= 1e-12 * max(1.0, abs(special.c2_at(n))), f"n={n}"

    def test_specialized_c2_is_constant(self):
        special = expansion_coeffs_at_emission(80.0, 0.2, 0.08, 1.27, "call")
        values = {special.c2_at(n) for n in (2, 313, 1000, 77777)}
        assert len(values) == 1

    def test_random_markets_collapse(self):
        """20 random (sigma, rate, tau, spot) emission markets: general and
        specialized coefficients agree to 1e-12 on both sides."""
        rng = random.Random(3)
        for _ in range(20):
            spot = rng.uniform(20.0, 150.0)
            sigma = rng.uniform(0.08, 0.5)
            rate = rng.choice([0.0, rng.uniform(0.005, 0.12)])
            tau = rng.uniform(0.1, 2.5)
            market = MarketState(
                spot=spot, extremum=spot, sigma=sigma, rate=rate, tau=tau
            )
            for side in ("call", "put"):
                general = expansion_coeffs(market, side)
                special = expansion_coeffs_at_emission(spot, sigma, rate, tau, side)
                for n in (500, 4001):
                    delta = abs(general.c2_at(n) - special.c2_at(n))
                    assert delta <= 1e-12 * max(1.0, abs(special.c2_at(n)))
