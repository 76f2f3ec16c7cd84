"""Acceptance gate: one test per release criterion, one printed PASS/FAIL
line per criterion.

Run `pytest -s tests/test_acceptance.py` to see every line; under plain
`pytest -v` the per-test PASSED/FAILED verdicts carry the same
information and failing criteria still show their printed line in the
captured-output section.

The C2 (`coeff2`) rows of the positive-rate tables T1 and T3 are the
corrected ones, not the published ones; the erratum next to
PRINTED_TABLES gives the published values and the reason.

Criterion 5 alone is known-red, and stays so untuned.  Its assertions
ask for more than the CDF expansion promises: the max/min ratio of the
n^(5/2)-scaled error is a lower bound on the error as well as an upper
one, while j = 0.55 n puts y at 1.5 to 8 standard deviations and the
scaled error falls far faster than n^(-5/2) (ratio 430 and 249 over
n <= 3200 already); and at n = 6400 both err2 and err4 lie below the
binary64 resolution of a CDF this close to 1, so their ratio cannot be
measured.  The O(n^(-5/2)) order and the gain from P3/P4 are checked in
test_binom_expansion.py.  The README's test suite status section
carries the analysis.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from lookback import (
    MarketState,
    binom_cdf_exact,
    bs_price,
    cdf_expansion,
    expansion_coeffs,
    iter_path_counts,
    kappa_n,
    path_count,
    price_backward_induction,
    price_closed,
    price_closed_reduced,
)
from lookback.cli import TABLE_MARKETS, TABLE_N_VALUES, cmd_cdf_bench, cmd_table

from .markets import J0_GRID
from .oracles import expansion_coeffs_at_emission, walk_level_paths
from .quadrature import QuadratureSpec, appendix_identity_check, uspensky_cdf

# Printed convergence tables: per table, the five-column rows (price,
# scaled residual 1, scaled residual 2, second coefficient at n) plus the
# two n-independent rows (continuous price, first coefficient).
#
# Erratum: the coeff2 rows of T1 and T3 are corrected.  The published rows
# are T1 (0.6640, 0.5961, 0.6635, 0.6808, 0.6681) and T3 (3.0671, 1.9652,
# 1.9524, 3.1866, 2.3146), off from c2_at(n) by a constant in n (+0.0084
# and -0.0344).  They contradict the published scaled2 rows: since
# scaled2(n) = c2(n) + O(n^-1/2), (scaled2 - coeff2) sqrt(n) must stay
# bounded, but with the published T3 row it reads -2.71, -5.93, -3.71,
# -9.55, -11.54 across the five columns, while T2 and T4 stay within
# [-2.64, -0.23].  Against lattice prices up to n = 3e6 the same quantity
# stays within [-3.5, 0.8] with c2_at(n) on all four markets, and grows
# like the offset times sqrt(n) with the published T1/T3 rows (7.7 and
# -37.8 at n = 1e6).  test_asymptotics.py checks this bound.
PRINTED_TABLES = {
    "T1": {
        "price": (26.3647, 26.3765, 26.3794, 26.3832, 26.3842),
        "scaled1": (-0.6866, -0.6987, -0.7004, -0.7040, -0.7050),
        "scaled2": (0.6491, 0.5931, 0.6658, 0.6868, 0.6746),
        "coeff2": (0.6724, 0.6045, 0.6719, 0.6892, 0.6765),  # erratum, see above
        "price_bs": 26.3864,
        "coeff1": -0.7071,
    },
    "T2": {
        "price": (21.3779, 21.4016, 21.4074, 21.4151, 21.4169),
        "scaled1": (-1.3755, -1.3956, -1.3985, -1.4044, -1.4060),
        "scaled2": (1.0746, 0.9868, 1.1024, 1.1371, 1.1173),
        "coeff2": (1.1144, 1.0069, 1.1136, 1.1410, 1.1209),
        "price_bs": 21.4214,
        "coeff1": -1.4095,
    },
    "T3": {
        "price": (16.3662, 16.4536, 16.4747, 16.5031, 16.5098),
        "scaled1": (-5.0523, -5.1200, -5.1274, -5.1325, -5.1394),
        "scaled2": (2.9814, 1.8813, 1.9153, 3.1439, 2.2781),
        "coeff2": (3.0327, 1.9308, 1.9180, 3.1523, 2.2802),  # erratum, see above
        "price_bs": 16.5260,
        "coeff1": -5.1466,
    },
    "T4": {
        "price": (23.4800, 23.5410, 23.5559, 23.5759, 23.5806),
        "scaled1": (-3.5462, -3.6140, -3.6217, -3.6271, -3.6340),
        "scaled2": (3.0079, 1.9330, 1.9554, 3.1721, 2.3143),
        "coeff2": (3.0623, 1.9703, 1.9577, 3.1807, 2.3166),
        "price_bs": 23.5921,
        "coeff1": -3.6413,
    },
}

FIGURE5_ANCHORS = {
    2: 26.03214307,
    50: 26.29339471,
    100: 26.32139249,
    400: 26.35271248,
}


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_table_reproduction(self):
        start = time.perf_counter()
        n_dep_tol, n_indep_tol = 5e-4, 5e-5
        failures: list[str] = []
        worst = (0.0, "")
        cells = 0
        for table_id, printed in PRINTED_TABLES.items():
            rows = cmd_table(table_id)
            assert tuple(r.n for r in rows) == TABLE_N_VALUES
            for field in ("price_bs", "coeff1"):
                got = getattr(rows[0], "price_bs" if field == "price_bs" else "coeff1")
                delta = abs(got - printed[field])
                cells += 1
                if delta > worst[0]:
                    worst = (delta, f"{table_id} {field}")
                if delta > n_indep_tol:
                    failures.append(f"{table_id} {field}: |{got:.5f} - {printed[field]}| = {delta:.2e}")
            for field, attr in (("price", "price_n"), ("scaled1", "scaled1"),
                                ("scaled2", "scaled2"), ("coeff2", "coeff2")):
                for row, want in zip(rows, printed[field]):
                    got = getattr(row, attr)
                    delta = abs(got - want)
                    cells += 1
                    if delta > worst[0]:
                        worst = (delta, f"{table_id} {field} n={row.n}")
                    if delta > n_dep_tol:
                        failures.append(
                            f"{table_id} {field} n={row.n}: |{got:.4f} - {want}| = {delta:.2e}"
                        )
        elapsed = time.perf_counter() - start
        detail = (
            f"{cells} cells, {len(failures)} outside tolerance, "
            f"worst |delta| = {worst[0]:.2e} at {worst[1]}, {elapsed:.1f} s"
        )
        if failures:
            detail += "; " + "; ".join(failures)
        _verdict(1, "table-reproduction", not failures and elapsed < 60.0, detail)

    def test_criterion_02_figure5_anchors(self):
        market, side = TABLE_MARKETS["T1"]
        worst = max(
            abs(price_closed_reduced(market, n, side) - want)
            for n, want in FIGURE5_ANCHORS.items()
        )
        _verdict(2, "figure5-anchors", worst <= 5e-8, f"worst |delta| = {worst:.2e}")

    def test_criterion_03_path_count_oracle(self):
        start = time.perf_counter()
        checked = 0
        ok = True
        for j0 in J0_GRID:
            for n in range(1, 15):
                brute = {(float(level), k): c
                         for (level, k), c in walk_level_paths(Fraction(j0), n).items()}
                fast = {(pc.j, pc.k): pc.count for pc in iter_path_counts(j0, n)}
                ok = ok and fast == brute
                for (j, k), count in brute.items():
                    ok = ok and path_count(j0, j, k, n) == count
                    checked += 1
                ok = ok and sum(brute.values()) == 2**n
        elapsed = time.perf_counter() - start
        _verdict(
            3,
            "path-count-oracle",
            ok and elapsed < 30.0,
            f"{checked} pointwise counts over {len(J0_GRID)} starts, n <= 14, {elapsed:.1f} s",
        )

    def test_criterion_04_three_way_equivalence(self):
        start = time.perf_counter()
        worst = 0.0
        for table_id in ("T1", "T2", "T3", "T4"):
            market, side = TABLE_MARKETS[table_id]
            for n in range(1, 501):
                reduced = price_closed_reduced(market, n, side)
                direct = price_closed(market, n, side)
                tree = price_backward_induction(market, n, side)
                scale = abs(reduced)
                worst = max(
                    worst, abs(direct - reduced) / scale, abs(tree - reduced) / scale
                )
        elapsed = time.perf_counter() - start
        _verdict(
            4,
            "three-way-equivalence",
            worst <= 1e-10,
            f"worst relative spread = {worst:.2e} over 4 markets x n <= 500, {elapsed:.1f} s",
        )

    def test_criterion_05_cdf_expansion_order(self):
        grid = (200, 400, 800, 1600, 3200, 6400)
        families = {"constant-half": (0.5, 0.0), "drifting": (0.5, 0.1)}
        details: list[str] = []
        ok = True
        for label, p_spec in families.items():
            scaled = [row[4] for row in cmd_cdf_bench(grid, p_spec, 0.55)]
            low, high = min(scaled), max(scaled)
            ratio = math.inf if low == 0.0 else high / low
            ok = ok and ratio <= 10.0
            details.append(f"{label} max/min = {ratio:.3g} (scaled errors {scaled})")
        for label, (base, drift) in families.items():
            n = grid[-1]
            p = base + drift / math.sqrt(n)
            j = int(0.55 * n)
            exact = binom_cdf_exact(n, p, j)
            r = cdf_expansion(n, p, j)
            err4 = abs(exact - r.value)
            err2 = abs(exact - r.truncated(2))
            degradation = math.nan if err4 == 0.0 else err2 / err4
            ok = ok and degradation >= 5.0
            details.append(
                f"{label} drop-P3P4 at n=6400: err2={err2:.3g}, err4={err4:.3g}, "
                f"ratio={degradation}"
            )
        _verdict(5, "cdf-expansion-order", ok, "; ".join(details))

    def test_criterion_06_uspensky_oracle(self):
        rng = random.Random(7)
        spec = QuadratureSpec(max_subdivisions=400)
        worst = 0.0
        for _ in range(30):
            n = rng.randint(2, 200)
            p = rng.uniform(0.2, 0.8)
            j = rng.randint(0, n)
            worst = max(worst, abs(uspensky_cdf(n, p, j, spec) - binom_cdf_exact(n, p, j)))
        _verdict(6, "uspensky-oracle", worst <= 1e-9, f"worst |delta| = {worst:.2e}")

    def test_criterion_07_appendix_identities(self):
        spec = QuadratureSpec()
        worst = 0.0
        for m in list(range(10)) + [11]:
            for y in (0.0, 0.7, 1.84, 3.1):
                lhs, rhs = appendix_identity_check(m, y, spec)
                worst = max(worst, abs(lhs - rhs))
        _verdict(7, "appendix-identities", worst <= 1e-8, f"worst |delta| = {worst:.2e}")

    def test_criterion_08_price_expansion_order(self):
        worst = 0.0
        for table_id in ("T1", "T2", "T3", "T4"):
            market, side = TABLE_MARKETS[table_id]
            exp = expansion_coeffs(market, side)
            for n in (500, 1000, 2000, 4000, 8000, 16000):
                model = exp.c0 + exp.c1 / math.sqrt(n) + exp.c2_at(n) / n
                gap = abs(price_closed_reduced(market, n, side) - model) * n**1.5
                worst = max(worst, gap)
        _verdict(
            8,
            "price-expansion-order",
            worst <= 10.0,
            f"max scaled gap = {worst:.3f} over 4 markets x n in [500, 16000]",
        )

    def test_criterion_09_rate_continuity(self):
        worst = 0.0
        for table_id in ("T2", "T4"):
            market, side = TABLE_MARKETS[table_id]
            tiny = MarketState(
                spot=market.spot, extremum=market.extremum, sigma=market.sigma,
                rate=1e-7, tau=market.tau,
            )
            zero_exp = expansion_coeffs(market, side)
            tiny_exp = expansion_coeffs(tiny, side)
            worst = max(worst, abs(bs_price(tiny, side) - bs_price(market, side)))
            worst = max(worst, abs(tiny_exp.c0 - zero_exp.c0))
            worst = max(worst, abs(tiny_exp.c1 - zero_exp.c1))
            for n in (1000, 10000):
                worst = max(worst, abs(tiny_exp.c2_at(n) - zero_exp.c2_at(n)))
        _verdict(9, "rate-continuity", worst <= 1e-4, f"worst |delta| = {worst:.2e}")

    def test_criterion_10_emission_reduction(self):
        rng = random.Random(3)
        worst = 0.0
        for index in range(20):
            spot = rng.uniform(20.0, 150.0)
            sigma = rng.uniform(0.1, 0.5)
            rate = 0.0 if index % 3 == 0 else rng.uniform(0.005, 0.12)
            tau = rng.uniform(0.1, 3.0)
            side = "call" if index % 2 == 0 else "put"
            market = MarketState(spot=spot, extremum=spot, sigma=sigma, rate=rate, tau=tau)
            assert kappa_n(market, 1000, side) == 0.0
            general = expansion_coeffs(market, side)
            emission = expansion_coeffs_at_emission(spot, sigma, rate, tau, side)
            worst = max(worst, abs(general.c0 - emission.c0))
            worst = max(worst, abs(general.c1 - emission.c1))
            for n in (100, 1000, 99999):
                worst = max(worst, abs(general.c2_at(n) - emission.c2_at(n)))
        _verdict(10, "emission-reduction", worst < 1e-12, f"worst |delta| = {worst:.2e}")
