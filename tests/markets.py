"""Study markets and grids that several test modules share.

T1..T4 are the markets of the paper's four convergence tables: spot 80,
sigma 0.2, tau 1.27, a call on a running minimum of 60 (T1, T2) or a put
on a running maximum of 100 (T3, T4), at r = 0.08 (T1, T3) or 0 (T2,
T4).  ``TABLE_SIDES`` pairs each with the side its table prices."""

from __future__ import annotations

from lookback import MarketState

T1 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
T2 = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.0, tau=1.27)
T3 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.08, tau=1.27)
T4 = MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.0, tau=1.27)

TABLE_SIDES = [(T1, "call"), (T2, "call"), (T3, "put"), (T4, "put")]

# r = 0, every power of ten from 1e-14 to 1e-1, and 0.3
SMALL_RATES = [0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-09, 1e-08, 1e-07, 1e-06,
               1e-05, 0.0001, 0.001, 0.01, 0.1, 0.3]

# start levels j0 of the path-count checks: integer and fractional
J0_GRID = (0.0, 0.3, 1.0, 1.6, 2.0, 3.7)
