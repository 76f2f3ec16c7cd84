"""Seeded request generator for the four benchmark workloads.

A workload's round is a list of ``Request``s: the argv handed to
``lookback.cli.main`` plus the facts the checks need (market, side,
method).  The same (workload, seed) gives the same round, byte for byte.

Sizes that set a request's cost (window start, n, n_max) are drawn by
narrow stratified sampling: stratum i of k draws from the middle fifth
of [i/k, (i+1)/k] of the range, so every seed covers the range the same
way and the latency quantiles do not depend on which seed is run.  The
market classes (side, rate branch, extremum at emission or mid-life) and
the CDF regimes are dealt to the strata in a fixed turn, so each class
meets small and large sizes alike and a stratum's cost does not depend on
the seed.  The market parameters within a class and
the order of the requests vary freely.

Every round holds a number of requests that is 5 mod 10.  The round is
replayed whole, so each request's latencies form a cluster; with such a
count the median and the 90th percentile of the pooled latencies fall
inside a cluster rather than on the edge between two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "deep", "crosscheck", "cdf")

# Printed table markets (the CLI's T1..T4): (spot, extremum, sigma, rate, tau, side).
TABLE_MARKETS = {
    "T1": (80.0, 60.0, 0.2, 0.08, 1.27, "call"),
    "T2": (80.0, 60.0, 0.2, 0.0, 1.27, "call"),
    "T3": (80.0, 100.0, 0.2, 0.08, 1.27, "put"),
    "T4": (80.0, 100.0, 0.2, 0.0, 1.27, "put"),
}


@dataclass(frozen=True)
class Market:
    spot: float
    extremum: float
    sigma: float
    rate: float
    tau: float
    side: str

    def argv(self) -> list[str]:
        return ["--spot", repr(self.spot), "--extremum", repr(self.extremum),
                "--sigma", repr(self.sigma), "--rate", repr(self.rate),
                "--tau", repr(self.tau), "--side", self.side]

    def min_n(self) -> float:
        """The lattice needs n > r^2 tau / sigma^2 (else ModelError)."""
        return self.rate**2 * self.tau / self.sigma**2


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``kind`` names the subcommand or price method."""

    argv: tuple[str, ...]
    kind: str
    market: Market | None = None
    group: int = -1  # crosscheck: the three methods of one market share a group
    small_rate: bool = False
    meta: dict = field(default_factory=dict, compare=False)


def _strata(rng: random.Random, k: int, lo: float, hi: float, *, log: bool) -> list[float]:
    """k values covering [lo, hi], one from the middle fifth of each stratum."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = [a + (b - a) * (i + rng.uniform(0.4, 0.6)) / k for i in range(k)]
    return [math.exp(x) for x in out] if log else out


def draw_market(rng: random.Random, side: str, rate_kind: str, life: str) -> Market:
    """A market inside the model's domain.

    rate_kind is "zero" (r = 0 exactly), "positive" (r in [0.01, 0.1]) or
    "small" (log-uniform in [1e-12, 1e-4]); life is "emission"
    (extremum = spot) or "mid" (extremum a seeded gap away, on the side's
    side of spot).
    """
    sigma = rng.uniform(0.15, 0.4)
    tau = rng.uniform(0.25, 2.0)
    spot = rng.uniform(50.0, 150.0)
    rate = {"zero": 0.0,
            "positive": rng.uniform(0.01, 0.1),
            "small": 10.0 ** rng.uniform(-12.0, -4.0)}[rate_kind]
    if life == "emission":
        extremum = spot
    else:
        gap = rng.uniform(0.05, 0.5) * sigma * math.sqrt(tau)
        extremum = spot * math.exp(-gap if side == "call" else gap)
    return Market(spot, extremum, sigma, rate, tau, side)


def _market_cycle(rng: random.Random, count: int, rate_kinds=("zero", "positive")) -> list[Market]:
    """count markets cycling through every (side, rate branch, life) class
    in a fixed order, life alternating fastest (a mid-life market carries a
    fractional level, which doubles the tree's work)."""
    classes = [(s, r, l) for s in ("call", "put") for r in rate_kinds
               for l in ("emission", "mid")]
    return [draw_market(rng, *classes[i % len(classes)]) for i in range(count)]


def _price(market: Market, n_arg: str, method: str, **kw) -> Request:
    argv = ("price", *market.argv(), "--n", n_arg, "--method", method)
    return Request(argv=argv, kind=method, market=market, **kw)


def gen_scan(rng: random.Random) -> list[Request]:
    """Windows of 16 consecutive n in [2, 5000], mostly reduced prices."""
    reqs = []
    markets = _market_cycle(rng, 23)
    for market, start in zip(markets, _strata(rng, 18, 2, 4985, log=True)):
        lo = int(start)
        reqs.append(_price(market, f"{lo}..{lo + 15}", "reduced"))
    for market, method in zip(markets[18:], ("expansion", "expansion", "expansion",
                                             "bs", "bs")):
        lo = rng.randint(50, 4900)
        reqs.append(_price(market, f"{lo}..{lo + 15}", method))
    for n_max in _strata(rng, 2, 40, 130, log=False):
        n_max = int(n_max)
        reqs.append(Request(argv=("figure5", "--n-max", str(n_max)), kind="figure5",
                            meta={"n_max": n_max}))
    rng.shuffle(reqs)
    return reqs


def gen_deep(rng: random.Random) -> list[Request]:
    """Single reduced prices at n log-stratified over [1e4, 1e6], plus T1..T4."""
    ns = [int(n) for n in _strata(rng, 21, 1e4, 1e6, log=True)]
    reqs = [_price(m, str(n), "reduced") for m, n in zip(_market_cycle(rng, len(ns)), ns)]
    reqs += [Request(argv=("table", "--table", t), kind="table", meta={"table": t})
             for t in TABLE_MARKETS]
    rng.shuffle(reqs)
    return reqs


def gen_crosscheck(rng: random.Random) -> list[Request]:
    """closed, tree and reduced at one n <= 5000 per market.

    Every fifth market takes a small positive rate, log-uniform in
    [1e-12, 1e-4], where the reduced form is known to lose accuracy.
    """
    ns = [int(n) for n in _strata(rng, 25, 2, 5000, log=False)]
    normal = iter(_market_cycle(rng, 20))
    small = iter(_market_cycle(rng, 5, rate_kinds=("small",)))
    markets = [next(small) if i % 5 == 4 else next(normal) for i in range(25)]
    reqs = []
    for group, (market, n) in enumerate(zip(markets, ns)):
        assert n > market.min_n()
        for method in ("closed", "tree", "reduced"):
            reqs.append(_price(market, str(n), method, group=group,
                               small_rate=group % 5 == 4))
    rng.shuffle(reqs)
    return reqs


def gen_cdf(rng: random.Random) -> list[Request]:
    """One cdf-bench row per request, n log-stratified over [1e2, 1e6].

    One n per request keeps the CLI's pool out of this workload (its
    fan-out needs two items), so a request's latency is the CDF's own.
    Three regimes.  "median": p-base 0.5 and j = (n - 1)//2, so |z| <= 1.
    "lower" and "upper": a ratio putting j z standard deviations below or
    above np, with |z| up to 25 but never past 60% of the way to 0 or n.
    The CDF then stays above 1e-250, so every value is a normal double,
    and 0 <= j <= n.  A tail row sums about j+1 terms, so its cost follows
    p-base; p-base walks [0.2, 0.8] in a fixed golden-ratio pattern over
    the strata, with a seeded jitter of +-0.012.
    """
    reqs = []
    for i, n in enumerate(_strata(rng, 25, 100, 1e6, log=True)):
        regime = ("median", "lower", "upper")[i % 3]
        n = int(n)
        drift = rng.uniform(-0.5, 0.5)
        if regime == "median":
            base, j_rule = 0.5, "median"
        else:
            base = 0.2 + 0.6 * ((0.6180339887 * i + rng.uniform(-0.02, 0.02)) % 1.0)
            p0 = base + drift / math.sqrt(n)
            odds = p0 / (1.0 - p0) if regime == "lower" else (1.0 - p0) / p0
            z = min(25.0, 0.6 * math.sqrt(n * odds)) * rng.uniform(0.5, 1.0)
            z = -z if regime == "lower" else z
            j_rule = repr(p0 + z * math.sqrt(p0 * (1.0 - p0) / n))
        argv = ("cdf-bench", "--n", str(n), "--p-base", repr(base),
                "--p-drift", repr(drift), "--j-rule", j_rule)
        reqs.append(Request(argv=argv, kind=regime))
    rng.shuffle(reqs)
    return reqs


GENERATORS = {"scan": gen_scan, "deep": gen_deep, "crosscheck": gen_crosscheck,
              "cdf": gen_cdf}

# A fixed, cheap request per workload: what a fresh interpreter runs for
# setup_s, the same for every seed.
WARMUP = {
    "scan": ("price", *Market(*TABLE_MARKETS["T1"]).argv(), "--n", "2..20",
             "--method", "reduced"),
    "deep": ("price", *Market(*TABLE_MARKETS["T1"]).argv(), "--n", "10000",
             "--method", "reduced"),
    "crosscheck": ("price", *Market(*TABLE_MARKETS["T3"]).argv(), "--n", "200",
                   "--method", "tree"),
    "cdf": ("cdf-bench", "--n", "1000", "--j-rule", "median"),
}


def round_for(workload: str, seed: int) -> list[Request]:
    """The workload's request round for this seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
