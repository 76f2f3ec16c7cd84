"""Correctness checks on the CLI's output, run after timing.

Each check takes the round's requests and the CSV text each one wrote and
returns, per request, None or the reason it failed.  The CLI prints 10
significant digits, so every comparison allows half a unit in the 10th
digit of each printed number on top of its stated tolerance.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

from gen import Request

SCHEMAS = {
    "price": ("lookback.price.v1", ("n", "price")),
    "table": ("lookback.table.v1",
              ("n", "price_n", "price_bs", "scaled1", "coeff1", "scaled2", "coeff2")),
    "figure5": ("lookback.figure5.v1", ("n", "price_n", "price_bs")),
    "cdf-bench": ("lookback.cdf_bench.v1", ("n", "exact", "expansion", "err", "err_scaled")),
}

AGREE_REL = 1e-10      # crosscheck, and scan's sample against backward induction
ANCHOR_ABS = 5e-8      # figure-5 anchors
TABLE_ABS = 5e-4       # printed table price and scaled1 cells
CDF_REL = 1e-12        # cdf-bench exact column against mpmath
SAMPLE_ROWS = 12       # rows per run given an independent reference

FIGURE5_ANCHORS = {2: 26.03214307, 50: 26.29339471, 100: 26.32139249, 400: 26.35271248}
TABLE_N_VALUES = (1000, 5000, 10000, 50000, 100000)
# The paper's printed price and scaled1 rows.  The coeff2/scaled2 rows of
# T1 and T3 are known-red and deliberately not checked here.
PRINTED = {
    "T1": ((26.3647, 26.3765, 26.3794, 26.3832, 26.3842),
           (-0.6866, -0.6987, -0.7004, -0.7040, -0.7050)),
    "T2": ((21.3779, 21.4016, 21.4074, 21.4151, 21.4169),
           (-1.3755, -1.3956, -1.3985, -1.4044, -1.4060)),
    "T3": ((16.3662, 16.4536, 16.4747, 16.5031, 16.5098),
           (-5.0523, -5.1200, -5.1274, -5.1325, -5.1394)),
    "T4": ((23.4800, 23.5410, 23.5559, 23.5759, 23.5806),
           (-3.5462, -3.6140, -3.6217, -3.6271, -3.6340)),
}


class CheckFailure(Exception):
    pass


def half_unit(text: str) -> float:
    """Half a unit in the last of the 10 printed significant digits."""
    d = Decimal(text)
    return 0.0 if d == 0 else 0.5 * 10.0 ** (d.adjusted() - 9)


def _close(text: str, ref: float, rel: float) -> bool:
    return abs(float(text) - ref) <= rel * abs(ref) + half_unit(text)


def parse(request: Request, text: str) -> list[list[str]]:
    """Rows of a CSV output after checking its schema line, header and finiteness."""
    schema, header = SCHEMAS[request.argv[0]]
    lines = text.split("\n")
    if lines[0] != f"# schema: {schema}" or lines[1] != ",".join(header) or lines[-1]:
        raise CheckFailure("bad schema line, header or line ending")
    rows = [line.split(",") for line in lines[2:-1]]
    for row in rows:
        if len(row) != len(header) or not all(math.isfinite(float(v)) for v in row):
            raise CheckFailure(f"malformed or non-finite row {row}")
    return rows


def requested_ns(request: Request) -> list[int]:
    arg = request.argv[request.argv.index("--n") + 1]
    if ".." in arg:
        lo, hi = arg.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in arg.split(",")]


def _check_bounds(request: Request, rows: list[list[str]]) -> None:
    """0 <= call <= spot and call >= spot - M e^{-r tau}; put >= max(0, M e^{-r tau} - spot)."""
    m = request.market
    forward_m = m.extremum * math.exp(-m.rate * m.tau)
    lo, hi = ((max(0.0, m.spot - forward_m), m.spot) if m.side == "call"
              else (max(0.0, forward_m - m.spot), math.inf))
    for n, price in rows:
        slack = half_unit(price)
        if not lo - slack <= float(price) <= hi + slack:
            raise CheckFailure(f"n={n}: price {price} outside [{lo}, {hi}]")


def _check_price_rows(request: Request, rows: list[list[str]]) -> None:
    if [int(r[0]) for r in rows] != requested_ns(request):
        raise CheckFailure("rows do not match the requested n")
    _check_bounds(request, rows)


def _lookback():
    from lookback import asymptotics, lattice
    return lattice, asymptotics


def _market_state(market):
    lattice, _ = _lookback()
    return lattice.MarketState(spot=market.spot, extremum=market.extremum,
                               sigma=market.sigma, rate=market.rate, tau=market.tau)


def _run_each(requests, texts, check) -> list[str | None]:
    out = []
    for request, text in zip(requests, texts):
        if text is None:
            out.append("no output")
            continue
        try:
            check(request, parse(request, text))
            out.append(None)
        except CheckFailure as exc:
            out.append(str(exc))
    return out


def check_scan(requests, texts, seed) -> list[str | None]:
    def check(request, rows):
        if request.kind == "figure5":
            n_max = request.meta["n_max"]
            if [int(r[0]) for r in rows] != list(range(2, n_max + 1)):
                raise CheckFailure("figure5 rows do not cover 2..n_max")
            for n, price, _ in rows:
                want = FIGURE5_ANCHORS.get(int(n))
                if want is not None and abs(float(price) - want) > ANCHOR_ABS:
                    raise CheckFailure(f"figure5 anchor n={n}: {price} vs {want}")
            if len({r[2] for r in rows}) != 1:
                raise CheckFailure("figure5 price_bs column is not constant")
            return
        _check_price_rows(request, rows)

    failures = _run_each(requests, texts, check)
    lattice, _ = _lookback()
    rng = random.Random(f"scan-check:{seed}")
    reduced = [(i, row) for i, r in enumerate(requests) if r.kind == "reduced"
               and failures[i] is None for row in parse(r, texts[i])]
    for i, (n, price) in rng.sample(reduced, min(SAMPLE_ROWS, len(reduced))):
        req = requests[i]
        ref = lattice.price_backward_induction(_market_state(req.market), int(n),
                                               req.market.side)
        if not _close(price, ref, AGREE_REL):
            failures[i] = f"n={n}: reduced {price} vs backward induction {ref!r}"
    return failures


def check_deep(requests, texts, seed) -> list[str | None]:
    _, asymptotics = _lookback()

    def check(request, rows):
        if request.kind == "table":
            table = request.meta["table"]
            prices, scaled1 = PRINTED[table]
            if tuple(int(r[0]) for r in rows) != TABLE_N_VALUES:
                raise CheckFailure("table rows do not match the table's n values")
            for row, want_p, want_s in zip(rows, prices, scaled1):
                if (abs(float(row[1]) - want_p) > TABLE_ABS
                        or abs(float(row[3]) - want_s) > TABLE_ABS):
                    raise CheckFailure(f"{table} n={row[0]}: {row[1]}, {row[3]} "
                                       f"vs printed {want_p}, {want_s}")
            return
        _check_price_rows(request, rows)
        m = request.market
        exp = asymptotics.expansion_coeffs(_market_state(m), m.side)
        for n, price in rows:
            gap = abs(float(price) - asymptotics.expansion_price(exp, int(n)))
            if gap > m.spot / int(n):
                raise CheckFailure(f"n={n}: |price - expansion| = {gap} > spot/n")

    return _run_each(requests, texts, check)


def check_crosscheck(requests, texts, seed) -> list[str | None]:
    """closed and reduced must agree with backward induction (the tree)."""
    failures = _run_each(requests, texts, _check_price_rows)
    trees = {r.group: i for i, r in enumerate(requests) if r.kind == "tree"}
    for i, request in enumerate(requests):
        t = trees[request.group]
        if request.kind == "tree" or failures[i] or failures[t]:
            continue
        (_, got), = parse(request, texts[i])
        (_, ref), = parse(requests[t], texts[t])
        tol = AGREE_REL * abs(float(ref)) + half_unit(got) + half_unit(ref)
        if abs(float(got) - float(ref)) > tol:
            failures[i] = f"{request.kind} {got} vs tree {ref} (rate {request.market.rate!r})"
    return failures


def mp_binom_cdf(n: int, p: float, j: int):
    """P(Bin(n, p) <= j) in 40-digit arithmetic, summed outward from j.

    Terms fall monotonically away from the mode, so once the next ratio r
    satisfies t r / (1 - r) < 1e-30 * total the rest of the geometric tail
    cannot matter.  Above the mode the upper tail is summed and
    subtracted from 1.
    """
    import mpmath as mp

    if j < 0:
        return mp.mpf(0)
    if j >= n:
        return mp.mpf(1)
    with mp.workdps(40):
        p = mp.mpf(p)
        q = 1 - p
        lower = j <= (n + 1) * p
        k = j if lower else j + 1
        t = mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                   + k * mp.log(p) + (n - k) * mp.log(q))
        total = t
        while 0 < k < n:
            r = k * q / ((n - k + 1) * p) if lower else (n - k) * p / ((k + 1) * q)
            t *= r
            total += t
            k += -1 if lower else 1
            if r < 1 and t * r / (1 - r) < total * mp.mpf(10) ** -30:
                break
        return +total if lower else 1 - total


def check_cdf(requests, texts, seed) -> list[str | None]:
    def check(request, rows):
        ns = requested_ns(request)
        if [int(r[0]) for r in rows] != ns:
            raise CheckFailure("rows do not match the requested n")
        for row in rows:
            if not 0.0 <= float(row[1]) <= 1.0:
                raise CheckFailure(f"n={row[0]}: exact {row[1]} outside [0, 1]")

    failures = _run_each(requests, texts, check)
    rng = random.Random(f"cdf-check:{seed}")
    rows = [(i, row) for i, r in enumerate(requests) if failures[i] is None
            for row in parse(r, texts[i])]
    for i, (n_text, exact, *_) in rng.sample(rows, min(SAMPLE_ROWS, len(rows))):
        argv = requests[i].argv
        n = int(n_text)
        p = float(argv[argv.index("--p-base") + 1]) + float(
            argv[argv.index("--p-drift") + 1]) / math.sqrt(n)
        rule = argv[argv.index("--j-rule") + 1]
        j = (n - 1) // 2 if rule == "median" else int(float(rule) * n)
        ref = float(mp_binom_cdf(n, p, j))
        if not _close(exact, ref, CDF_REL):
            failures[i] = f"n={n} p={p!r} j={j}: exact {exact} vs mpmath {ref!r}"
    return failures


CHECKS = {"scan": check_scan, "deep": check_deep, "crosscheck": check_crosscheck,
          "cdf": check_cdf}
