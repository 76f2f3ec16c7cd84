"""Command-line surface for the lookback pricing library.

Subcommands
-----------
price     price one market over a list of periods with a chosen method
          (closed, reduced, tree, expansion, bs)
table     reproduce one of the four convergence tables (T1..T4) with
          the study market baked in: S = 80, sigma = 0.2, tau = 1.27,
          call extremum 60 / put extremum 100, r in {0.08, 0}
figure5   price_closed_reduced_grid over n = 2..n_max on the T1 market plus
          the constant continuous-model column
cdf-bench binomial-CDF expansion error scan: exact vs fourth-order
          approximation with err_scaled = err * n^{5/2}

Output schemas (versioned; the header line names the schema)
------------------------------------------------------------
lookback.price.v1      n,price
lookback.table.v1      n,price_n,price_bs,scaled1,coeff1,scaled2,coeff2
lookback.figure5.v1    n,price_n,price_bs
lookback.cdf_bench.v1  n,exact,expansion,err,err_scaled

CSV uses '.' decimal separator, ',' field separator, '\\n' line
endings, a mandatory `# schema: <id>` first line and a header row;
numbers carry 10 significant digits.  JSON output is
{"schema": <id>, "rows": [{column: value, ...}, ...]} and validates
against the shipped schemas/cli_output.schema.json.

Exit status: 0 success, 2 domain or model error (an --out path that
cannot be written included), 3 budget error.  Errors print a one-line
JSON record {"error": <class>, "message": ...} to stderr, except
argparse's own usage errors, which print its usage text and exit 2.
Rows are emitted in ascending-n order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple, get_args

from .asymptotics import expansion_coeffs, expansion_price, residual_scan
from .binom_expansion import cdf_expansion
from .continuous import bs_price
from .errors import BudgetError, DomainError, LookbackError
from .lattice import (
    TREE_MAX_N,
    MarketState,
    Side,
    price_backward_induction,
    price_closed,
    price_closed_reduced_grid,
)
from .numerics import CDF_MAX_N, as_index, binom_cdf_exact

# Unused here; perfbench/spans.py wraps this name on this module.
from .lattice import price_closed_reduced  # noqa: F401

__all__ = [
    "Method",
    "OutputFormat",
    "TableId",
    "RunConfig",
    "TableRow",
    "cmd_price",
    "cmd_table",
    "cmd_figure5",
    "cmd_cdf_bench",
    "main",
]

Method = Literal["closed", "reduced", "tree", "expansion", "bs"]
OutputFormat = Literal["csv", "json"]
TableId = Literal["T1", "T2", "T3", "T4"]

TABLE_N_VALUES = (1000, 5000, 10000, 50000, 100000)
# Largest n of each grid that has a cap, checked before anything is priced.
_GRID_CAPS = {"closed": TREE_MAX_N, "tree": TREE_MAX_N, "reduced": CDF_MAX_N,
              "cdf-bench": CDF_MAX_N}
TABLE_MARKETS: dict[str, tuple[MarketState, Side]] = {
    "T1": (MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27),
           "call"),
    "T2": (MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.0, tau=1.27),
           "call"),
    "T3": (MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.08, tau=1.27),
           "put"),
    "T4": (MarketState(spot=80.0, extremum=100.0, sigma=0.2, rate=0.0, tau=1.27),
           "put"),
}


def _check_grid(grid: Sequence[int], name: str, lowest: int, user: str) -> Sequence[int]:
    """grid as a sequence of ints: an increasing range as it is, read by
    its ends without being built, anything else as a list.  DomainError
    unless it is nonempty, integer, strictly increasing and at least
    ``lowest``; BudgetError if it runs past the cap ``_GRID_CAPS`` sets
    for ``user``, a method or subcommand."""
    if not (isinstance(grid, range) and grid.step > 0):
        grid = [as_index(n, "n") for n in grid]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError(f"{name} must be strictly increasing, got {tuple(grid)}")
    if not grid:
        raise DomainError(f"{name} must be nonempty")
    first, last = as_index(grid[0], "n"), as_index(grid[-1], "n")
    if first < lowest:
        raise DomainError(f"{name} must be >= {lowest}, got {first}")
    cap = _GRID_CAPS.get(user, math.inf)
    if last > cap:
        raise BudgetError(f"{name} for {user!r} is limited to n <= {cap}, got {last}")
    return grid


@dataclass(frozen=True)
class RunConfig:
    """One pricing run: a market, a side, a period grid, and a method."""

    market: MarketState
    side: Side
    n_values: Sequence[int]
    method: Method

    def __post_init__(self) -> None:
        if self.method not in get_args(Method):
            raise DomainError(f"method must be one of {get_args(Method)}, got {self.method!r}")
        _check_grid(self.n_values, "n_values", 1, self.method)


class TableRow(NamedTuple):
    """One convergence-table row: price, residuals, and their limits.

    scaled1 = (price_n - price_bs) sqrt(n) sits next to its limit
    coeff1; scaled2 = (price_n - price_bs - coeff1/sqrt(n)) n sits next
    to the oscillating coeff2 evaluated at the same n.
    """

    n: int
    price_n: float
    price_bs: float
    scaled1: float
    coeff1: float
    scaled2: float
    coeff2: float


def cmd_price(config: RunConfig) -> list[tuple[int, float]]:
    """One (n, price) row per entry of config.n_values."""
    market, side = config.market, config.side
    if config.method == "bs":
        constant = bs_price(market, side)
        return [(n, constant) for n in config.n_values]
    if config.method == "expansion":
        exp = expansion_coeffs(market, side)
        return [(n, expansion_price(exp, n)) for n in config.n_values]
    if config.method == "reduced":
        return list(zip(config.n_values, price_closed_reduced_grid(market, config.n_values, side)))
    pricer = {"closed": price_closed, "tree": price_backward_induction}[config.method]
    return [(n, pricer(market, n, side)) for n in config.n_values]


def cmd_table(table_id: TableId) -> list[TableRow]:
    """The six labeled rows of one convergence table at the five n values."""
    if table_id not in TABLE_MARKETS:
        raise DomainError(f"table_id must be one of T1..T4, got {table_id!r}")
    market, side = TABLE_MARKETS[table_id]
    exp = expansion_coeffs(market, side)
    return [TableRow(n, price_n, price_bs, scaled1, exp.c1, scaled2, exp.c2_at(n))
            for n, price_n, price_bs, scaled1, scaled2
            in residual_scan(market, side, TABLE_N_VALUES, exp)]


def cmd_figure5(n_max: int) -> list[tuple[int, float, float]]:
    """(n, price_n, price_bs) for n = 2..n_max on the T1 market, the
    prices from one ``price_closed_reduced_grid`` call: at n_max = 5000
    its 4,999 prices take 696 pmf kernel calls over 2,775,247 entries."""
    n_max = as_index(n_max, "n_max")
    if not 2 <= n_max <= TREE_MAX_N:
        raise DomainError(f"n_max must be in [2, {TREE_MAX_N}], got {n_max}")
    market, side = TABLE_MARKETS["T1"]
    constant = bs_price(market, side)
    n_values = range(2, n_max + 1)
    return [(n, price_n, constant)
            for n, price_n in zip(n_values, price_closed_reduced_grid(market, n_values, side))]


def cmd_cdf_bench(
    n_list: Sequence[int],
    p_spec: tuple[float, float],
    j_spec: float | Literal["median"],
) -> list[tuple[int, float, float, float, float]]:
    """(n, exact, expansion, err, err_scaled) rows for the CDF expansion.

    p_spec = (base, drift) gives p_n = base + drift/sqrt(n); j_spec is
    either a ratio (j = floor(ratio * n)) or "median" (j = (n - 1)//2).
    err_scaled = err * n^{5/2}.
    """
    n_list = _check_grid(n_list, "n_list", 2, "cdf-bench")
    if j_spec != "median" and not math.isfinite(j_spec):
        raise DomainError(f"j ratio must be finite, got {j_spec}")
    base, drift = p_spec

    def build_row(n: int) -> tuple[int, float, float, float, float]:
        p = base + drift / math.sqrt(n)
        j = (n - 1) // 2 if j_spec == "median" else int(j_spec * n)
        exact = binom_cdf_exact(n, p, j)
        approx = cdf_expansion(n, p, j).value
        err = abs(exact - approx)
        return (n, exact, approx, err, err * n**2.5)

    return [build_row(n) for n in n_list]


def _format_number(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _render_csv(schema: str, header: Sequence[str], rows: Sequence[tuple]) -> str:
    lines = [f"# schema: {schema}", ",".join(header),
             *(",".join(map(_format_number, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _render_json(schema: str, header: Sequence[str], rows: Sequence[tuple]) -> str:
    payload = {
        "schema": schema,
        "rows": [
            {
                key: value if isinstance(value, int) else float(f"{value:.10g}")
                for key, value in zip(header, row)
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(
    schema: str,
    header: Sequence[str],
    rows: Sequence[tuple],
    output_format: OutputFormat,
    output_path: str | None,
) -> None:
    render = _render_csv if output_format == "csv" else _render_json
    text = render(schema, header, rows)
    if output_path is None:
        sys.stdout.write(text)
    else:
        # Overwrite in place and cut to length afterwards instead of
        # truncating on open: on ext4, closing a file that was truncated to
        # zero and rewritten starts a writeback of its blocks, so every
        # rewrite of an existing output waited on the disk (about 40 us,
        # with stalls of milliseconds when the disk is busy).
        try:
            fd = os.open(output_path, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    handle.truncate()
        except OSError as exc:  # a missing directory, a directory, no permission, a full disk
            raise DomainError(f"cannot write --out: {exc}") from None


def _n_values_arg(text: str) -> Sequence[int]:
    """A comma list as a tuple, an a..b grid as a range, so that a long
    grid is checked by its ends before anything is built."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list or a..b range of integers, got {text!r}"
        ) from None


def _j_rule_arg(text: str) -> float | Literal["median"]:
    if text == "median":
        return "median"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'median' or a ratio in [0, 1], got {text!r}"
        ) from None


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=get_args(OutputFormat), default="csv")
    sub.add_argument("--out", default=None, metavar="PATH")


def _add_market_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spot", type=float, required=True)
    sub.add_argument("--extremum", type=float, required=True,
                     help="running minimum (call) or maximum (put)")
    sub.add_argument("--sigma", type=float, required=True)
    sub.add_argument("--rate", type=float, required=True)
    sub.add_argument("--tau", type=float, required=True)
    sub.add_argument("--side", choices=get_args(Side), required=True)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="lookback",
        description="Floating-strike lookback pricing and CDF-expansion benchmarks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    price = commands.add_parser("price", help="price one market over a period grid")
    _add_market_flags(price)
    price.add_argument("--n", type=_n_values_arg, required=True,
                       metavar="LIST", help="comma list or a..b range")
    price.add_argument("--method", choices=get_args(Method), default="reduced")
    _add_output_flags(price)

    table = commands.add_parser("table", help="reproduce one convergence table")
    table.add_argument("--table", choices=get_args(TableId), required=True)
    _add_output_flags(table)

    figure5 = commands.add_parser("figure5", help="fine-structure price scan")
    figure5.add_argument("--n-max", type=int, required=True)
    _add_output_flags(figure5)

    bench = commands.add_parser("cdf-bench", help="CDF expansion error scan")
    bench.add_argument("--n", type=_n_values_arg, required=True,
                       metavar="LIST", help="comma list or a..b range")
    bench.add_argument("--p-base", type=float, default=0.5)
    bench.add_argument("--p-drift", type=float, default=0.0,
                       help="p_n = p-base + p-drift/sqrt(n)")
    bench.add_argument("--j-rule", type=_j_rule_arg, default=0.55,
                       help="'median' or a ratio: j = floor(ratio * n)")
    _add_output_flags(bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "price":
            market = MarketState(spot=args.spot, extremum=args.extremum,
                                 sigma=args.sigma, rate=args.rate, tau=args.tau)
            config = RunConfig(market=market, side=args.side, n_values=args.n,
                               method=args.method)
            schema, header, rows = "lookback.price.v1", ("n", "price"), cmd_price(config)
        elif args.command == "table":
            schema, header, rows = "lookback.table.v1", TableRow._fields, cmd_table(args.table)
        elif args.command == "figure5":
            schema, header = "lookback.figure5.v1", ("n", "price_n", "price_bs")
            rows = cmd_figure5(args.n_max)
        else:
            schema = "lookback.cdf_bench.v1"
            header = ("n", "exact", "expansion", "err", "err_scaled")
            rows = cmd_cdf_bench(args.n, (args.p_base, args.p_drift), args.j_rule)
        _emit(schema, header, rows, args.format, args.out)
    except BudgetError as exc:
        _print_error(exc)
        return 3
    except LookbackError as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
