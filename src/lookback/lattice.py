"""Cheuk-Vorst lattice model for floating-strike lookback options.

The n-period tree tracks the level j = log-gap (in powers of u) between
the underlying and its running extremum, so a single state per node
suffices.  Valuation away from emission starts at the generally
non-integer level

    j0 = log(max(spot, extremum) / min(spot, extremum)) / (sigma sqrt(tau/n))

and the level moves as j -> j+1 on an up step, j -> max(j-1, 0) on a down
step.  Absorption at 0 happens where the running extremum is refreshed;
fractional levels j0 + i and integer levels therefore coexist until a
path is absorbed.

Three prices of the same quantity are implemented:

* ``price_closed``: the triple-sum formula S (V1 - V2 + V3) with
  reflection-principle path counts, every weight read from one binomial
  pmf row and the absorbed double sum folded into prefix sums, O(n);
* ``price_closed_reduced``: the same value rearranged into binomial
  CDFs, one arrangement for both sides and every rate r >= 0 (its 1/r
  poles are written as divided differences), O(sqrt(n)) time per CDF;
  ``price_closed_reduced_grid`` sums the CDFs of a whole grid of n in
  one pass.
  Against ``price_closed`` on the four table markets it stays within
  9.3e-14 relative at n = 1e4, 1e5 and 1e6;
* ``price_backward_induction``: risk-neutral dynamic programming on the
  level lattice, an independent O(n^2) oracle.

Path counts Lambda^{j0}_{j,k,n} (number of n-step words with k ups ending
at level j) come in three classes: plain binomial C(n,k) for paths that
never reach the absorbing region, partial binomial C(n,k) - C(n,k+f+1)
(reflection correction, f = floor(j0)) for unabsorbed paths started low
enough to have lost reflected twins, and the inner Cheuk-Vorst counts
C(n,k-j) - C(n,k-j-1) for absorbed paths ending on integer levels.
``iter_path_counts`` writes the class ranges once; no pricer reads them.

The lattice is symmetric under s -> -s, which takes q to 1 - q, p to
1 - p, u to d and log(S/M)/s to log(M/S)/s.  A put is therefore the
call on the lattice stepped by s = -sigma sqrt(tau/n): the call's
payoff 1 - u^-j there is minus the put's u^j - 1.  ``tree_params`` is
the one place that reads the side, for the sign of s, and every pricer
evaluates only the call's arrangement and returns sign(s) times it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BudgetError, DomainError, LookbackError, ModelError
from .numerics import (
    GL_MAX_SPREAD, _binom_pmf_log_vec, _check_binom_args, _pmf_consts, as_index, binom_cdfs,
    expm1_ratio, gl_mean, log1p_ratio,
)

# Unused here; perfbench/spans.py wraps these names on this module.
from .numerics import binom_cdf_complement, binom_cdf_exact, binom_pmf  # noqa: F401

__all__ = [
    "Side",
    "MarketState",
    "TreeParams",
    "PathCount",
    "TREE_MAX_N",
    "CLOSED_MAX_N",
    "tree_params",
    "path_count",
    "iter_path_counts",
    "price_closed",
    "price_closed_reduced",
    "price_closed_reduced_grid",
    "price_backward_induction",
]

Side = Literal["call", "put"]

# Levels within 1e-9 of an integer are treated as exactly integer: the
# count-class branches differ between the two cases and a floating
# log/sqrt can land 1 ulp off an exact integer.  The threshold is far
# below any economically meaningful level difference.
LEVEL_SNAP = 1e-9

# Largest n of the O(n^2) tree, and of closed and figure5 on the CLI.  A
# figure5 grid 2..N of reduced prices sums O(sqrt(n)) pmf terms for each
# n, about O(N^1.5) in all (2.8e6 pmf entries at N = 5000).
TREE_MAX_N = 5000

# Largest n of ``price_closed``, which holds a pmf row of n + 1 floats
# and a few arrays as long: at n = 1e7 a price takes 5.6 s and 1.15 GB
# peak RSS on a 2-CPU x86 VM.
CLOSED_MAX_N = 10**7

# Steps of the tree whose slice views are built together, so that a step
# pays only for its ufunc calls; 32 to 256 time the same.
_TREE_BLOCK = 64

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MarketState:
    """Market inputs at valuation time t.

    ``extremum`` is the running minimum of the underlying for calls and
    the running maximum for puts; the side-dependent inequality is
    checked where the side is known (``tree_params``, ``d_values``).
    """

    spot: float
    extremum: float
    sigma: float
    rate: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("spot", "extremum", "sigma", "rate", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not (self.spot > 0.0):
            raise DomainError(f"spot must be positive, got {self.spot}")
        if not (self.extremum > 0.0):
            raise DomainError(f"extremum must be positive, got {self.extremum}")
        # the lattice level is log(spot/extremum) or its negative
        if not (0.0 < self.spot / self.extremum < math.inf
                and 0.0 < self.extremum / self.spot < math.inf):
            raise DomainError(
                f"spot/extremum must be finite and positive both ways, "
                f"got spot={self.spot}, extremum={self.extremum}"
            )
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (self.rate >= 0.0):
            raise DomainError(f"rate must be nonnegative, got {self.rate}")
        if not (self.tau > 0.0):
            raise DomainError(f"tau must be positive, got {self.tau}")

    def require_side(self, side: Side) -> None:
        """side is "call" or "put", and the extremum is consistent with it:
        min <= spot for calls, max >= spot for puts."""
        if side not in ("call", "put"):
            raise DomainError(f"side must be 'call' or 'put', got {side!r}")
        if side == "call" and self.extremum > self.spot:
            raise DomainError(
                f"call requires extremum <= spot (running minimum), "
                f"got extremum={self.extremum}, spot={self.spot}"
            )
        if side == "put" and self.extremum < self.spot:
            raise DomainError(
                f"put requires extremum >= spot (running maximum), "
                f"got extremum={self.extremum}, spot={self.spot}"
            )


@dataclass(frozen=True)
class TreeParams:
    """Per-n lattice quantities of the walk the side prices on.

    s is the signed log step: sigma sqrt(tau/n) for a call and
    -sigma sqrt(tau/n) for a put, so a put's fields describe its own
    walk, with u = e^s < 1, and d = 1/u.  p_up is the
    risk-neutral up probability (e^{r tau/n} - d)/(u - d); q_adj =
    p_up u e^{-r tau/n} is the adjusted weight under which the lookback
    price is S_t times an expectation over terminal levels; one_m_p and
    one_m_q are 1 - p_up and 1 - q_adj, each formed from its own
    expm1/sinh difference rather than by subtraction from 1.
    j0 = j0_floor + j0_frac >= 0 after integer snapping (the same on both
    sides); kappa = {j0}(1 - {j0}).

    The tree steps by (w_up, w_dn): the one of q_adj and one_m_q that is
    at least 1/2, as formed, and 1.0 minus it, which is exact, so the two
    sum to 1 exactly.

    The reduced closed form needs the ratio Q = q/(1-q) (q = q_adj) and
    the combinations that vanish as n grows: Pm1 = P - 1 with
    P = p/(1-p) (p = p_up), and Qdm1 = Q d - 1.  Each is assembled
    from expm1/sinh differences, so it keeps full relative precision
    where the naive difference would lose it (at n = 1e7, P - 1 or
    Q d - 1 formed from the float ratios is off by 3e-13 to 4e-13
    relative).
    """

    n: int
    s: float
    u: float
    d: float
    p_up: float
    q_adj: float
    one_m_p: float
    one_m_q: float
    Q: float
    Pm1: float
    Qdm1: float
    w_up: float
    w_dn: float
    j0: float
    j0_floor: int
    j0_frac: float
    kappa: float


@dataclass(frozen=True)
class PathCount:
    """One nonzero lattice path count Lambda^{j0}_{j,k,n}."""

    j: float
    k: int
    count: int


def _comb0(n: int, m: int) -> int:
    """C(n, m) extended by 0 for m < 0 (math.comb already gives 0 for m > n)."""
    return math.comb(n, m) if m >= 0 else 0


def _split_level(j0: float) -> tuple[int, float]:
    """(floor, fractional part) of j0 with integer snapping at LEVEL_SNAP."""
    nearest = round(j0)
    if abs(j0 - nearest) < LEVEL_SNAP:
        return int(nearest), 0.0
    floor = math.floor(j0)
    return int(floor), j0 - floor


def _payoffs(levels: np.ndarray, s: float) -> np.ndarray:
    """The call's payoff 1 - e^{-s level} per level.  At s < 0 it is minus
    the put's e^{|s| level} - 1, and a level where that overflows is
    refused rather than priced inf."""
    try:
        with np.errstate(over="raise"):
            return -np.expm1(-levels * s)
    except FloatingPointError:
        raise ModelError(f"put payoff e^(level |s|) - 1 overflows: need level * |s| < "
                         f"{_LOG_FLOAT_MAX:.6g}, got s = {s:.6g}") from None


def _signed_price(par: TreeParams, spot: float, value: float) -> float:
    """The price from the call arrangement's value per unit spot: clamped
    to spot, a call's exact bound (the payoff S_T - min is at most S_T; a
    negated put lies below it), then times the sign of s.  A price below
    0, the lower no-arbitrage bound of both sides, is refused with
    ModelError: the reduced form's terms cancel to it where s is large
    or r tau/n is near s (a call priced at -23.2 on a spot of 100)."""
    sign = math.copysign(1.0, par.s)
    if sign * value < 0.0:
        raise ModelError(f"price {sign * spot * value:.6g} is below 0, its no-arbitrage bound: "
                         f"the terms cancel past their precision at n={par.n}, s={par.s:.6g}")
    return sign * min(spot * value, spot)


def tree_params(market: MarketState, n: int, side: Side) -> TreeParams:
    """Lattice parameters for an n-period tree.

    u = e^s, d = 1/u with s = sigma sqrt(tau/n) for a call and
    -sigma sqrt(tau/n) for a put: the only place the side is read.  p and
    q are assembled from expm1/sinh differences so that e.g.
    2q - 1 = O(sqrt(tau/n)) keeps full relative precision at n = 1e5
    (u + d - 2 computed directly would lose nine digits).  The three
    pricers call this first, so it is where n is refused: with
    DomainError unless it is an integer (``numerics.as_index``) and
    n >= 1, and with ModelError past the float range, where
    ``as_index`` refuses an integer above the largest float.
    """
    n = as_index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    market.require_side(side)
    dt = market.tau / n
    step = market.sigma * math.sqrt(dt)
    if market.rate * dt >= step:
        raise ModelError(
            f"n too small for given r, sigma, tau: need r*tau/n < sigma*sqrt(tau/n), "
            f"got n={n}, r={market.rate}, sigma={market.sigma}, tau={market.tau}"
        )
    if not step < _LOG_FLOAT_MAX:
        raise ModelError(
            f"n too small for given sigma, tau: u = e^(sigma*sqrt(tau/n)) overflows, "
            f"got n={n}, sigma={market.sigma}, tau={market.tau}"
        )
    s = step if side == "call" else -step
    u = math.exp(s)
    d = math.exp(-s)
    um1 = math.expm1(s)
    dm1 = math.expm1(-s)
    ep = math.expm1(market.rate * dt)
    em = math.expm1(-market.rate * dt)
    ud = 2.0 * math.sinh(s)  # u - d without cancellation
    a = 4.0 * math.sinh(0.5 * s) ** 2  # u + d - 2, likewise
    p = (ep - dm1) / ud
    q = (um1 - em) / ud
    one_m_p = (um1 - ep) / ud
    one_m_q = (em - dm1) / ud
    two_p_m1 = (2.0 * ep - a) / ud
    # the pricers weight by these and by 1.0 minus them: a weight that
    # rounds to 0 or 1 (from about s = 37) would price on a wrong weight
    # or fail in log1p.  At -s the four swap in pairs, so both sides
    # check the same four numbers.
    for name, weight in (("p_up", p), ("one_m_p", one_m_p), ("q_adj", q),
                         ("one_m_q", one_m_q)):
        if not (0.0 < weight < 1.0 and 0.0 < 1.0 - weight < 1.0):
            raise ModelError(
                f"n too small for given sigma, tau: {name} = {weight!r} or "
                f"1 - {name} rounds to 0 or 1, got n={n}, sigma={market.sigma}, "
                f"tau={market.tau}"
            )
    raw_j0 = math.log(max(market.spot, market.extremum)
                      / min(market.spot, market.extremum)) / step
    if not math.isfinite(raw_j0):
        raise ModelError(f"start level log(S/M)/s overflows, got s = {s}")
    floor, frac = _split_level(raw_j0)
    w_up, w_dn = (q, 1.0 - q) if q >= 0.5 else (1.0 - one_m_q, one_m_q)
    return TreeParams(
        n=n, s=s, u=u, d=d, p_up=p, q_adj=q, one_m_p=one_m_p, one_m_q=one_m_q,
        Q=q / one_m_q, Pm1=two_p_m1 / one_m_p,
        Qdm1=-(1.0 + d) * em / (em - dm1), w_up=w_up, w_dn=w_dn,
        j0=floor + frac, j0_floor=floor, j0_frac=frac, kappa=frac * (1.0 - frac),
    )


def path_count(j0: float, j: float, k: int, n: int) -> int:
    """Lambda^{j0}_{j,k,n}: paths from level j0 with k ups ending at level j.

    The count of the ``iter_path_counts`` cell with that k whose level is
    within LEVEL_SNAP of j; 0 when there is none (out-of-range j or k).
    """
    k = as_index(k, "k")
    for cell in iter_path_counts(j0, n):
        if cell.k == k and abs(cell.j - j) < LEVEL_SNAP:
            return cell.count
    return 0


def iter_path_counts(j0: float, n: int) -> Iterator[PathCount]:
    """All path counts with nonzero count, each (j, k) exactly once.

    The three class ranges are pairwise disjoint in (j, k), including for
    integer j0 where unabsorbed levels are themselves integers.  The
    arguments are checked at the call, before the first cell is asked for.
    """
    n = as_index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 <= j0 < math.inf:
        raise DomainError(f"j0 must be finite and nonnegative, got {j0}")
    return _path_counts(j0, n)


def _path_counts(j0: float, n: int) -> Iterator[PathCount]:
    floor, frac = _split_level(j0)
    j0_eff = floor + frac
    # plain binomial: too high to be absorbed
    for k in range(max(n - floor, 0), n + 1):
        yield PathCount(j=j0_eff + (2 * k - n), k=k, count=math.comb(n, k))
    # partial binomial: unabsorbed, minus the reflected twins
    k_partial_min = n - (n + floor) // 2
    for k in range(max(k_partial_min, 0), n - floor):
        count = math.comb(n, k) - math.comb(n, k + floor + 1)
        if count:
            yield PathCount(j=j0_eff + (2 * k - n), k=k, count=count)
    # inner Cheuk-Vorst: absorbed, ending on integer levels
    for j_int in range(0, n - floor):
        for k in range(j_int, (n - floor - 1 + j_int) // 2 + 1):
            count = _comb0(n, k - j_int) - _comb0(n, k - j_int - 1)
            if count:
                yield PathCount(j=float(j_int), k=k, count=count)


def price_closed(market: MarketState, n: int, side: Side) -> float:
    """S_t (V1 - V2 + V3) summed over terminal levels, in O(n).

    Every weight comes from one row pmf(i) = C(n, i) w^i (1-w)^{n-i},
    i = 0..n, with (w, 1 - w) the tree's pair (w_up, w_dn) and
    rho = w / (1 - w):

    * V1 runs over the unabsorbed levels j0 + 2k - n with weight pmf(k);
    * V2 subtracts their reflected counts C(n, k+f+1) w^k (1-w)^{n-k}
      = pmf(k+f+1) rho^{-(f+1)};
    * V3 runs over the absorbed integer levels j.  Its inner count
      C(n, i) - C(n, i-1) = C(n, i) (n - 2i + 1)/(n - i + 1), i = k - j,
      is cancellation-free on i <= (n-1)/2, and row j equals
      rho^j prefix[top_j], top_j = (n_inner + j)//2 - j, where prefix
      holds the running sums of pmf(i) (n - 2i + 1)/(n - i + 1).

    rho^j prefix is formed in log space (rho^j overflows at n = 1e6).
    Against a 40-digit evaluation of the same sums the result agrees to
    within 5e-15 relative on the four table markets at n = 5000.

    The sums are the call's, on the put's own walk for a put, and the
    result is sign(s) times them.  A call is clamped to spot, its exact
    bound (the payoff S_T - min is at most S_T): where it tends to spot,
    at sigma sqrt(tau) of 15 to 25, the sums round up to 4.4e-16 relative
    past it.

    n above ``CLOSED_MAX_N`` is refused with BudgetError once
    ``tree_params`` has checked it, before any array is allocated.
    """
    par = tree_params(market, n, side)
    if n > CLOSED_MAX_N:
        raise BudgetError(f"price_closed is limited to n <= {CLOSED_MAX_N}, got {n}")
    s = par.s
    floor = par.j0_floor
    log_pmf = _binom_pmf_log_vec(np.arange(n + 1, dtype=np.int64),
                                 _pmf_consts([(n, par.w_up)])[:, 0])

    # k below n - (n+f)/2 cannot stay unabsorbed; for j0 > n no path is
    # ever absorbed and every k >= 0 is plain binomial
    k_min = max(n - (n + floor) // 2, 0)
    levels = par.j0 + 2.0 * np.arange(k_min, n + 1) - n
    payoffs = _payoffs(levels, s)
    v1 = math.fsum((payoffs * np.exp(log_pmf[k_min:])).tolist())

    n_inner = n - floor - 1  # top absorbed level; negative when j0 >= n
    if n_inner < 0:
        return _signed_price(par, market.spot, v1)

    # log(w / (1 - w)) from the exact 2w - 1, so rho matches the pmf row
    log_rho = math.log1p((2.0 * par.w_up - 1.0) / par.w_dn)
    reflected = np.exp(log_pmf[k_min + floor + 1:] - (floor + 1) * log_rho)
    v2 = math.fsum((payoffs[: reflected.size] * reflected).tolist())

    i = np.arange(n_inner // 2 + 1)
    log_ratio = np.log((n - 2 * i + 1) / (n - i + 1))
    log_prefix = np.logaddexp.accumulate(log_pmf[: i.size] + log_ratio)
    j = np.arange(n_inner + 1)
    rows = np.exp(j * log_rho + log_prefix[(n_inner + j) // 2 - j])
    v3 = math.fsum((_payoffs(j, s) * rows).tolist())
    return _signed_price(par, market.spot, v1 - v2 + v3)


def price_closed_reduced(market: MarketState, n: int, side: Side) -> float:
    """Same value as ``price_closed`` via binomial CDFs.

    One arrangement, the call's, serves every rate r >= 0; a put is
    sign(s) = -1 times it on the put's own walk.  With up weight
    w = q_adj, w' = p_up, rho = Q = w/(1-w), rho' = P = w'/(1-w'),
    c = d = 1/u and payoff 1 - c^level, V1 and V2 are upper-CDF
    differences in w and w' at the split indices
    j1 = n - floor((n + f)/2) and j2 = j1 + f + 1, f = j0_floor.  The V3
    double sum telescopes, at j3 = j1 - 1, into

        rho K Bin_{1-w'}(j3) + rho (c-1) (Bin_{1-w'}(j3) - Bin_w(j3)) / (rho c - 1)
            - rho^{-(f+1)} Bin_{1-w}(j3)

    plus a parity-edge term (1 - 1/c) pmf_w(j3) when n + f is odd, where
    K = e^E c + (c - 1) expm1(E) / (rho c - 1) and
    E = -r tau - (f + 2) log(rho c).  Since pmf_{n,1-t}(k) =
    pmf_{n,t}(n - k) and n - j3 - 1 = j2 - 1 - [n + f odd], a lower sum
    in 1 - t at j3 is the upper sum in t at j2 - 1 plus [n + f odd]
    pmf_t(j2 - 1).  So V3's last term cancels V2's rho^{-(f+1)}
    upper_w(j2 - 1) but for rho^{-(f+1)} pmf_w(j2 - 1), which is
    pmf_w(j3) at odd n + f (C(n, j2 - 1) = C(n, j3) there), and with the
    edge term leaves u pmf_w(j3).  Bin_{1-w'}(j3) reads V2's sum
    upper_{w'}(j2 - 1), plus [n + f odd] pmf_{w'}(j2 - 1).  The price is
    then a constant plus three CDFs, upper_w(j3), upper_{w'}(j3) and
    upper_{w'}(j2 - 1), and a pmf, pmf_w(j3), each times a weight, and at
    odd n + f a second pmf, pmf_{w'}(j2 - 1): ``_reduced_terms`` lists
    them as (spec, weight) pairs.  No sum runs in 1 - w or 1 - w', and
    no term in n - 1.  Where j0 >= n no path is absorbed, and the price
    is the constant 1 - c^{j0} e^{-r tau}, with no term.  Where one of
    rho'^{-(f+1)} and e^E, or a weight, overflows (low-volatility puts at
    r > 0, where f runs into the thousands), or where rho' rounds to 0
    (s of about 35.7 to 37.4, just below where ``tree_params`` refuses),
    the price is refused with ModelError.

    At r = 0, 1 - w' = w and rho c = 1, so both quotients are 0/0; each
    is written to stay finite there.  With x = r tau/n, rho c - 1 and
    1 - w' - w are x times expm1 ratios that tend to nonzero limits, which
    gives E / (rho c - 1), and since d/dt Bin_{n,t}(j) = -n pmf_{n-1,t}(j)
    the CDF difference is

        Bin_{1-w'}(j3) - Bin_w(j3) = -n (1 - w' - w) mean_{t in [w, 1-w']} pmf_{n-1,t}(j3).

    Since n pmf_{n-1,w}(j3) = (n - j3) pmf_w(j3) / (1 - w), the mean is
    pmf_w(j3), a term the price already takes, times ``gl_mean`` of the
    exact ratios pmf_{n-1,t} / pmf_{n-1,w} in plain floats, anchored at
    the end w.  Where the interval is wide against the pmf's scale in t
    (spread above ``GL_MAX_SPREAD``) the two CDFs are differenced
    directly, as they do not cancel there, and Bin_w(j3) is
    1 - upper_w(j3): upper_w(j3) takes the quotient into its weight, and
    the price a constant.  The interval's width 1 - w' - w is x times an
    expm1 ratio, 1 - w in the ratios is ``one_m_q``, and rho c - 1 is
    ``Qdm1``, each formed from its own difference: the tree's pair
    (w_up, w_dn) would carry the rounding of 1.0 - w into them.

    The three CDFs of O(sqrt(n)) time each (see ``binom_cdf_exact``) and
    the one or two pmfs, as single-term specs, go to one ``binom_cdfs``
    call: four or five specs, all of (n, w) or (n, w').  Each pmf lies in
    or next to the first chunk of a sum of its own (n, p), so that call
    evaluates each pmf entry once, in pmf kernel calls that hold at most
    4,096 entries unless one segment fills them alone.  On the table
    markets that is one call up to n = 1e5, two from 1.3e5 to 2.4e5 and
    three from 2.8e5 on: the segments of w' at j3 and at j2 - 1 and of w
    at j3.  This is ``price_closed_reduced_grid`` at the one n; a grid makes
    one ``binom_cdfs`` call for all its n, and their chunks share kernel
    calls too.  Against ``price_closed`` on the table markets at
    n = 1e4, 1e5 and 1e6 the result stays within 3.1e-14 relative on T1,
    6.2e-14 on T3, 8.9e-14 on T2 and 9.3e-14 on T4, and on the T1 and T3
    markets at r = 1e-8 and 1e-11 within 2.2e-13.  Against backward
    induction at n = 500 both stay within 8.8e-15 for every r from 0
    through 1e-14, 1e-13, ..., 1e-1 to 0.3.  A call is clamped to spot,
    as in ``price_closed``, should the sum round past it where it tends
    to spot.  Where the terms cancel below 0 (at s >= 9, and at
    r tau/n near s) the price is refused with ModelError by
    ``_signed_price``.
    """
    return price_closed_reduced_grid(market, (n,), side)[0]


def price_closed_reduced_grid(market: MarketState, n_values: Sequence[int],
                              side: Side) -> list[float]:
    """``price_closed_reduced`` at each n of n_values, in order, from one
    ``binom_cdfs`` call over the specs of every n.

    The pmf kernel calls of that call are shared across the grid as well
    as within each price.  On each table market a window of 16
    consecutive n takes 1 kernel call at n = 2..17 and at 100..115 and 2
    at 1000..1015, where priced one n at a time it takes 16.  Each n
    streams the specs of its ``_reduced_terms`` into that call, and its
    price is the ``fsum`` of its constant and each term's weight times
    its result, read in order; it is the same, bit for bit, as when
    priced alone.  Per n the grid keeps its ``TreeParams``, the constant
    and the terms until the call returns, and ``binom_cdfs`` a record per
    walk.  Refusals come in grid order, as from the loop of single
    prices.  Planning stops at the first n that ``tree_params``, the
    weights or the CDFs' checks refuse; the n before it are priced, and
    the first of them whose price ``_signed_price`` refuses as below its
    no-arbitrage bound raises, else the planning refusal does.  A grid
    refused in planning at its first n sums no CDF.
    """
    plans, refusal = [], None
    for n in n_values:
        try:
            par = tree_params(market, n, side)
            # the first spec's check, made where a loop of single prices makes it
            _check_binom_args(par.n, par.q_adj)
            plans.append((par, *_reduced_terms(market, par)))
        except LookbackError as exc:
            # the prices before it may still be refused first
            refusal = exc
            break
    cdf = iter(binom_cdfs(spec for _, _, terms in plans for spec, _ in terms))
    # zip stops at the end of the terms, so each price takes its own results
    prices = [_signed_price(par, market.spot,
                            math.fsum((constant, *(wt * v for (_, wt), v in zip(terms, cdf)))))
              for par, constant, terms in plans]
    if refusal is not None:
        raise refusal
    return prices


def _reduced_terms(market: MarketState, par: TreeParams) -> tuple[float, tuple[tuple, ...]]:
    """(constant, terms): the reduced price per unit spot is the constant
    plus, for each (spec, weight) of terms, the weight times the
    ``binom_cdfs`` result of the spec.  The specs are all of (n, w) or
    (n, w'): the upper sums in w and w' at j3, the upper sum in w' at
    j2 - 1, the pmf of w at j3, and, only when n + f is odd, the pmf of
    w' at j2 - 1.  Where j0 >= n no path is absorbed, and the price is
    the constant 1 - ms_disc with no terms.  ModelError where rho'^-(f+1),
    e^E or a weight leaves the float range."""
    n, floor = par.n, par.j0_floor
    # extremum/spot as c^{j0}: consistent with the snapped level
    ms_disc = math.exp(-par.j0 * par.s) * math.exp(-market.rate * market.tau)
    if floor >= n:
        return 1.0 - ms_disc, ()
    rho, rc_m1 = par.Q, par.Qdm1
    c, cm1 = par.d, math.expm1(-par.s)
    x = market.rate * (market.tau / n)
    # rho c - 1 = x rc_x, a ratio finite and nonzero at x = 0
    rc_x = (1.0 + c) * expm1_ratio(-x) / (math.expm1(-x) - cm1)
    # K = e^E c + (c - 1) expm1(E)/(rho c - 1), with r tau/(rho c - 1) = n/rc_x
    big_e = -market.rate * market.tau - (floor + 2) * math.log1p(rc_m1)
    # log rho'^-(f+1); rho' rounds to 0 (Pm1 to -1) near the step where
    # tree_params refuses, and log rho' = -inf then refuses here
    log_pow = -(floor + 1) * (math.log1p(par.Pm1) if par.Pm1 > -1.0 else -math.inf)
    if not max(big_e, log_pow) <= _LOG_FLOAT_MAX:
        raise ModelError(f"reduced form: rho'^-(f+1) = e^{log_pow:.6g} or e^E = e^{big_e:.6g} "
                         f"overflows: need both exponents below {_LOG_FLOAT_MAX:.6g}, "
                         f"got n={n}, f={floor}")
    e_over_rc = -n / rc_x - (floor + 2) * log1p_ratio(rc_m1)
    rho_k = rho * (math.exp(big_e) * c + cm1 * expm1_ratio(big_e) * e_over_rc)
    j3 = n - (n + floor) // 2 - 1
    j2_m1 = j3 + floor + 1
    odd = (n + floor) % 2
    w, wp, one_m_w = par.q_adj, par.p_up, par.one_m_q
    # 1 - w' - w = x width_x is finite and nonzero at x = 0:
    # 2 sinh(x) / x = expm1(x)/x + expm1(-x)/-x
    width_x = -(expm1_ratio(x) + expm1_ratio(-x)) / (2.0 * math.sinh(par.s))
    half = 0.5 * x * width_x
    # the interval [w, 1 - w'] against the slope j/t - (n-1-j)/(1-t) of
    # log pmf_{n-1,t}(j3), which is monotone in t: largest at an end
    spread = 2.0 * abs(half) * max(abs(j3 / t - (n - 1 - j3) / (1.0 - t))
                                   for t in (w, par.one_m_p))
    # pmf_w(j3) is summed at both parities; u times it only at odd n + f
    on_w, constant, edge = 1.0, 0.0, par.u if odd else 0.0
    if spread > GL_MAX_SPREAD:
        # rho (c - 1) (Bin_{1-w'}(j3) - Bin_w(j3)) / (rho c - 1) taken
        # directly, with Bin_w(j3) = 1 - upper_w(j3)
        constant = rho * cm1 / rc_m1
        on_p, on_w = -rho_k - constant, 1.0 - constant
    else:
        def ratio(off: float) -> float:
            return math.exp(j3 * math.log1p((half + off) / w)
                            + (n - 1 - j3) * math.log1p(-(half + off) / one_m_w))

        # the same quotient as (1 - w' - w) n pmf_{n-1,w}(j3) times the
        # mean of pmf_{n-1,t}(j3) / pmf_{n-1,w}(j3) over t, on pmf_w(j3):
        # n pmf_{n-1,w}(j3) = (n - j3) pmf_w(j3) / (1 - w)
        on_p = -rho_k
        edge += rho * cm1 * (width_x / rc_x) * ((n - j3) / one_m_w) * gl_mean(ratio, half)
    # on_p weighs Bin_{1-w'}(j3) = upper_{w'}(j2 - 1) + [n + f odd] pmf_{w'}(j2 - 1),
    # so the pmf of w' at j2 - 1 is a term only at odd n + f
    terms = (((n, w, j3, True), on_w), ((n, wp, j3, True), -ms_disc),
             ((n, wp, j2_m1, True), ms_disc * math.exp(log_pow) + on_p),
             ((n, w, j3, None), edge), ((n, wp, j2_m1, None), on_p))[:4 + odd]
    # on_p is finite wherever the weight of upper_{w'}(j2 - 1) is
    if not all(math.isfinite(wt) for wt in (constant, *(wt for _, wt in terms))):
        raise ModelError(f"reduced form: a weight overflows past {sys.float_info.max:.6g}, "
                         f"got n={n}, f={floor}")
    return constant, terms


def _step_back(col: np.ndarray, lane: int, start: int, top: int,
               w_up: np.float64, w_dn: np.float64) -> np.ndarray:
    """Step ``col``, the values at time top + 1, back to time 0 and
    return the array that then holds them.

    The step to time t first gives cells 0 .. lane - 1 the value of cell
    lane, then writes the window [max(lane, start - lane t),
    start + lane t + 1), each cell becoming w_up x[i + lane] +
    w_dn x[i - lane].  A window's cells read only cells of the window one
    step later, or ghosts, and a ghost only where the window one step
    later starts at lane.  Each block of _TREE_BLOCK steps builds its
    views once, for both ping-pong directions, over the window of its
    largest t, so a step costs the ghost copy and three ufunc calls.  The
    cells that the block's later steps write outside their own windows
    are read by no cell inside them; both arrays start as copies of the
    same finite values, so those cells stay finite too.
    """
    # Two arrays take turns as source and target, so the loop allocates
    # nothing: fresh per-step temporaries land on whatever alignment
    # malloc gives them, and their speed varied by 1.6x with it.
    new, scratch = col.copy(), np.empty_like(col)
    for t in range(top, -1, -_TREE_BLOCK):
        lo, hi = max(lane, start - lane * t), start + lane * t + 1
        tmp = scratch[lo:hi]
        views = [(src[:lane], src[lane:lane + 1], dst[lo:hi],
                  src[lo + lane:hi + lane], src[lo - lane:hi - lane])
                 for src, dst in ((col, new), (new, col))]
        steps = min(_TREE_BLOCK, t + 1)
        for k in range(steps):
            ghost, g0, out, up, dn = views[k & 1]
            ghost[...] = g0
            np.multiply(up, w_up, out)
            np.multiply(dn, w_dn, tmp)
            np.add(out, tmp, out)
        if steps & 1:
            col, new = new, col
    return col


def price_backward_induction(market: MarketState, n: int, side: Side) -> float:
    """Risk-neutral backward induction on the level lattice.

    f = j0_floor and m = min(f, n).  At time t (t steps after the start)
    only levels within t of the start can reach it, so each step updates
    a window of cells that holds those levels; one ``_step_back`` call
    runs every window, from time n - 1 down to the start.  Absorption
    takes f + 1 down moves, so no path reaches level 0 before time f, and
    from a start with f >= n none ever does.

    Every start holds the levels f - m - 1 .. f + n of its own set in one
    column, below them a ghost cell.  A fractional start below n has two
    level sets: G over the integer levels an absorbed path can end on,
    and F over the fractional levels j0_frac + g; at time t the start
    reaches G_0 .. G_{t-f-1} and F_{max(0, f-t)} .. F_{f+t}.  Its column
    interleaves them in lane 2, G_g at 2(g + 1) and F_g at 2(g + 1) + 1.
    A down move from integer 0 stays at 0 and one from F_0 is absorbed at
    0, so both ghost cells 0 and 1 hold G_0, and every cell steps by
    new[i] = w_up x[i+2] + w_dn x[i-2].  Every other start holds its one
    set in lane 1: an integer start below n the levels -1 .. f + n, and a
    start with f >= n the levels f - n - 1 .. f + n, whose ghost no
    window reads.

    The start sits at cell lane (m + 2) - 1, and the step to time t
    writes the cells from max(lane, start - lane t) to start + lane t:
    the start's levels within t of it, down to G_0 from time f on.  A
    fractional start's window also holds G_{|f-t|} .. G_{f+t}, which no
    path from the start reaches; they read only G cells, and no reachable
    cell reads them.  In all a fractional start below n steps about
    n^2 + 2fn - f^2 cells, where G and F end to end in one column would
    step n + t + 2 a step, about 1.5 n^2; an integer start below n about
    n(f + n/2) - f^2/2; and a start with f >= n about n^2.  G's unreached
    cells run up to level f + n, below F's top level, so ``_payoffs``
    refuses the same markets as with G over 0 .. n - f - 1 alone.  The
    levels are built from integer bounds, so the column has its 2n + 2
    or more cells even where f is past 2^53 and binary64 levels are no
    longer integers.

    The cells step by the pair (w_up, w_dn), which sums to 1 exactly,
    over the call's payoffs; a put is sign(s) times that, on its own
    walk.  No per-step discounting: the adjusted weights already price
    relative to the spot numeraire (q_adj + (1 - q_adj) = 1 absorbs
    e^{-r tau/n}), so the price is simply spot times the start-level
    expectation, a convex combination of payoffs below 1: the clamp and
    the bound refusal of ``_signed_price`` never act on it.
    """
    par = tree_params(market, n, side)
    if n > TREE_MAX_N:
        raise BudgetError(
            f"price_backward_induction is limited to n <= {TREE_MAX_N}, got {n}"
        )
    floor, frac, s = par.j0_floor, par.j0_frac, par.s
    w = np.float64(par.w_up), np.float64(par.w_dn)
    m = min(floor, n)
    # Level g of the start's own set sits at cell lane (g - f + m + 1) + lane - 1:
    # lane 2 interleaves G and F, lane 1 holds one set.  Cell 0 (and 1)
    # is a ghost at level f - m - 1, which a step overwrites with G_0
    # before it reads it.
    lane = 2 if 0.0 < frac and floor < n else 1
    levels = np.add.outer(np.arange(floor - m - 1, floor + n + 1, dtype=np.float64),
                          (0.0, frac)[2 - lane:]).ravel()
    start = lane * (m + 2) - 1
    col = _step_back(_payoffs(levels, s), lane, start, n - 1, *w)
    return _signed_price(par, market.spot, float(col[start]))
