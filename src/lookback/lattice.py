"""Cheuk-Vorst lattice model for floating-strike lookback options.

The n-period tree tracks the level j = log-gap (in powers of u) between
the underlying and its running extremum, so a single state per node
suffices.  Valuation away from emission starts at the generally
non-integer level

    j0 = log(spot / extremum) / (sigma sqrt(tau/n))   (call; put swaps the ratio)

and the level moves as j -> j+1 on an up step, j -> max(j-1, 0) on a down
step.  Absorption at 0 happens where the running extremum is refreshed;
fractional levels j0 + i and integer levels therefore coexist until a
path is absorbed.

Three prices of the same quantity are implemented:

* ``price_closed``: the triple-sum formula S (V1 - V2 + V3) with
  reflection-principle path counts, every weight read from one binomial
  pmf row and the absorbed double sum folded into prefix sums, O(n);
* ``price_closed_reduced``: the same value rearranged into binomial
  CDFs, one arrangement for both sides and both rate branches,
  O(sqrt(n)) time per CDF.  Against ``price_closed`` on the four table
  markets it stays within 2.5e-13 relative at n = 1e4, 1e5 and 1e6;
* ``price_backward_induction``: risk-neutral dynamic programming on the
  level lattice, an independent O(n^2) oracle.

Path counts Lambda^{j0}_{j,k,n} (number of n-step words with k ups ending
at level j) come in three classes: plain binomial C(n,k) for paths that
never reach the absorbing region, partial binomial C(n,k) - C(n,k+f+1)
(reflection correction, f = floor(j0)) for unabsorbed paths started low
enough to have lost reflected twins, and the inner Cheuk-Vorst counts
C(n,k-j) - C(n,k-j-1) for absorbed paths ending on integer levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .errors import BudgetError, DomainError, ModelError
from .numerics import _binom_pmf_log_vec, _pmf_consts, binom_cdfs, binom_pmf

# Unused here; perfbench/spans.py wraps these names on this module.
from .numerics import binom_cdf_complement, binom_cdf_exact  # noqa: F401

__all__ = [
    "Side",
    "MarketState",
    "TreeParams",
    "PathCount",
    "tree_params",
    "path_count",
    "iter_path_counts",
    "path_count_enumerate",
    "price_closed",
    "price_closed_reduced",
    "price_backward_induction",
]

Side = Literal["call", "put"]
PathClass = Literal["binomial", "partial_binomial", "inner_cv"]

# Levels within 1e-9 of an integer are treated as exactly integer: the
# count-class branches differ between the two cases and a floating
# log/sqrt can land 1 ulp off an exact integer.  The threshold is far
# below any economically meaningful level difference.
LEVEL_SNAP = 1e-9

ENUMERATION_MAX_N = 22
TREE_MAX_N = 5000


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
    """Per-n lattice quantities.

    s = sigma sqrt(tau/n) is the log step, u = e^s, d = 1/u, um1 = u - 1.
    p_up is the risk-neutral up probability (e^{r tau/n} - d)/(u - d);
    q_adj = p_up u e^{-r tau/n} is the adjusted weight under which the
    lookback price is S_t times an expectation over terminal levels.
    j0 = j0_floor + j0_frac after integer snapping; kappa = {j0}(1 - {j0}).

    The reduced closed form needs the ratios Q = q/(1-q), P = p/(1-p)
    (q = q_adj, p = p_up) and the combinations that vanish as n grows:
    Qm1 = Q - 1, Pm1 = P - 1, Qdm1 = Q d - 1 and uWm1 = u/Q - 1.  Each is
    assembled from expm1/sinh differences, so it keeps full relative
    precision where the naive difference would lose it (at n = 1e7,
    P - 1, Q d - 1 or u/Q - 1 formed from the float ratios is off by
    3e-13 to 4e-13 relative).
    """

    n: int
    s: float
    u: float
    d: float
    um1: float
    p_up: float
    q_adj: float
    P: float
    Q: float
    Pm1: float
    Qm1: float
    Qdm1: float
    uWm1: float
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
    class_tag: PathClass


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


def _initial_level(market: MarketState, side: Side) -> float:
    if side == "call":
        return math.log(market.spot / market.extremum)
    return math.log(market.extremum / market.spot)


def tree_params(market: MarketState, n: int, side: Side) -> TreeParams:
    """Lattice parameters for an n-period tree.

    u = e^{sigma sqrt(tau/n)}, d = 1/u.  p and q are assembled from
    expm1/sinh differences so that e.g. 2q - 1 = O(sqrt(tau/n)) keeps
    full relative precision at n = 1e5 (u + d - 2 computed directly
    would lose nine digits).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    market.require_side(side)
    dt = market.tau / n
    s = market.sigma * math.sqrt(dt)
    if market.rate * dt >= s:
        raise ModelError(
            f"n too small for given r, sigma, tau: need r*tau/n < sigma*sqrt(tau/n), "
            f"got n={n}, r={market.rate}, sigma={market.sigma}, tau={market.tau}"
        )
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
    two_q_m1 = (a - 2.0 * em) / ud
    two_p_m1 = (2.0 * ep - a) / ud
    raw_j0 = _initial_level(market, side) / s
    floor, frac = _split_level(raw_j0)
    return TreeParams(
        n=n, s=s, u=u, d=d, um1=um1, p_up=p, q_adj=q,
        P=p / one_m_p, Q=q / one_m_q,
        Pm1=two_p_m1 / one_m_p, Qm1=two_q_m1 / one_m_q,
        Qdm1=-(1.0 + d) * em / (em - dm1),
        uWm1=(1.0 + u) * em / (ud * q),
        j0=floor + frac, j0_floor=floor, j0_frac=frac, kappa=frac * (1.0 - frac),
    )


def path_count(j0: float, j: float, k: int, n: int) -> int:
    """Lambda^{j0}_{j,k,n}: paths from level j0 with k ups ending at level j.

    Out-of-range (j, k) return 0.  The three class ranges are pairwise
    disjoint in (j, k), including for integer j0 where unabsorbed levels
    are themselves integers.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if j0 < 0.0:
        raise DomainError(f"j0 must be nonnegative, got {j0}")
    record = _classify_path_count(j0, j, k, n)
    return 0 if record is None else record.count


def _classify_path_count(j0: float, j: float, k: int, n: int) -> PathCount | None:
    floor, frac = _split_level(j0)
    j0_eff = floor + frac
    if k < 0 or k > n:
        return None
    k_partial_min = n - (n + floor) // 2
    # unabsorbed terminal level for k ups is exactly j0 + 2k - n
    if abs(j - (j0_eff + (2 * k - n))) < LEVEL_SNAP:
        if n - floor <= k <= n:
            return PathCount(j=j0_eff + (2 * k - n), k=k, count=math.comb(n, k),
                             class_tag="binomial")
        if k_partial_min <= k <= n - floor - 1:
            count = math.comb(n, k) - math.comb(n, k + floor + 1)
            return PathCount(j=j0_eff + (2 * k - n), k=k, count=count,
                             class_tag="partial_binomial")
    j_int = round(j)
    if abs(j - j_int) < LEVEL_SNAP and 0 <= j_int <= n - floor - 1:
        if j_int <= k <= (n - floor - 1 + j_int) // 2:
            count = _comb0(n, k - j_int) - _comb0(n, k - j_int - 1)
            return PathCount(j=float(j_int), k=k, count=count, class_tag="inner_cv")
    return None


def iter_path_counts(j0: float, n: int) -> Iterator[PathCount]:
    """All path counts with nonzero count, each (j, k) exactly once."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if j0 < 0.0:
        raise DomainError(f"j0 must be nonnegative, got {j0}")
    floor, frac = _split_level(j0)
    j0_eff = floor + frac
    for k in range(max(n - floor, 0), n + 1):
        yield PathCount(j=j0_eff + (2 * k - n), k=k, count=math.comb(n, k),
                        class_tag="binomial")
    k_partial_min = n - (n + floor) // 2
    for k in range(max(k_partial_min, 0), n - floor):
        count = math.comb(n, k) - math.comb(n, k + floor + 1)
        if count:
            yield PathCount(j=j0_eff + (2 * k - n), k=k, count=count,
                            class_tag="partial_binomial")
    for j_int in range(0, n - floor):
        for k in range(j_int, (n - floor - 1 + j_int) // 2 + 1):
            count = _comb0(n, k - j_int) - _comb0(n, k - j_int - 1)
            if count:
                yield PathCount(j=float(j_int), k=k, count=count,
                                class_tag="inner_cv")


def path_count_enumerate(j0: float, n: int) -> dict[tuple[float, int], int]:
    """Exhaustive tally over all 2^n up/down words of (terminal level, ups).

    Level dynamics j -> j+1 (up), j -> max(j-1, 0) (down).  States are
    tracked symbolically (fractional offset vs. absorbed integer) so the
    returned keys are exact.  Budget: n <= 22.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if j0 < 0.0:
        raise DomainError(f"j0 must be nonnegative, got {j0}")
    if n > ENUMERATION_MAX_N:
        raise BudgetError(
            f"path_count_enumerate is limited to n <= {ENUMERATION_MAX_N} "
            f"(2^n words), got {n}"
        )
    floor, frac = _split_level(j0)
    # state: ("frac", i) = level j0 + i (only while i >= -floor), or
    # ("int", m) = absorbed integer level m
    start = ("int", floor) if frac == 0.0 else ("frac", 0)
    states: dict[tuple[str, int], dict[int, int]] = {start: {0: 1}}
    for _ in range(n):
        nxt: dict[tuple[str, int], dict[int, int]] = {}

        def _add(state: tuple[str, int], k: int, count: int) -> None:
            nxt.setdefault(state, {})
            nxt[state][k] = nxt[state].get(k, 0) + count

        for (kind, i), by_k in states.items():
            for k, count in by_k.items():
                if kind == "frac":
                    _add(("frac", i + 1), k + 1, count)
                    if i - 1 >= -floor:
                        _add(("frac", i - 1), k, count)
                    else:
                        _add(("int", 0), k, count)
                else:
                    _add(("int", i + 1), k + 1, count)
                    _add(("int", max(i - 1, 0)), k, count)
        states = nxt
    out: dict[tuple[float, int], int] = {}
    j0_eff = floor + frac
    for (kind, i), by_k in states.items():
        level = j0_eff + i if kind == "frac" else float(i)
        for k, count in by_k.items():
            out[(level, k)] = out.get((level, k), 0) + count
    return out


def price_closed(market: MarketState, n: int, side: Side) -> float:
    """S_t (V1 - V2 + V3) summed over terminal levels, in O(n).

    Every weight comes from one row pmf(i) = C(n, i) w^i (1-w)^{n-i},
    i = 0..n, with w = q_adj for calls and 1 - q_adj for puts, and
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
    """
    par = tree_params(market, n, side)
    s = par.s
    floor = par.j0_floor
    w_up = par.q_adj if side == "call" else 1.0 - par.q_adj
    sign = -1.0 if side == "call" else 1.0  # payoff = sign * expm1(sign * level * s)
    log_pmf = _binom_pmf_log_vec(np.arange(n + 1, dtype=np.int64), _pmf_consts(n, w_up))

    # k below n - (n+f)/2 cannot stay unabsorbed; for j0 > n no path is
    # ever absorbed and every k >= 0 is plain binomial
    k_min = max(n - (n + floor) // 2, 0)
    levels = par.j0 + 2.0 * np.arange(k_min, n + 1) - n
    payoffs = sign * np.expm1(sign * levels * s)
    v1 = math.fsum((payoffs * np.exp(log_pmf[k_min:])).tolist())

    n_inner = n - floor - 1  # top absorbed level; negative when j0 >= n
    if n_inner < 0:
        return market.spot * v1

    # log(w / (1 - w)) from the exact 2w - 1, so rho matches the pmf row
    log_rho = math.log1p((2.0 * w_up - 1.0) / (1.0 - w_up))
    reflected = np.exp(log_pmf[k_min + floor + 1:] - (floor + 1) * log_rho)
    v2 = math.fsum((payoffs[: reflected.size] * reflected).tolist())

    i = np.arange(n_inner // 2 + 1)
    log_ratio = np.log((n - 2 * i + 1) / (n - i + 1))
    log_prefix = np.logaddexp.accumulate(log_pmf[: i.size] + log_ratio)
    j = np.arange(n_inner + 1)
    rows = np.exp(j * log_rho + log_prefix[(n_inner + j) // 2 - j])
    v3 = math.fsum((sign * np.expm1(sign * j * s) * rows).tolist())
    return market.spot * (v1 - v2 + v3)


def price_closed_reduced(market: MarketState, n: int, side: Side) -> float:
    """Same value as ``price_closed`` via binomial CDFs.

    One arrangement serves both sides.  With up weight w (q_adj for
    calls, 1 - q_adj for puts), w' the matching p_up or 1 - p_up,
    rho = w/(1-w), rho' = w'/(1-w'), c = u^sign and payoff
    sign (c^level - 1) (sign = -1 for calls, +1 for puts), V1 and V2 are
    upper-CDF differences in w and w' at the split indices
    j1 = n - floor((n + j0_floor)/2) and j2 = j1 + j0_floor + 1.  The V3
    double sum telescopes into coef Bin_{1-w'}(j3) + extra
    - rho^{-(j0_floor+1)} Bin_{1-w}(j3) at j3 = j1 - 1, plus a parity-edge
    pmf term when n - j0_floor - 1 is even.  For r > 0 the geometric
    ratios rho and rho c give coef, and extra is a multiple of Bin_w(j3).
    At r = 0, where rho c = 1, k C(n,k) = n C(n-1,k-1) and, with
    p = 1 - w', Bin_{n-1,p}(j3-1) = Bin_{n,p}(j3) - ((n-j3)/n) pmf_{n,p}(j3)
    turn n_inner Bin_{n,p}(j3) - 2np Bin_{n-1,p}(j3-1) into
    (n_inner - 2np) Bin_{n,p}(j3) + 2p(n - j3) pmf_{n,p}(j3).  ``side``
    picks only the scalars and the rate only coef and extra; each scalar
    keeps the form that is exact for its side (for a put, rho - 1 =
    -Qm1/Q and rho c - 1 = uWm1; for a call, Qm1 and Qdm1).

    Seven CDFs (six at r = 0) of O(sqrt(n)) time each (see
    ``binom_cdf_exact``) go to one ``binom_cdfs`` call, which evaluates
    their first chunks in shared pmf kernel calls of at most 4,096
    entries: on the table markets one call up to n = 5000, where every
    sum ends in its first chunk, and a call per CDF from n = 1.2e5 on.
    The pmf terms are scalar ``binom_pmf`` calls.  Against
    ``price_closed`` on the table markets at n = 1e4, 1e5 and 1e6 the
    result stays within 3.1e-14 relative on T1, 2.5e-13 on T3, 3.9e-14
    on T2 and 1.2e-13 on T4.

    Branch dispatch is on rate == 0.0 exactly, never an epsilon: the two
    cases are distinct exact formulas and their r -> 0 continuity is a
    tested property.  The r > 0 rearrangement is consequently
    ill-conditioned for small rates (absolute error ~ eps sigma^2 spot /
    (2 r)): against backward induction at n = 500 the relative error of
    the T1 call is 6.2e-14 at r = 1e-4, 4.2e-12 at 1e-5, 3.9e-11 at 1e-6
    and 1.1e-8 at 1e-8, and of the T3 put 1.4e-13, 4.4e-12, 6.1e-11 and
    1.6e-8.
    """
    par = tree_params(market, n, side)
    spot = market.spot
    floor = par.j0_floor
    q, p = par.q_adj, par.p_up
    disc = math.exp(-market.rate * market.tau)
    # w_c = 1 - w, wp_c = 1 - w', rho_m1 = rho - 1, rc_m1 = rho c - 1
    if side == "call":
        sign, w, w_c, wp, wp_c = -1.0, q, 1.0 - q, p, 1.0 - p
        log_rho, log_rho_p = math.log1p(par.Qm1), math.log1p(par.Pm1)
        rho, rho_m1, rc_m1 = par.Q, par.Qm1, par.Qdm1
        c, c_inv, cm1, one_m_cinv = par.d, par.u, math.expm1(-par.s), -par.um1
    else:
        sign, w, w_c, wp, wp_c = 1.0, 1.0 - q, q, 1.0 - p, p
        log_rho, log_rho_p = -math.log1p(par.Qm1), -math.log1p(par.Pm1)
        rho, rho_m1, rc_m1 = 1.0 / par.Q, -(par.Qm1 / par.Q), par.uWm1
        c, c_inv, cm1, one_m_cinv = par.u, par.d, par.um1, 1.0 - par.d
    j1 = n - (n + floor) // 2
    j2 = j1 + floor + 1
    j3 = j1 - 1
    n_inner = n - floor - 1
    specs = [(n, wp, j1 - 1, True), (n, w, j1 - 1, True)]
    if n_inner >= 0:
        specs += [(n, wp, j2 - 1, True), (n, w, j2 - 1, True),
                  (n, wp_c, j3, False), (n, w_c, j3, False)]
        if market.rate != 0.0:
            specs.append((n, w, j3, False))
    cdf = binom_cdfs(specs)
    # extremum/spot as c^{j0}: consistent with the snapped level
    ms_disc = math.exp(sign * par.j0 * par.s) * disc
    v1 = sign * (ms_disc * cdf[0] - cdf[1])
    if n_inner < 0:
        return spot * v1
    v2 = sign * (ms_disc * math.exp(-(floor + 1) * log_rho_p) * cdf[2]
                 - math.exp(-(floor + 1) * log_rho) * cdf[3])
    # parity edge term: the top absorbed level is reached only when
    # n - floor - 1 and the step count share parity
    edge = one_m_cinv * binom_pmf(n, w, j3) if n_inner % 2 == 0 else 0.0
    if market.rate == 0.0:
        # k C(n,k) = n C(n-1,k-1) and Bin_{n-1}(j3-1) = Bin_n(j3) - (n-j3)/n pmf_n(j3)
        coef = one_m_cinv * (n_inner - 2.0 * n * wp_c) + c_inv
        extra = one_m_cinv * 2.0 * wp_c * (n - j3) * binom_pmf(n, wp_c, j3)
    else:
        c_a = rho * (c * rc_m1 + cm1) / rc_m1  # rho (rho c^2 - 1) / (rho c - 1)
        coef = disc * c_a * math.exp(-(floor + 2) * math.log1p(rc_m1))
        extra = (rho_m1 / rc_m1 - 1.0) * cdf[6]
    v3 = coef * cdf[4] + extra - math.exp(-(floor + 1) * log_rho) * cdf[5] + edge
    return spot * (v1 - v2 + sign * v3)


def _interior_step(
    col: np.ndarray, out: np.ndarray, w_up: float, w_dn: float, scratch: np.ndarray
) -> None:
    """out[1:-1] = w_up col[2:] + w_dn col[:-2], with no temporary."""
    np.multiply(col[2:], w_up, out=out[1:-1])
    np.multiply(col[:-2], w_dn, out=scratch)
    out[1:-1] += scratch


def price_backward_induction(market: MarketState, n: int, side: Side) -> float:
    """Risk-neutral backward induction on the level lattice.

    Two value columns evolve together: F over fractional levels
    {j0_frac + g} and G over integer levels {g}, both for g in the band
    [max(0, floor - n), floor + n]: only levels within n steps of the
    start floor + j0_frac can reach it, so the band holds at most
    2n + 1 cells whatever the level.  A cell at either edge of the band
    is left stale, and a stale value travels one cell per step, so it
    never reaches the start within n steps.  When the band reaches
    level 0, a down move from the lowest fractional level lands on
    integer 0, coupling F to G, and integer levels reflect at 0.  Up
    weight is q_adj for calls and 1 - q_adj for puts.  No
    per-step discounting: the adjusted weights already price relative to
    the spot numeraire (q_adj + (1 - q_adj) = 1 absorbs e^{-r tau/n}),
    so the price is simply spot times the start-level expectation.
    """
    if n > TREE_MAX_N:
        raise BudgetError(
            f"price_backward_induction is limited to n <= {TREE_MAX_N}, got {n}"
        )
    par = tree_params(market, n, side)
    s = par.s
    floor, frac = par.j0_floor, par.j0_frac
    w_up = par.q_adj if side == "call" else 1.0 - par.q_adj
    w_dn = 1.0 - w_up
    lo = max(0, floor - n)  # lowest level that can reach the start
    sign = -1.0 if side == "call" else 1.0

    int_levels = np.arange(lo, floor + n + 1, dtype=np.float64)
    g = sign * np.expm1(sign * int_levels * s)
    has_frac = frac > 0.0
    if has_frac:
        f_col = sign * np.expm1(sign * (frac + int_levels) * s)

    # Two columns per level set take turns as source and target, so the
    # loop allocates nothing: fresh per-step temporaries land on whatever
    # alignment malloc gives them, and their speed varied by 1.6x with it.
    g_new = np.empty_like(g)
    scratch = np.empty(g.size - 2)
    if has_frac:
        f_new = np.empty_like(f_col)
    for _ in range(n):
        g_new[0] = w_up * g[1] + w_dn * g[0] if lo == 0 else g[0]
        _interior_step(g, g_new, w_up, w_dn, scratch)
        g_new[-1] = g[-1]  # stale top cell, never reachable from the start
        if has_frac:
            f_new[0] = w_up * f_col[1] + w_dn * g[0] if lo == 0 else f_col[0]
            _interior_step(f_col, f_new, w_up, w_dn, scratch)
            f_new[-1] = f_col[-1]
            f_col, f_new = f_new, f_col
        g, g_new = g_new, g

    start_value = f_col[floor - lo] if has_frac else g[floor - lo]
    return market.spot * float(start_value)
