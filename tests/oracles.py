"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exact rational arithmetic via
fractions.Fraction and math.comb, 40-digit mpmath sums, and an exhaustive
walk of the level process that tallies every one of the 2^n up/down
words by endpoint.  None of it shares code with the package under test,
with two exceptions.  ``expansion_coeffs_at_emission`` is a
specialisation check, not an independent evaluation.  It shares
``d_values``, Phi and ``bs_price`` with the package and rewrites only
the c1 and c2 algebra at spot = extremum.  ``dense_backward_induction``
shares ``tree_params`` and the terminal payoffs with the package, so
that comparing it with the package's tree tests only the stepping.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from lookback import MarketState, PriceExpansion, Side, bs_price, d_values, tree_params
from lookback.lattice import _payoffs
from lookback.numerics import std_normal_cdf, std_normal_pdf

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def binom_pmf_exact(n: int, p: float, k: int) -> Fraction:
    """C(n,k) p^k (1-p)^(n-k) as an exact rational.

    Fraction(p) is the exact binary value of the float, so the result is
    the infinitely precise pmf for the same arguments the package sees.
    """
    pf = Fraction(p)
    return math.comb(n, k) * pf**k * (1 - pf) ** (n - k)


def binom_cdf_lower_exact(n: int, p: float, j: int) -> Fraction:
    """Sum_{k=0}^{j} C(n,k) p^k (1-p)^(n-k), exactly."""
    if j < 0:
        return Fraction(0)
    j = min(j, n)
    return sum(binom_pmf_exact(n, p, k) for k in range(j + 1))


def binom_cdf_upper_exact(n: int, p: float, j: int) -> Fraction:
    """Sum_{k=j+1}^{n} C(n,k) p^k (1-p)^(n-k), exactly."""
    if j >= n:
        return Fraction(0)
    lo = max(j + 1, 0)
    return sum(binom_pmf_exact(n, p, k) for k in range(lo, n + 1))


def binom_tail_mp(n: int, p: float, j: int, lower: bool) -> mp.mpf:
    """P(X <= j) if lower else P(X > j), X ~ Bin(n, p), in 40 digits.

    Sums outward from the tail's inner end (j, or j + 1 for the upper
    tail) and stops once a term falls below 1e-40 of the running total;
    meant for a tail that lies beyond the mode, where the terms fall
    geometrically.
    """
    with mp.workdps(40):
        pm = mp.mpf(p)
        k = j if lower else j + 1
        term = mp.binomial(n, k) * pm**k * (1 - pm) ** (n - k)
        total = term
        while 0 < k < n and term > total * mp.mpf(10) ** -40:
            if lower:
                term *= k * (1 - pm) / ((n - k + 1) * pm)
                k -= 1
            else:
                term *= (n - k) * pm / ((k + 1) * (1 - pm))
                k += 1
            total += term
        return +total


def lattice_ratios_mp(sigma: float, rate: float, tau: float, n: int) -> dict[str, mp.mpf]:
    """Q and the vanishing combinations of Q and P, straight from the
    definitions in 50 digits.

    u = e^s with s = sigma sqrt(tau/n), d = 1/u, p = (e^{r tau/n} - d)/(u - d),
    q = p u e^{-r tau/n}; Q = q/(1-q), P = p/(1-p), and the two
    differences P - 1 and Q d - 1 taken directly, which 50 digits
    afford.  A negative sigma gives a put's lattice, stepped by -|s|.
    """
    with mp.workdps(50):
        dt = mp.mpf(tau) / n
        s = mp.mpf(sigma) * mp.sqrt(dt)
        u, d = mp.exp(s), mp.exp(-s)
        growth = mp.exp(mp.mpf(rate) * dt)
        p = (growth - d) / (u - d)
        q = p * u / growth
        big_q, big_p = q / (1 - q), p / (1 - p)
        return {"Q": big_q, "Pm1": big_p - 1, "Qdm1": big_q * d - 1}


def _bs_terms_mp(s, m, sig, r, t, side):
    """d_1..d_4 and B_1..B_3 in the working precision, flip = 1 for puts."""
    st = sig * mp.sqrt(t)
    d1 = (mp.log(s / m) + (r + sig**2 / 2) * t) / st
    d3 = -d1 + (2 * r / sig) * mp.sqrt(t)
    disc = mp.exp(-r * t)
    flip = 1 if side == "put" else -1
    b1 = mp.ncdf(flip * d1)
    b2 = disc * mp.ncdf(-flip * (d1 - st))
    b3 = disc * (s / m) ** (-2 * r / sig**2) * mp.ncdf(-flip * d3)
    return st, d1, d3 + st, b1, b2, b3


def bs_price_mp(
    spot: float, extremum: float, sigma: float, rate: float, tau: float, side: str,
) -> mp.mpf:
    """The continuous price of ``continuous.bs_price`` in 50 digits, every
    term formed as written, with flip = 1 for puts, -1 for calls:

        B1 = Phi(flip d1),  B2 = e^{-r tau} Phi(-flip d2),
        B3 = e^{-r tau} (S/M)^{-2r/sigma^2} Phi(-flip d3).

    For r > 0 the Goldman-Sosin-Gatto form, theta_1 = 1 + sigma^2/2r,
    theta_2 = 1 - sigma^2/2r:

        call = S - S theta_1 B1 - M B2 + S (1 - theta_2) B3,  put = -call;

    at r = 0 the Babbs (2000) form, B3* = (log(S/M) + sigma^2 tau/2) B1,
    B4* = sigma sqrt(tau) phi(d1):

        call = S - S B1 - M B2 - S (B3* - B4*),
        put = -S + S B1 + M B2 + S (B3* + B4*).
    """
    with mp.workdps(50):
        s, m, sig, r, t = (mp.mpf(x) for x in (spot, extremum, sigma, rate, tau))
        st, d1, _, b1, b2, b3 = _bs_terms_mp(s, m, sig, r, t, side)
        flip = 1 if side == "put" else -1
        if r == 0:
            b3_star = (mp.log(s / m) + sig**2 * t / 2) * b1
            b4_star = st * mp.npdf(d1)
            call = s - s * b1 - m * b2 - s * (b3_star + flip * b4_star)
        else:
            theta1, theta2 = 1 + sig**2 / (2 * r), 1 - sig**2 / (2 * r)
            call = s - s * theta1 * b1 - m * b2 + s * (1 - theta2) * b3
        return call if side == "call" else -call


def expansion_coeffs_mp(
    spot: float, extremum: float, sigma: float, rate: float, tau: float, side: str,
) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(c1, a, b) of ``asymptotics.expansion_coeffs`` in 50 digits, with
    c2(kappa) = a + b kappa, every term formed as the module docstring
    writes it before the pole is removed.  For r > 0:

        c1 = -S (sigma sqrt(tau)/2) (theta_1 B1 + theta_2 B3),
        bracket = S (sigma^2 tau/12) ((theta_1+2) B1 + (theta_2+2-T_1) B3)
                  -+ M T_2 B4,

    T_1, T_2 and B4 as there.  At r = 0 the Babbs (2000) form:

        c1 = -S (sigma sqrt(tau)/2) (2 B1 + B3* -+ B4*),
        bracket = S (sigma^2 tau/6) ((3 + 3 kappa - sigma^2 tau/4) B1 + B3*)
                  -+ S T_2* B4*,
        T_2* = 1/2 + kappa + sigma^2 tau/12 - (d2 / (6 sigma sqrt(tau))) log(S/M).

    The bracket enters c2 with sign -1 for calls and +1 for puts.
    """
    with mp.workdps(50):
        s, m, sig, r, t = (mp.mpf(x) for x in (spot, extremum, sigma, rate, tau))
        st, d1, d4, b1, _, b3 = _bs_terms_mp(s, m, sig, r, t, side)
        lsm = mp.log(s / m)
        sgn = -1 if side == "call" else 1
        if r == 0:
            b3_star = (lsm + sig**2 * t / 2) * b1
            b4_star = st * mp.npdf(d1)
            c1 = -s * (st / 2) * (2 * b1 + b3_star + sgn * b4_star)
            base = s * sig**2 * t / 6
            t2_const = mp.mpf(1) / 2 + sig**2 * t / 12 - (d1 - st) * lsm / (6 * st)
            a = sgn * base * ((3 - sig**2 * t / 4) * b1 + b3_star) + s * t2_const * b4_star
            b = sgn * base * 3 * b1 + s * b4_star
            return c1, a, b
        theta1, theta2 = 1 + sig**2 / (2 * r), 1 - sig**2 / (2 * r)
        c1 = -s * (st / 2) * (theta1 * b1 + theta2 * b3)
        b4 = st * (s / m) ** ((1 - 2 * r / sig**2) / 2) * mp.exp(-(d1**2 + d4**2) / 4) / mp.sqrt(2 * mp.pi)
        base = s * sig**2 * t / 12
        t1_const = -(1 + 4 * r**2 / sig**4) * lsm
        t1_kappa = 12 * r / sig**2 * theta2
        t2_const = mp.mpf(1) / 2 + d4 * lsm / (6 * st)
        a = sgn * base * ((theta1 + 2) * b1 + (theta2 + 2 - t1_const) * b3) + m * t2_const * b4
        b = -sgn * base * t1_kappa * b3 + m * b4
        return c1, a, b


def closed_sum_mp(
    spot: float, n: int, up_weight: float, j0: float, j0_floor: int,
    step: float, side: str,
) -> mp.mpf:
    """S (V1 - V2 + V3) of the Cheuk-Vorst closed formula in 40 digits.

    Takes the lattice's float inputs as given: the up weight w (the
    tree's w_up), the snapped start level j0 with its floor f, and the
    log step s = |TreeParams.s|.  Payoff at level x is 1 - e^{-x s} (call) or
    e^{x s} - 1 (put); C(n, k) and w^k (1-w)^{n-k} come from their
    multiplicative recurrences, and the count difference
    C(n, i) - C(n, i-1) of an absorbed path is taken literally.

        V1 = sum_{k >= k_min} payoff(j0 + 2k - n) C(n, k) w^k (1-w)^{n-k}
        V2 = sum_{k_min <= k <= n-f-1} payoff(j0 + 2k - n) C(n, k+f+1) w^k (1-w)^{n-k}
        V3 = sum_{j=0}^{n-f-1} payoff(j) sum_{k=j}^{(n-f-1+j)//2}
             [C(n, k-j) - C(n, k-j-1)] w^k (1-w)^{n-k}

    with k_min = max(n - (n + f)//2, 0).  V3's inner sum is grouped by
    i = k - j as (w/(1-w))^j sum_{i <= top_j} [C(n,i) - C(n,i-1)]
    w^i (1-w)^{n-i}, which makes the oracle O(n) without changing a term.
    """
    with mp.workdps(40):
        w = mp.mpf(up_weight)
        one_m_w = 1 - w
        lvl0, s = mp.mpf(j0), mp.mpf(step)

        def payoff(level):
            if side == "call":
                return 1 - mp.exp(-level * s)
            return mp.exp(level * s) - 1

        comb = [mp.mpf(1)]
        for k in range(n):
            comb.append(comb[-1] * (n - k) / (k + 1))
        weight = [one_m_w**n]  # w^k (1-w)^{n-k}
        rho = w / one_m_w
        for k in range(n):
            weight.append(weight[-1] * rho)
        f = j0_floor
        k_min = max(n - (n + f) // 2, 0)
        v1 = mp.fsum(payoff(lvl0 + 2 * k - n) * comb[k] * weight[k]
                     for k in range(k_min, n + 1))
        n_inner = n - f - 1
        if n_inner < 0:
            return spot * v1
        v2 = mp.fsum(payoff(lvl0 + 2 * k - n) * comb[k + f + 1] * weight[k]
                     for k in range(k_min, n - f))
        prefix, acc = [], mp.mpf(0)
        for i in range(n_inner // 2 + 1):
            acc += (comb[i] - (comb[i - 1] if i else 0)) * weight[i]
            prefix.append(acc)
        v3 = mp.fsum(payoff(j) * rho**j * prefix[(n_inner + j) // 2 - j]
                     for j in range(n_inner + 1))
        return spot * (v1 - v2 + v3)


def walk_level_paths(j0: Fraction, n: int) -> dict[tuple[Fraction, int], int]:
    """Count all 2^n up/down paths of the level process by endpoint.

    The level starts at j0 >= 0, moves to level+1 on an up step and to
    max(level-1, 0) on a down step.  Returns {(final_level, ups): count}.
    The words are tallied one step at a time: a {(level, ups): count}
    table is carried forward, so every word is counted once without
    being listed, in O(n^3) rather than O(2^n) time.  Exact Fraction
    arithmetic keeps fractional starts unambiguous.
    """
    if n < 0 or j0 < 0:
        raise ValueError("need n >= 0 and j0 >= 0")
    counts: dict[tuple[Fraction, int], int] = {(j0, 0): 1}
    for _ in range(n):
        stepped: dict[tuple[Fraction, int], int] = {}
        for (level, ups), count in counts.items():
            for key in ((level + 1, ups + 1), (max(level - 1, Fraction(0)), ups)):
                stepped[key] = stepped.get(key, 0) + count
        counts = stepped
    return counts


def dense_backward_induction(market: MarketState, n: int, side: Side) -> float:
    """Backward induction over every level from 0 up, in plain floats.

    The integer column G and the fractional column F (levels j0_frac + g)
    are Python lists over all levels 0 .. f + t at time t, f = j0_floor;
    no cell is left out for being out of reach of the start.  Each cell
    becomes w_up * (value above) + w_dn * (value below), where below 0 a
    G cell stays at G_0 and an F cell is absorbed into G_0.  An integer
    start reads G, a fractional one F.  The cells hold the call's payoffs
    on the lattice's signed step, and the price is sign(s) times the
    start's value, as in ``price_backward_induction``.
    """
    par = tree_params(market, n, side)
    w_up, w_dn = par.w_up, par.w_dn
    levels = np.arange(par.j0_floor + n + 1, dtype=np.float64)
    g = _payoffs(levels, par.s).tolist()
    f = _payoffs(par.j0_frac + levels, par.s).tolist()
    for _ in range(n):
        f = [w_up * f[1] + w_dn * g[0]] + [w_up * f[i + 1] + w_dn * f[i - 1]
                                           for i in range(1, len(f) - 1)]
        g = [w_up * g[1] + w_dn * g[0]] + [w_up * g[i + 1] + w_dn * g[i - 1]
                                           for i in range(1, len(g) - 1)]
    return math.copysign(market.spot, par.s) * (f if par.j0_frac > 0.0 else g)[par.j0_floor]


def walk_price(
    spot: float,
    j0: Fraction,
    n: int,
    up_weight: float,
    step: float,
    side: str,
) -> float:
    """Brute-force lookback price: spot * E[payoff(final level)].

    Expectation under iid Bernoulli(up_weight) steps of the same level
    process as walk_level_paths; payoff is 1 - u^(-level) for a call and
    u^(level) - 1 for a put, with u = e^step.  No discounting: the
    weights are assumed to absorb it already.
    """
    acc = 0.0
    for (level, ups), count in walk_level_paths(j0, n).items():
        prob = count * up_weight**ups * (1.0 - up_weight) ** (n - ups)
        lvl = float(level)
        if side == "call":
            payoff = 1.0 - math.exp(-lvl * step)
        else:
            payoff = math.exp(lvl * step) - 1.0
        acc += prob * payoff
    return spot * acc


def expansion_coeffs_at_emission(
    spot: float, sigma: float, rate: float, tau: float, side: Side
) -> PriceExpansion:
    """Expansion at emission, where spot = extremum.

    With log(S/M) = 0 the starting level is j0 = 0 for every n, so
    kappa_n = 0 identically and the coefficients lose their n
    dependence: T_1 = 0, T_2 = 1/2, T_2* = 1/2 + sigma^2 tau/12, and
    B_4 = sigma sqrt(tau) e^{-(d_1^2 + d_4^2)/4} / sqrt(2 pi).  This is
    the specialization the general coefficients must collapse to.
    """
    market = MarketState(spot=spot, extremum=spot, sigma=sigma, rate=rate, tau=tau)
    st = sigma * math.sqrt(tau)
    d = d_values(market, side)
    flip = 1.0 if side == "put" else -1.0
    disc = math.exp(-rate * tau)

    b1 = std_normal_cdf(flip * d.d1)
    bracket_sign = -1.0 if side == "call" else 1.0
    if rate == 0.0:
        b3_star = 0.5 * sigma**2 * tau * b1
        b4_star = st * std_normal_pdf(d.d1)
        c1 = -spot * (st / 2.0) * (2.0 * b1 + b3_star + bracket_sign * b4_star)
        base = spot * sigma**2 * tau / 6.0
        t2_star = 0.5 + sigma**2 * tau / 12.0
        c2 = (bracket_sign * base * ((3.0 - sigma**2 * tau / 4.0) * b1 + b3_star)
              + spot * t2_star * b4_star)
    else:
        theta1 = 1.0 + sigma**2 / (2.0 * rate)
        theta2 = 1.0 - sigma**2 / (2.0 * rate)
        b3 = disc * std_normal_cdf(-flip * d.d3)
        b4 = st * math.exp(-0.25 * (d.d1**2 + d.d4**2)) / _SQRT_2PI
        c1 = -spot * (st / 2.0) * (theta1 * b1 + theta2 * b3)
        base = spot * sigma**2 * tau / 12.0
        c2 = (bracket_sign * base * ((theta1 + 2.0) * b1 + (theta2 + 2.0) * b3)
              + spot * 0.5 * b4)
    return PriceExpansion(c0=bs_price(market, side), c1=c1, c2_at=lambda n: c2)
