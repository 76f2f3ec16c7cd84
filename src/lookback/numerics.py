"""Numerical foundation: standard normal CDF and stable binomial pmf/CDF
at large n.

Accuracy targets.  Phi carries absolute error <= 1e-15 so that O(n^-5/2)
CDF corrections are never dominated by the normal CDF itself.  The
binomial pmf is evaluated in log space through the Stirling-error
decomposition

    log pmf(n, p, k) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                       - bd0(k, np) - bd0(n-k, n(1-p))
                       + log(n / (2 pi k (n-k))) / 2,

where stirlerr(x) = log(x!) - log(sqrt(2 pi x) (x/e)^x) and
bd0(x, m) = x log(x/m) + m - x is summed by a cancellation-free series
when x is close to m.  This keeps relative error near 1e-15 for n up to
1e6, where a plain lgamma difference loses ~5 digits.

The binomial CDFs sum O(sqrt(n)) of these terms, not O(n).  A sum starts
at its inner end, or at the edge of the bulk window
[np - 12 sd - 10, np + 12 sd + 10] if that end lies beyond it, and walks
toward its tail until a geometric bound puts everything left below
2^-60 of the partial sum.  Clipping both ends to the window would not
do: just inside its edge a sum that is all tail loses relative accuracy
(10% at n = 3000, p = 1/2, j = 1165).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "binom_pmf_log",
    "binom_pmf",
    "binom_cdf_exact",
    "binom_cdf_complement",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# CDF kernel: the bulk window's half-width in standard deviations plus a
# pad, and the relative size below which a tail is left unsummed.
_WINDOW_SD = 12.0
_WINDOW_PAD = 10.0
_TAIL_REL = 2.0**-60

# stirlerr(k) for k = 0..29, computed once in 50-digit arithmetic and frozen;
# the series below is only reliable from k = 30 upward.
_STIRLERR_TABLE = np.array([
    0.0,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
    0.0052076559196096404, 0.004901395948434738, 0.004629153749334028,
    0.004385560249232324, 0.004166319691996922, 0.00396795421864086,
    0.0037876180684444346, 0.0036229602246830948, 0.003472021382978767,
    0.003333155636728093, 0.003204970228055038, 0.0030862786826087773,
    0.002976063983550409, 0.0028734493623524663,
])

def std_normal_cdf(y: float) -> float:
    """Phi(y), the standard normal CDF, via the complementary error function.

    Branches on the sign of y so that Phi(y) + Phi(-y) = 1 holds exactly in
    floating point: both signs evaluate the same erfc call and the identity
    reduces to (1 - x) + x.
    """
    if not math.isfinite(y):
        raise DomainError(f"std_normal_cdf requires finite y, got {y}")
    if y >= 0.0:
        return 1.0 - 0.5 * math.erfc(y / _SQRT_2)
    return 0.5 * math.erfc(-y / _SQRT_2)


def std_normal_pdf(y: float) -> float:
    """phi(y) = e^{-y^2/2} / sqrt(2 pi)."""
    return math.exp(-0.5 * y * y) / _SQRT_2PI


def _stirlerr_series(x: float | np.ndarray) -> float | np.ndarray:
    """stirlerr(x) for x >= 30 by its asymptotic series."""
    x2 = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * x2)) / x2) / x2) / x2) / x


def _stirlerr(k: float) -> float:
    if k < 30:
        return float(_STIRLERR_TABLE[int(k)])
    return _stirlerr_series(k)


def _bd0_series(
    x: float | np.ndarray, m: float, v: float | np.ndarray, terms: int
) -> float | np.ndarray:
    """(x - m) v + sum_{j=1}^{terms} 2 x v^{2j+1} / (2j + 1), the near-branch
    series of bd0 with v = (x - m)/(x + m)."""
    s = (x - m) * v
    ej = 2.0 * x * v
    v2 = v * v
    for j in range(1, terms + 1):
        ej = ej * v2
        s = s + ej / (2 * j + 1)
    return s


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by series when x is near m to avoid cancellation."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        return _bd0_series(x, m, v, _bd0_series_terms(abs(v)))
    return x * math.log(x / m) + m - x


def _check_binom_args(n: int, p: float, k: int | None = None) -> None:
    if n < 0:
        raise DomainError(f"n must be a natural number, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly inside (0, 1), got {p}")
    if k is not None and not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")


def binom_pmf_log(n: int, p: float, k: int) -> float:
    """log[ C(n,k) p^k (1-p)^{n-k} ]."""
    _check_binom_args(n, p, k)
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    kf = float(k)
    nf = float(n)
    return (
        _stirlerr(nf) - _stirlerr(kf) - _stirlerr(nf - kf)
        - _bd0(kf, nf * p) - _bd0(nf - kf, nf * (1.0 - p))
        + 0.5 * math.log(nf / (2.0 * math.pi * kf * (nf - kf)))
    )


def binom_pmf(n: int, p: float, k: int) -> float:
    """C(n,k) p^k (1-p)^{n-k}; zero outside 0 <= k <= n."""
    _check_binom_args(n, p)
    if k < 0 or k > n:
        return 0.0
    return math.exp(binom_pmf_log(n, p, k))


def _stirlerr_vec(ks: np.ndarray) -> np.ndarray:
    out = np.empty_like(ks)
    small = ks < 30
    out[small] = _STIRLERR_TABLE[ks[small].astype(np.int64)]
    big = ~small
    if big.any():
        out[big] = _stirlerr_series(ks[big])
    return out


def _bd0_series_terms(v_max: float) -> int:
    """Terms of the bd0 series that settle every entry with |v| <= v_max.

    Relative to the leading (x - m) v, term j is at most
    1.1 |v|^{2j-1} / (2j + 1) on the near branch (|v| < 0.1), and the
    partial sums stay above 0.96 of the leading term.  Once that bound is
    below 2^-56 the term is under half an ulp of the partial sum, and so
    is every later, smaller term; the result is the same as iterating
    until no entry changes.  |v| < 0.1 needs at most 9 terms.
    """
    terms = 1
    while 1.1 * v_max ** (2 * terms - 1) / (2 * terms + 1) > 2.0**-56:
        terms += 1
    return terms


def _bd0_vec(xs: np.ndarray, m: float) -> np.ndarray:
    out = np.empty_like(xs)
    near = np.abs(xs - m) < 0.1 * (xs + m)
    far = ~near
    if far.any():
        xf = xs[far]
        out[far] = xf * np.log(xf / m) + m - xf
    if near.any():
        x = xs[near]
        v = (x - m) / (x + m)
        out[near] = _bd0_series(x, m, v, _bd0_series_terms(float(np.max(np.abs(v)))))
    return out


def _binom_pmf_log_vec(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """Vectorized binom_pmf_log over an int64 array with entries in [0, n]."""
    out = np.empty(ks.shape, dtype=np.float64)
    lo = ks == 0
    hi = ks == n
    mid = ~(lo | hi)
    out[lo] = n * math.log1p(-p)
    out[hi] = n * math.log(p)
    if mid.any():
        k = ks[mid].astype(np.float64)
        nf = float(n)
        out[mid] = (
            _stirlerr(nf) - _stirlerr_vec(k) - _stirlerr_vec(nf - k)
            - _bd0_vec(k, nf * p) - _bd0_vec(nf - k, nf * (1.0 - p))
            + 0.5 * np.log(nf / (2.0 * np.pi * k * (nf - k)))
        )
    return out


def _half_window(n: int, p: float) -> float:
    """12 sd + 10: half the width of the bulk window around np."""
    return _WINDOW_SD * math.sqrt(n * p * (1.0 - p)) + _WINDOW_PAD


def _bulk_window(n: int, p: float) -> tuple[int, int]:
    """[np - 12 sd - 10, np + 12 sd + 10] clipped to [0, n].

    The pad covers small n p (1 - p), where the tails are Poisson-like.
    For n up to 1e5 and p from 1e-6 to 1 - 1e-4 the mass outside is at
    most 6e-25, far under half an ulp of a sum that holds the window.
    """
    mean = n * p
    half = _half_window(n, p)
    return max(0, math.floor(mean - half)), min(n, math.ceil(mean + half))


def _tail_sum(n: int, p: float, start: int, step: int) -> float:
    """fsum of pmf(n, p, k) for k = start, start + step, ... toward the tail.

    The walk runs in chunks of half the bulk window and stops at the end
    of the support or after a chunk whose last index a leaves a tail that
    cannot reach 2^-60 of the partial sum.  The step ratio
    r_k = pmf(k + step) / pmf(k) is k (1-p) / ((n-k+1) p) going down and
    (n-k) p / ((k+1) (1-p)) going up.  The first grows with k and the
    second shrinks, so along either walk r_k never increases: once
    r_a < 1, every later ratio is at most r_a and the unsummed tail is at
    most the geometric series t_a (r_a + r_a^2 + ...) = t_a r_a / (1 - r_a).
    """
    chunk = math.ceil(_half_window(n, p))
    end = -1 if step < 0 else n + 1
    pieces = []
    partial = 0.0
    k = start
    while k != end:
        stop = max(k - chunk, end) if step < 0 else min(k + chunk, end)
        ks = np.arange(k, stop, step, dtype=np.int64)
        terms = np.exp(_binom_pmf_log_vec(n, p, ks))
        pieces.append(terms)
        partial += float(terms.sum())
        a = stop - step
        if step < 0:
            ratio = a * (1.0 - p) / ((n - a + 1) * p)
        else:
            ratio = (n - a) * p / ((a + 1) * (1.0 - p))
        if ratio < 1.0 and terms[-1] * ratio <= _TAIL_REL * partial * (1.0 - ratio):
            break
        k = stop
    return math.fsum(np.concatenate(pieces).tolist())


def binom_cdf_exact(n: int, p: float, j: int) -> float:
    """Bin_{n,p}(j) = sum_{k=0}^{min(j,n)} C(n,k) p^k (1-p)^{n-k}.

    0 for j < 0 and 1 for j >= n.  The sum starts at j (at the bulk
    window's upper edge if j lies above it) and walks down with the tail
    rule of ``_tail_sum``, so it costs O(sd) = O(sqrt(n)) pmf terms rather
    than O(j), with relative error near 1e-15 in either tail.
    """
    _check_binom_args(n, p)
    if j < 0:
        return 0.0
    if j >= n:
        return 1.0
    return min(_tail_sum(n, p, min(j, _bulk_window(n, p)[1]), -1), 1.0)


def binom_cdf_complement(n: int, p: float, j: int) -> float:
    """sum_{k=j+1}^n C(n,k) p^k (1-p)^{n-k} = 1 - Bin_{n,p}(j), summed directly
    so the upper tail does not inherit cancellation from the lower sum.

    The mirror of ``binom_cdf_exact``: the sum starts at j + 1 (at the bulk
    window's lower edge if j + 1 lies below it) and walks up under the
    same tail rule, O(sqrt(n)) pmf terms.
    """
    _check_binom_args(n, p)
    if j < 0:
        return 1.0
    if j >= n:
        return 0.0
    return min(_tail_sum(n, p, max(j + 1, _bulk_window(n, p)[0]), 1), 1.0)
