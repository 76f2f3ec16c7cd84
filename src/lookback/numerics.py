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
when x is close to m.  At the mean this keeps the relative error near
3e-16 for n up to 1e6 (3.0e-16 at n = 1e6, p = 1/2), where a plain
lgamma difference loses ~5 digits.  Away from the mean the error grows
to about z sd ulps at z sd out, because the means n p and n (1 - p) are
rounded to floats and bd0(x, m) moves by about (x - m) dm / m: 1.9e-13
at (n, p, k) = (578742, 0.5063, 296073) and 6.4e-13 at (960681, 0.4732,
458544), both about 8 sd out.  Carrying the means exactly is the
ROADMAP.md item "Binomial means carried exactly in the pmf kernel".

Every pmf the package evaluates comes from the one kernel
``_binom_pmf_log_vec``: ``binom_pmf_log`` is one entry of it and
``binom_pmf`` a one-spec ``binom_cdfs`` call, so a lone scalar call pays
its fixed numpy cost (0.1 to 0.2 ms on a 2-CPU x86 VM); many terms go to
``binom_cdfs`` together.

The binomial CDFs sum O(sqrt(n)) of these terms, not O(n).  Each sum
walks away from the mean n p on its short side.  A lower sum P(X <= j)
with j below the mean walks down from j, and an upper sum P(X > j)
with j + 1 above it walks up from j + 1.  A sum that holds the bulk
(a lower sum with j at or above the mean, an upper sum with j + 1 at
or below it) is one minus the other sum, which walks from j + 1 up or
from j down.  The binomial median is floor(np) or ceil(np), so that
other sum is at most about 1/2, and forming 1 - T rounds once, by at
most an ulp.  A walk stops once a geometric bound puts everything left
below 2^-60 of its partial sum.

Every chunk of a walk, first or later, is sized from the index where it
starts: to the index at which the pmf has fallen 2^-60 below the
chunk's first term, judged from the log pmf's slope at both ends of the
chunk (``_first_chunk``), and clipped to the walk's index range.  For a
start z sd past the mean that is about (sqrt(z^2 + 120 log 2) - z) sd
terms: 9.1 sd at the mean, 2.0 sd at z = 20.  Every walk of 2,222
random sums (n from 10 to 1e6, p from 1e-3 to 0.999, j within 30 sd),
of 3,588 sums at n p from 1 to 50, and of a grid of 51,700 sums at n
from 1 to 1e8 ended in its first chunk.  A walk that does not goes on
in later chunks sized the same way from their own first indices, so the
chunks of a walk that starts near the mean shrink as it goes out.  No
chunk is capped: its sizing parabola bounds it by about 4.6 sqrt(n)
terms (``_first_chunk``), and on a grid of n from 1 to 1e9, n p from
1e-3 to 100 and walks out to 40 sd none passes ceil(12 sd + 10).

A vectorised pmf call of a few hundred terms is mostly fixed numpy
cost, so ``binom_cdfs`` sums many CDFs from few kernel calls, and
evaluates each pmf entry of their first chunks once.  It checks every
spec first and keeps one small record per walk, with the walk's index
range and its first chunk as an interval of indices; a single term is
a walk over its one index.  It then sorts the records by (n, p, first
index) and sweeps them into segments: the intervals of one (n, p) that
overlap or touch merge into one.  A reduced price's two sums in w' are
taken at j1 - 1 and j1 + f, so at f = 0 their first chunks nearly
coincide, and each of its two pmf terms lies in or next to the first
chunk of a sum of the same (n, p).  Whole segments go, in that order,
into kernel calls, with the (n, p) constants of the kernel repeated
per entry, and each walk sums its own slice of its call's terms and
applies its tail rule.  The rare walk that goes on sums its later
chunks alone, one call per chunk.  As the records are sorted, the
order of the specs changes neither which entries are evaluated nor how
many kernel calls run.  A call's terms are released once it is summed,
so a spec list as long as a whole grid of reduced prices holds the
terms of one call at a time, besides the records.  A call over two or
more segments holds at most 4,096 entries: one merged call over
7 x 6,000 entries takes 3.1 ms against 1.7 ms for seven separate calls
(2-CPU x86 VM, n = 1e6), as its temporaries spill out of L2.  A lone
segment may pass the cap, as splitting it would evaluate its shared
entries twice.

A walk sums its slice through a ``memoryview``, from its start
outward, so a down walk reads its slice reversed.  ``fsum`` over a
memoryview slice costs about 20 ns an entry against 35 ns after
``tolist``, and on falling terms about a third of what it costs on the
same terms rising (72 against 220 us for 4,500 terms).  ``fsum`` rounds
the exact sum once whatever the order, so the order changes only the
cost, and each sum adds the same terms whatever it shares a segment
with: the packed and one-at-a-time results are the same bit for bit.

The pmf and the CDFs take n up to ``CDF_MAX_N`` = 1e9 and raise
``BudgetError`` above it.

Divided differences.  Both closed forms carry a difference quotient
(F(b) - F(a)) / (b - a) whose interval shrinks with the rate: two
binomial CDFs in the lattice, two normal-CDF terms in the continuous
limit.  ``gl_mean`` gives it as the mean of F' over the interval, which
stays finite and accurate as the interval closes.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, DomainError, ModelError

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "binom_pmf_log",
    "binom_pmf",
    "binom_cdf_exact",
    "binom_cdf_complement",
    "binom_cdfs",
    "CDF_MAX_N",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Largest n of the binomial pmf and CDFs: about where the reduced price's
# own error starts to grow.  Against the second-order expansion the T1
# reduced price is within 5.4e-14 at n = 1e8 and 4.7e-13 at 1e9, where it
# takes 0.17 s (2-CPU x86 VM), and 5.5e-13 at 1e10, while the expansion's
# remainder keeps falling.  At n = 1e20 a chunk's arrays no longer fit in
# memory.
CDF_MAX_N = 10**9

# CDF walks: the relative size below which a tail is left unsummed, and
# its log; the terms a chunk holds past the index its sizing gives.
_TAIL_REL = 2.0**-60
_TAIL_LOG = 60.0 * math.log(2.0)
_FIRST_CHUNK_PAD = 2

# stirlerr(k) for k = 0..29, computed once in 50-digit arithmetic and frozen;
# the series in ``_stirlerr`` is only reliable from k = 30 upward.
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

# Least float v with 1.1 v^(2j-1) / (2j+1) > 2^-56, for j = 1..8, each
# found by bisection on the float grid (see ``_bd0_series_terms``).
_BD0_TERM_THRESHOLDS = (
    3.784851220313034e-17, 3.980758709761108e-06, 0.000615467492560349,
    0.005274328221428407, 0.017299580920154864, 0.0367272375970295,
    0.061736202103526025, 0.09024540506489268,
)

# The 8-point Gauss-Legendre rule on [-1, 1] is symmetric: its four
# positive nodes, and the weight of each node halved so that the weights
# of all eight sum to 1 (numpy.polynomial.legendre.leggauss(8)).
_GL_NODES = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_WEIGHTS = (0.18134189168918083, 0.15685332293894344, 0.11119051722668721,
               0.05061426814518853)

# Widest spread -- the interval's width times the largest |(log f)'| on
# it -- at which a mean of f is taken by ``gl_mean`` rather than as a
# direct difference quotient.  Below the cap the rule is exact to
# rounding: for f = e^{beta t} it is within 4e-16 relative up to a
# spread of 2.  Above it the direct difference does not cancel: its end
# values differ by about e^{spread}, or its interval is wide against the
# scale on which f changes.  The cap is low because the lattice's mean
# forms pmf ratios in floats from one end of its interval, whose rounding
# grows as n times the offset: against the exact mean of the same ratios
# it is within 1.8e-14 at spread 1 for n up to 1e6, and 6.9e-14 at
# spread 2 and n = 1e6, where the direct difference costs a few ulps;
# at spread 8 the 8-point rule itself is off by 9e-8.
GL_MAX_SPREAD = 1.0

# Most pmf entries in one kernel call that packs chunks of several CDFs:
# past this the call's temporaries outgrow L2 and it runs slower than
# separate calls.
_PACK_MAX = 4096


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


def _log_std_normal_cdf(y: float) -> float:
    """log Phi(y), finite for every finite y.

    Below y = -35, where Phi(y) < 1e-267 nears the underflow of erfc, it
    is log(phi(y) / -y) plus the log of the Mills-ratio series
    1 - 1/y^2 + 3/y^4 - 15/y^6 + ...; the first term left out,
    17!!/y^18, is below 1e-20 there and shrinks with -y.
    """
    if y > -35.0:
        return math.log(std_normal_cdf(y))
    z = 1.0 / (y * y)
    term, series = 1.0, 0.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * z
        series += term
    return -0.5 * y * y - math.log(-y * _SQRT_2PI) + math.log1p(series)


def std_normal_pdf(y: float) -> float:
    """phi(y) = e^{-y^2/2} / sqrt(2 pi)."""
    return math.exp(-0.5 * y * y) / _SQRT_2PI


def expm1_ratio(z: float) -> float:
    """expm1(z) / z, continued by its limit 1 at z = 0."""
    return math.expm1(z) / z if z != 0.0 else 1.0


def log1p_ratio(y: float) -> float:
    """log1p(y) / y, continued by its limit 1 at y = 0."""
    return math.log1p(y) / y if y != 0.0 else 1.0


def gl_mean(f: Callable[[float], float], half: float) -> float:
    """Mean of f over [-half, half] by the 8-point Gauss-Legendre rule.

    f takes the offset from the interval's midpoint, so a caller can
    form f(mid + offset) without losing the offset to the rounding of
    mid + offset.  Exact for polynomials of degree up to 15; for the
    accuracy elsewhere see ``GL_MAX_SPREAD``.  A zero-width interval
    gives f(0) itself.
    """
    if half == 0.0:
        return f(0.0)
    return math.fsum(w * (f(half * x) + f(-half * x))
                     for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def as_index(value: object, name: str) -> int:
    """value as an int if ``operator.index`` takes it (numpy integers pass;
    5.0, 5.5, "7" and None do not), else DomainError naming it.  An
    integer of magnitude above the largest float, whose float evaluation
    would raise OverflowError, is refused with ModelError naming it."""
    try:
        index = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if abs(index) > sys.float_info.max:
        raise ModelError(f"{name} overflows a float: need |{name}| <= {sys.float_info.max:.6g}, "
                         f"got an integer of {index.bit_length()} bits")
    return index


def _check_binom_args(n: int, p: float) -> None:
    if as_index(n, "n") < 0:
        raise DomainError(f"n must be a natural number, got {n}")
    if n > CDF_MAX_N:
        raise BudgetError(f"the binomial pmf and CDFs are limited to n <= {CDF_MAX_N}, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly inside (0, 1), got {p}")


def binom_pmf_log(n: int, p: float, k: int) -> float:
    """log[ C(n,k) p^k (1-p)^{n-k} ], one entry of ``_binom_pmf_log_vec``."""
    _check_binom_args(n, p)
    if not 0 <= as_index(k, "k") <= n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return float(_binom_pmf_log_vec(np.array([k], dtype=np.int64), _pmf_consts([(n, p)])[:, 0])[0])


def binom_pmf(n: int, p: float, k: int) -> float:
    """C(n,k) p^k (1-p)^{n-k}; zero outside 0 <= k <= n.  A one-spec
    ``binom_cdfs`` call, like ``binom_cdf_exact``."""
    return binom_cdfs([(n, p, k, None)])[0]


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """stirlerr per entry of x, whose entries are whole numbers >= 0: the
    frozen table below 30, the asymptotic series from 30 up.  Unless
    every entry is below 30, the series runs over all of them (raised to
    30 where they are below) and the table is written over those."""
    small = x < 30
    n_small = np.count_nonzero(small)
    if n_small == x.size:
        return _STIRLERR_TABLE[x.astype(np.int64)]
    big = np.maximum(x, 30.0)
    x2 = big * big
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * x2)) / x2) / x2) / x2) / big
    if n_small:
        out[small] = _STIRLERR_TABLE[x[small].astype(np.int64)]
    return out


def _bd0_series_terms(v_max: float) -> int:
    """Terms of the bd0 series that settle every entry with |v| <= v_max.

    Relative to the leading (x - m) v, term j is at most
    1.1 |v|^{2j-1} / (2j + 1) on the near branch (|v| < 0.1), and the
    partial sums stay above 0.96 of the leading term.  Once that bound is
    below 2^-56 the term is under half an ulp of the partial sum, and so
    is every later, smaller term; the result is the same as iterating
    until no entry changes, so the extra terms a packed entry gets from
    its call's largest |v| leave its bits alone.  The count is one plus
    the number of j whose bound is still above 2^-56;
    ``_BD0_TERM_THRESHOLDS`` holds, for j = 1..8, the least float v_max
    where it is, so |v| < 0.1 needs at most 9 terms.
    """
    return 1 + bisect.bisect_right(_BD0_TERM_THRESHOLDS, v_max)


def _at(value: float | np.ndarray, mask: np.ndarray) -> float | np.ndarray:
    """value[mask] for a per-entry array, value itself for a scalar."""
    return value[mask] if isinstance(value, np.ndarray) else value


def _bd0_vec(xs: np.ndarray, m: float | np.ndarray) -> np.ndarray:
    """x log(x/m) + m - x per entry; where x is near m, by the series
    (x - m) v + sum_j 2 x v^{2j+1} / (2j + 1), v = (x - m)/(x + m), which
    does not cancel."""
    out = np.empty_like(xs)
    near = np.abs(xs - m) < 0.1 * (xs + m)
    far = ~near
    if far.any():
        xf, mf = xs[far], _at(m, far)
        with np.errstate(over="ignore"):
            log_ratio = np.log(xf / mf)
        # x/m overflows only at a subnormal mean: there log x - log m
        over = np.isinf(log_ratio)
        log_ratio[over] = np.log(xf[over]) - np.log(_at(mf, over))
        out[far] = xf * log_ratio + mf - xf
    if near.any():
        x, mn = xs[near], _at(m, near)
        v = (x - mn) / (x + mn)
        s = (x - mn) * v
        ej = 2.0 * x * v
        v2 = v * v
        for j in range(1, _bd0_series_terms(float(np.max(np.abs(v)))) + 1):
            ej *= v2
            s += ej / (2 * j + 1)
        out[near] = s
    return out


def _pmf_consts(pairs: Sequence[tuple[int, float]]) -> np.ndarray:
    """What log pmf(n, p, k) takes from n and p alone, one column per
    (n, p) of pairs: n, stirlerr(n), n p, n (1 - p), and the values at
    k = 0 and k = n."""
    consts = np.array([(n, 0.0, n * p, n * (1.0 - p), n * math.log1p(-p), n * math.log(p))
                       for n, p in pairs]).T
    consts[1] = _stirlerr(consts[0])
    return consts


def _binom_pmf_log_vec(ks: np.ndarray, consts: Sequence) -> np.ndarray:
    """Vectorized binom_pmf_log over an int64 array with entries in [0, n].

    ``consts`` holds the six fields of a ``_pmf_consts`` column, each a
    scalar or an array aligned with ks that gives it per entry, which
    lets one call evaluate chunks of several (n, p) at once.
    """
    nf, st_n, mean_up, mean_dn, at_lo, at_hi = consts
    k = ks.astype(np.float64)
    lo = k == 0.0
    hi = k == nf
    edge = lo | hi
    if not edge.any():
        return _log_pmf_inside(k, nf, st_n, mean_up, mean_dn)
    out = np.empty_like(k)
    out[lo] = _at(at_lo, lo)
    out[hi] = _at(at_hi, hi)
    mid = ~edge
    out[mid] = _log_pmf_inside(k[mid], *(_at(c, mid) for c in consts[:4]))
    return out


def _log_pmf_inside(
    k: np.ndarray, nf: float | np.ndarray, st_n: float | np.ndarray,
    mean_up: float | np.ndarray, mean_dn: float | np.ndarray,
) -> np.ndarray:
    """log pmf at 0 < k < n by the Stirling-error decomposition; one
    ``_stirlerr`` call gives stirlerr of k and of n - k."""
    nk = nf - k
    st = _stirlerr(np.concatenate((k, nk)))
    return (
        st_n - st[:k.size] - st[k.size:]
        - _bd0_vec(k, mean_up) - _bd0_vec(nk, mean_dn)
        + 0.5 * np.log(nf / (2.0 * np.pi * k * nk))
    )


def binom_cdf_exact(n: int, p: float, j: int) -> float:
    """Bin_{n,p}(j) = sum_{k=0}^{min(j,n)} C(n,k) p^k (1-p)^{n-k}.

    0 for j < 0 and 1 for j >= n.  Below the mean the sum walks down
    from j with the tail rule of ``binom_cdfs``; at or above it, it is one
    minus the sum of ``binom_cdf_complement``.  Either way it costs
    O(sd) = O(sqrt(n)) pmf terms rather than O(j).  Its relative error is
    that of the pmf terms (module docstring): a few ulps near the mean,
    growing to about z sd ulps at z sd out (6.4e-13 at 8 sd, n near 1e6);
    the tail tests hold it to 1e-12 out to 30 sd.
    """
    return binom_cdfs([(n, p, j, False)])[0]


def binom_cdf_complement(n: int, p: float, j: int) -> float:
    """sum_{k=j+1}^n C(n,k) p^k (1-p)^{n-k} = 1 - Bin_{n,p}(j), summed directly
    so the upper tail does not inherit cancellation from the lower sum.

    The mirror of ``binom_cdf_exact``: above the mean the sum walks up
    from j + 1 under the same tail rule, and at or below it, it is one
    minus the sum of ``binom_cdf_exact``; O(sqrt(n)) pmf terms.
    """
    return binom_cdfs([(n, p, j, True)])[0]


def binom_cdfs(specs: Iterable[tuple[int, float, int, bool | None]]) -> list[float]:
    """Several CDFs at once: for each (n, p, j, upper) in specs, the upper
    tail sum of ``binom_cdf_complement`` if upper is True, the lower CDF
    of ``binom_cdf_exact`` if False, and the single term pmf(n, p, j) of
    ``binom_pmf`` (0.0 outside 0..n) if None; those three are one-spec
    calls of this function.  specs is read once, so it may be a
    generator.

    Each sum for 0 <= j < n is a walk over pmf(n, p, k) away from the
    mean n p: from j down for a lower sum with j < n p, from j + 1 up for
    an upper sum with j + 1 > n p.  A sum on the other side holds the
    bulk and is returned as 1 - T, with T the opposite sum at the same j
    walked as above; T is at most about 1/2, since the median is
    floor(np) or ceil(np).  Each chunk of the walk, first or later,
    holds the ``_first_chunk`` terms sized from its own first index,
    clipped to the walk's index range.  The walk stops after a chunk
    whose last index a leaves a tail that cannot reach 2^-60 of the
    partial sum.  The step ratio r_k = pmf(k + step) / pmf(k) is
    k (1-p) / ((n-k+1) p) going down and (n-k) p / ((k+1) (1-p)) going
    up.  The first grows with k and the
    second shrinks, so along either walk r_k never increases, and it is
    below 1 from the start, past the mean: the unsummed tail is at most
    the geometric series t_a (r_a + r_a^2 + ...) = t_a r_a / (1 - r_a).
    A walk also stops when its index range runs out: a sum's at the end
    of the support, where r_a = 0 would stop it too.  A single term is a
    walk over the one index j, which stops after that term.

    Every spec is checked, and its walk's index range and first chunk
    placed, before any term is summed, so a refused spec raises before any
    kernel call.  The walks are then sorted by (n, p, first index) and
    swept into segments: the first chunks of one (n, p) that overlap or
    touch merge into one.  Whole segments go into kernel calls in that
    order, and a call closes before a segment that would take it past
    ``_PACK_MAX`` entries, so only a lone segment passes the cap.  Each
    walk sums its own slice of its call's terms, and then either stops or,
    rarely, goes on alone, one kernel call per later chunk.  So no pmf
    entry of a first chunk is evaluated twice, and the order of the specs
    changes neither which entries are evaluated nor how many kernel calls
    run.  A call pays a fixed numpy cost that dominates a chunk of a few
    hundred terms, so a reduced price's specs at n <= 5000 take one call,
    not one each, and a grid of such prices shares its calls as well.  The
    terms of a call are released once it is summed; the walks are held as
    one small record each until the end.  A walk adds the same terms
    whatever it is packed with, so the result does not depend on the other
    specs.
    """
    out = []
    walks = []  # (n, p, first chunk's least index, its length, slot in out, walk, flipped)
    for n, p, j, upper in specs:
        _check_binom_args(n, p)
        j = as_index(j, "j")
        flip = False
        if upper is None:
            if not 0 <= j <= n:
                out.append(0.0)
                continue
            walk, first = range(j, j + 1), 1
        elif j < 0 or j >= n:
            out.append(1.0 if (j < 0) == upper else 0.0)
            continue
        else:
            # a sum that holds the bulk is one minus the sum on its short side
            flip = j + 1 <= n * p if upper else j >= n * p
            walk = range(j + 1, n + 1) if upper != flip else range(j, -1, -1)
            first = min(_first_chunk(n, p, walk), len(walk))
        walks.append((n, p, min(walk[0], walk[first - 1]), first, len(out), walk, flip))
        out.append(math.nan)
    walks.sort()
    pack, size = [], 0  # the segments of the next kernel call, and their entries
    for segment in _segments(walks):
        entries = segment[3] - segment[2]
        if pack and size + entries > _PACK_MAX:
            _run_walks(pack, out)
            pack, size = [], 0
        pack.append(segment)
        size += entries
    if pack:
        _run_walks(pack, out)
    return out


def _segments(walks: list[tuple]) -> Iterator[list]:
    """The sorted walks swept into segments [n, p, least index, last
    index + 1, walks]: the first chunks of one (n, p) that overlap or
    touch, each segment yielded once no later walk can join it."""
    segment = None
    for walk in walks:
        n, p, lo, first = walk[:4]
        if segment and segment[0] == n and segment[1] == p and lo <= segment[3]:
            segment[3] = max(segment[3], lo + first)
            segment[4].append(walk)
            continue
        if segment:
            yield segment
        segment = [n, p, lo, lo + first, [walk]]
    if segment:
        yield segment


def _run_walks(segments: list[list], out: list[float]) -> None:
    """Sum the walks of segments and write each result into its slot of
    out.  One kernel call evaluates the segments, and each walk sums its
    first chunk from a view of its segment's terms, in walk order; a
    walk that goes on past its first chunk sums each later chunk in a
    call of its own."""
    terms = memoryview(_chunk_terms([(n, p, range(a, b)) for n, p, a, b, _ in segments]))
    offset = 0
    for n, p, a, b, walks in segments:
        for _, _, lo, first, slot, walk, flip in walks:
            summed = terms[offset + lo - a:offset + lo - a + first]
            if walk.step < 0:
                summed = summed[::-1]
            while True:
                end, partial = len(summed), math.fsum(summed)
                ratio = _step_ratio(n, p, walk[end - 1], walk.step)
                if end == len(walk) or (ratio < 1.0 and
                                        summed[-1] * ratio <= _TAIL_REL * partial * (1.0 - ratio)):
                    break
                rest = walk[end:]
                summed = [*summed, *_chunk_terms([(n, p, rest[:_first_chunk(n, p, rest)])]).tolist()]
            out[slot] = 1.0 - partial if flip else min(partial, 1.0)
        offset += b - a


def _step_ratio(n: int, p: float, k: int, step: int) -> float:
    """pmf(n, p, k + step) / pmf(n, p, k) for step +1 or -1."""
    if step < 0:
        return k * (1.0 - p) / ((n - k + 1) * p)
    return (n - k) * p / ((k + 1) * (1.0 - p))


def _first_chunk(n: int, p: float, walk: range) -> int:
    """Terms in the first chunk of a walk, from the slope and curvature of
    the log pmf where it starts, checked against the slope where the
    chunk ends.  A walk that goes on sizes each later chunk as the first
    of the rest of its walk.

    Along the walk from a, the log pmf falls by D(m) after m steps.  Its
    slope lam(m) = -log r_{a + m step} grows with m (the step ratios
    shrink), from lam = lam(0) at a rate of about
    kap = (n + 1) / ((a + 1) (n - a + 1)).  The chunk is the m at which
    D reaches L = 60 log 2.  The parabola lam m + kap m^2 / 2 gives
    m = 2 L / (lam + sqrt(lam^2 + 2 kap L)); in z sd past the mean lam is
    about z / sd and kap about 1 / sd^2, so m is about
    (sqrt(z^2 + 2 L) - z) sd.  Where the slope's growth slows, as in a
    Poisson-like tail at small n p, the parabola overstates the fall;
    the trapezoid m (lam + lam(m)) / 2 then understates it, and the
    chunk is lengthened at slope lam(m) until that reaches L.  The
    stopping rule also weighs the partial sum and the factor
    (1 - r) / r, which move the stop by a term or so; a pad of two terms
    covers them.  With a pad of one, 8 of the 51,700 grid sums of the
    module docstring needed a second chunk; with two, none did.

    No cap is needed.  The parabola's m is at most sqrt(2 L / kap), and
    kap >= 4 (n + 1) / (n + 2)^2, its least value, at a = n/2, so m is at
    most about sqrt(L n / 2) = 4.6 sqrt(n) before the trapezoid step.
    ``test_chunk_length_stays_bounded`` holds the result at or below
    ceil(12 sd + 10), the cap it once had, on a grid of 35,956 walks.
    """
    a = walk[0]
    # lam = -log r_a, inf where the next term is 0
    ratio = _step_ratio(n, p, a, walk.step)
    lam = -math.log(ratio) if ratio > 0.0 else math.inf
    kap = (n + 1) / ((a + 1) * (n - a + 1))
    m = 2.0 * _TAIL_LOG / (lam + math.sqrt(lam * lam + 2.0 * kap * _TAIL_LOG))
    end = math.ceil(m)
    if 0 < end < len(walk):
        ratio = _step_ratio(n, p, walk[end], walk.step)
        lam_end = -math.log(ratio) if ratio > 0.0 else math.inf
        short = _TAIL_LOG - m * (lam + lam_end) / 2.0
        if short > 0.0:
            m += short / lam_end
    return math.ceil(m) + _FIRST_CHUNK_PAD


def _chunk_terms(chunks: list[tuple[int, float, range]]) -> np.ndarray:
    """pmf terms of the (n, p, chunk) of chunks laid end to end, from one
    kernel call with their (n, p) constants repeated per entry.  A lone
    chunk passes its index range and constants as they are, the kernel's
    cheaper form.
    """
    ks = [np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64) for _, _, chunk in chunks]
    consts = _pmf_consts([(n, p) for n, p, _ in chunks])
    if len(chunks) == 1:
        return np.exp(_binom_pmf_log_vec(ks[0], consts[:, 0]))
    per_entry = np.repeat(consts, [len(k) for k in ks], axis=1)
    return np.exp(_binom_pmf_log_vec(np.concatenate(ks), per_entry))
