"""Refined normal approximation of the binomial CDF.

Two layers, each checkable against the exact summation:

1. cdf_expansion: for X ~ Bin(n, p), with V = npq and the half-corrected
   standardization y = (j - np + 1/2)/sqrt(V),

       P(X <= j) = Phi(y) + phi(y) (P1/sqrt(V) + P2/V + P3/V^{3/2}
                   + P4/V^2) + O(n^{-5/2}),

   where P1..P4 are fixed polynomials in y with coefficients depending
   on p only through q - p and pq.  Keeping P3 and P4 is what pushes
   the remainder from O(n^{-2}) down to O(n^{-5/2}).

2. complementary_expansion: the same accuracy for the upper tail
   Sum_{k=j}^n C(n,k) p^k q^{n-k} when p and j themselves drift with n,

       p_n = 1/2 + alpha/sqrt(n) + beta/n + gamma/n^{3/2}
             + delta/n^2 + epsilon/n^{5/2},
       j_n = n/2 + a sqrt(n) + 1/2 + b_n + c/sqrt(n) + d/n + e/n^{3/2},

   with (b_n) any bounded sequence (floor-induced oscillations ride in
   through it).  The result is Phi(A) + phi(A) times a polynomial in
   B_n with n-independent coefficients C0, C2, D0, D1, D3, E0, E1, E2,
   E4 built from A = 2(alpha - a), C = 2(gamma - c), D = 2(delta - d),
   E = 2(epsilon - e); only B_n = 2(beta - b_n) varies with n.

The quadrature oracles for both layers (Uspensky's exact integral
representation and the Hermite Fourier identities behind the expansion)
live in tests/quadrature.py.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, ModelError
from .numerics import as_index, std_normal_cdf, std_normal_pdf

__all__ = [
    "CdfExpansion",
    "SequenceCoeffs",
    "CdfLimit",
    "cdf_expansion",
    "complementary_expansion",
    "cdf_limit_classifier",
]

CdfLimit = Literal["tends_to_zero", "tends_to_one", "central"]


@dataclass(frozen=True)
class CdfExpansion:
    """Assembled CDF approximation at one (n, p, j).

    y is the standardized argument (j - np + 1/2)/sqrt(V), v is the
    variance V = npq, phi_term is Phi(y), and p1..p4 are the values of
    the four correction polynomials at y; value is truncated(4).
    """

    y: float
    v: float
    phi_term: float
    p1: float
    p2: float
    p3: float
    p4: float

    @property
    def value(self) -> float:
        return self.truncated(4)

    def truncated(self, terms: int) -> float:
        """Approximation keeping only P1..P_terms, 0 <= terms <= 4, with the
        terms P_i / V^{i/2} summed from left to right.

        truncated(2) is the older O(n^-2) approximation.
        """
        if not 0 <= terms <= 4:
            raise DomainError(f"terms must be in [0, 4], got {terms}")
        v, sqrt_v = self.v, math.sqrt(self.v)
        corr = 0.0
        for term in (self.p1 / sqrt_v, self.p2 / v, self.p3 / (v * sqrt_v),
                     self.p4 / (v * v))[:terms]:
            corr += term
        return self.phi_term + std_normal_pdf(self.y) * corr


def cdf_expansion(n: int, p: float, j: int) -> CdfExpansion:
    """Fourth-order normal approximation of P(Bin(n, p) <= j).

    Refused with ModelError where its terms P_i / V^(i/2) leave the
    float range: V^2 must not underflow to 0 and no term may pass the
    largest float.  Both happen only at a tiny V = npq, where |y| is
    huge (below V = 1.5e-154, |y| >= 1/(2 sqrt(V)) > 4e76 already makes
    y^13 in P4 overflow).
    """
    n, j = as_index(n, "n"), as_index(j, "j")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if not 0 <= j <= n:
        raise DomainError(f"j must be in [0, {n}], got {j}")
    q = 1.0 - p
    v = n * p * q
    y = (j - n * p + 0.5) / math.sqrt(v)
    y2 = y * y
    pq = p * q
    # Horner form in y^2; the odd/even prefactor carries the remaining power.
    p1 = (q - p) * (1.0 - y2) / 6.0
    p2 = y * ((-3.0 + (7.0 - y2) * y2) / 72.0
              - pq * (-3.0 + (11.0 - 2.0 * y2) * y2) / 36.0)
    p3 = (q - p) * (
        (123.0 + (129.0 + (-384.0 + (95.0 - 5.0 * y2) * y2) * y2) * y2) / 6480.0
        - pq * (3.0 + (69.0 + (-399.0 + (145.0 - 10.0 * y2) * y2) * y2) * y2) / 3240.0
    )
    p4 = y * (
        (-4293.0 + (-1359.0 + (6165.0 + (-1971.0 + (185.0 - 5.0 * y2) * y2) * y2)
                    * y2) * y2) / 155520.0
        + pq * (3105.0 + (1395.0 + (-7794.0 + (2979.0 + (-325.0 + 10.0 * y2) * y2)
                          * y2) * y2) * y2) / 38880.0
        + pq * pq * (135.0 + (-1035.0 + (7947.0 + (-4167.0 + (560.0 - 20.0 * y2)
                              * y2) * y2) * y2) * y2) / 38880.0
    )
    expansion = CdfExpansion(y=y, v=v, phi_term=std_normal_cdf(y), p1=p1, p2=p2, p3=p3, p4=p4)
    if not (v * v > 0.0 and math.isfinite(expansion.value)):
        raise ModelError(
            f"the CDF expansion's terms P_i / V^(i/2) leave the float range at n = {n}, p = {p}, "
            f"j = {j}: they need V^2 > 0 and every |term| <= 1.8e308; "
            f"got V = npq = {v:.4g}, y = {y:.4g}")
    return expansion


@dataclass(frozen=True)
class SequenceCoeffs:
    """Coefficients of the drifting success probability and threshold.

    p_n = 1/2 + alpha/sqrt(n) + beta/n + gamma/n^{3/2} + delta/n^2
    + epsilon/n^{5/2} and j_n = n/2 + a sqrt(n) + 1/2 + b_n + c/sqrt(n)
    + d/n + e/n^{3/2}; b_n is any bounded sequence, supplied as a
    callable so oscillating (floor-induced) terms pass through intact.

    The derived quantities A, C, D, E and the assembly coefficients
    C0, C2, D0, D1, D3, E0, E1, E2, E4 do not depend on n; B_n(n) is
    the only n-dependent input to the expansion.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    a: float
    b_n: Callable[[int], float]
    c: float
    d: float
    e: float

    @property
    def A(self) -> float:
        return 2.0 * (self.alpha - self.a)

    def B_n(self, n: int) -> float:
        return 2.0 * (self.beta - self.b_n(n))

    @property
    def C(self) -> float:
        return 2.0 * (self.gamma - self.c)

    @property
    def D(self) -> float:
        return 2.0 * (self.delta - self.d)

    @property
    def E(self) -> float:
        return 2.0 * (self.epsilon - self.e)

    @property
    def C0(self) -> float:
        A, A2 = self.A, self.A * self.A
        return (2.0 * self.alpha**2 * A
                - (1.0 - A2) * (A - 8.0 * self.alpha) / 12.0 + self.C)

    @property
    def C2(self) -> float:
        return self.A / 2.0

    @property
    def D0(self) -> float:
        A, A2 = self.A, self.A * self.A
        return (4.0 * self.alpha * self.beta * A
                + 2.0 * (1.0 - A2) * self.beta / 3.0 + self.D)

    @property
    def D1(self) -> float:
        A, A2 = self.A, self.A * self.A
        alpha = self.alpha
        return ((8.0 * alpha * A - 1.0) / 6.0
                - (1.0 - A2) * (A2 - 8.0 * alpha * A + 24.0 * alpha**2 - 3.0) / 12.0
                + A * self.C)

    @property
    def D3(self) -> float:
        return (1.0 - self.A * self.A) / 6.0

    @property
    def E0(self) -> float:
        A, A2 = self.A, self.A * self.A
        alpha, beta, gamma = self.alpha, self.beta, self.gamma
        C = self.C
        return (2.0 * (beta**2 + 2.0 * alpha * gamma) * A
                + (1.0 - A2) * (6.0 * alpha**2 * C + 2.0 * gamma) / 3.0
                + (3.0 - A2) * (6.0 * alpha**3 - 2.0 * C) * alpha * A / 3.0
                + (A2 * A2 - 4.0 * A2 + 1.0) * (16.0 * alpha**3 - C) / 12.0
                - (5.0 * A2**3 - 53.0 * A2 * A2 + 33.0 * A2 + 171.0) * A / 1440.0
                + (5.0 * A2**3 - 41.0 * A2 * A2 + 21.0 * A2 + 27.0) * alpha / 90.0
                - (7.0 * A2 * A2 - 40.0 * A2 + 15.0) * alpha**2 * A / 18.0
                - A * C * C / 2.0 + self.E)

    @property
    def E1(self) -> float:
        A, A2 = self.A, self.A * self.A
        return (4.0 * self.beta * A / 3.0
                + (1.0 - A2) * (2.0 * A - 12.0 * self.alpha) * self.beta / 3.0
                + A * self.D)

    @property
    def E2(self) -> float:
        A, A2 = self.A, self.A * self.A
        alpha = self.alpha
        return (2.0 * alpha**2 * A
                + (1.0 - A2) * (self.C + 2.0 * alpha**2 * A) / 2.0
                - (A2 * A2 - 8.0 * A2 + 9.0) * A / 24.0
                + (A2 * A2 - 6.0 * A2 + 3.0) * alpha / 3.0)

    @property
    def E4(self) -> float:
        return (3.0 - self.A * self.A) * self.A / 24.0


def complementary_expansion(seq: SequenceCoeffs, n: int) -> float:
    """Fourth-order approximation of the upper tail Sum_{k=j_n}^n pmf.

    For the lower tail P(X <= j), write j with -1/2 in place of +1/2 in
    the j_n expansion and take 1 minus this result.

    Refused with ModelError where a coefficient, a power of B_n or the
    result leaves the float range (|value| <= 1.8e308): a huge alpha or
    B_n, or a B_n that is not finite.
    """
    n = as_index(n, "n")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    A = seq.A
    B = seq.B_n(n)
    try:
        sqrt_n = math.sqrt(n)
        value = std_normal_cdf(A) + std_normal_pdf(A) * (
            B / sqrt_n
            + (seq.C0 - seq.C2 * B**2) / n
            + (seq.D0 - seq.D1 * B - seq.D3 * B**3) / n**1.5
            + (seq.E0 - seq.E1 * B - seq.E2 * B**2 + seq.E4 * B**4) / n**2
        )
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise ModelError(
            f"the complementary expansion leaves the float range at n = {n}: its "
            f"coefficients, the powers of B_n and the result need |value| <= 1.8e308; "
            f"got A = {A:.4g}, B_n = {B:.4g}")
    return value


def cdf_limit_classifier(p0: float, j_ratio: float) -> CdfLimit:
    """Limiting behavior of P(Bin(n, p0) <= j_ratio * n) as n grows.

    The CDF tends to 0 when j_ratio < p0 (the threshold falls behind
    the mean), to 1 when j_ratio > p0, and stays central when equal;
    in the non-central cases the gap closes at rate O(n^{-5/2}) in the
    expansion and exponentially for the exact CDF.
    """
    if not 0.0 < p0 < 1.0:
        raise DomainError(f"p0 must be in (0, 1), got {p0}")
    if not 0.0 <= j_ratio <= 1.0:
        raise DomainError(f"j_ratio must be in [0, 1], got {j_ratio}")
    if j_ratio < p0:
        return "tends_to_zero"
    if j_ratio > p0:
        return "tends_to_one"
    return "central"
