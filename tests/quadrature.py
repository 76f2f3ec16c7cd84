"""Quadrature oracles for the binomial CDF expansion.

Uspensky's exact trigonometric-integral representation of the binomial
CDF is an independent oracle for both expansions of
``lookback.binom_expansion``, and the Fourier-transform identities of
the probabilists' Hermite polynomials are what the expansion is built
from.  Both are evaluated here by adaptive Gauss-Kronrod quadrature
(scipy).  The package's only quadrature is a fixed 8-point
Gauss-Legendre rule for its divided differences (``numerics.gl_mean``),
so these live with the tests and scipy is a test dependency only.

Exact representation:

    Sum_{k=0}^{j} C(n,k) p^k q^{n-k} = J(y) - J(y'),
    J(y) = (1/2 pi) Integral_0^pi rho^n
           sin(y sqrt(V) phi - chi) / sin(phi/2) dphi,

with rho = |p e^{i phi} + q|, omega = arg(p e^{i phi} + q),
chi = n omega - n p phi, and y' = -(np + 1/2)/sqrt(V).

appendix_identity_check validates the identities behind the expansion:
(1/pi) Integral_0^inf x^m e^{-x^2/2} trig(yx) dx equals
(-1)^{floor(m/2)} phi(y) H_m(y) (sine for odd m, cosine for even
m >= 2, and the m = 0 sine-over-x case giving Phi(y) - 1/2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from scipy import integrate as _scipy_integrate

from lookback.errors import BudgetError, DomainError
from lookback.numerics import std_normal_cdf, std_normal_pdf


class ConvergenceError(BudgetError):
    """Adaptive quadrature failed to meet its tolerance within the allowed
    subdivisions.  Carries the best estimate so callers can inspect it."""

    def __init__(self, message: str, best_estimate: float) -> None:
        super().__init__(message)
        self.best_estimate = best_estimate


# Probabilists' Hermite polynomials H_1..H_11, coefficient of y^i at index i.
_HERMITE_COEFFS: dict[int, tuple[float, ...]] = {
    1: (0.0, 1.0),
    2: (-1.0, 0.0, 1.0),
    3: (0.0, -3.0, 0.0, 1.0),
    4: (3.0, 0.0, -6.0, 0.0, 1.0),
    5: (0.0, 15.0, 0.0, -10.0, 0.0, 1.0),
    6: (-15.0, 0.0, 45.0, 0.0, -15.0, 0.0, 1.0),
    7: (0.0, -105.0, 0.0, 105.0, 0.0, -21.0, 0.0, 1.0),
    8: (105.0, 0.0, -420.0, 0.0, 210.0, 0.0, -28.0, 0.0, 1.0),
    9: (0.0, 945.0, 0.0, -1260.0, 0.0, 378.0, 0.0, -36.0, 0.0, 1.0),
    10: (-945.0, 0.0, 4725.0, 0.0, -3150.0, 0.0, 630.0, 0.0, -45.0, 0.0, 1.0),
    11: (0.0, -10395.0, 0.0, 17325.0, 0.0, -6930.0, 0.0, 990.0, 0.0, -55.0,
         0.0, 1.0),
}


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and work cap for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


def hermite_poly(m: int, y: float) -> float:
    """Probabilists' Hermite polynomial H_m(y), 1 <= m <= 11.

    H_1 = y, H_2 = y^2 - 1, and H_{m+1} = y H_m - m H_{m-1}; coefficients
    are tabulated explicitly rather than generated so each polynomial is
    auditable against its printed form.
    """
    if m not in _HERMITE_COEFFS:
        raise DomainError(f"hermite_poly requires 1 <= m <= 11, got {m}")
    acc = 0.0
    for coef in reversed(_HERMITE_COEFFS[m]):
        acc = acc * y + coef
    return acc


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integral of f over [a, b] within max(abs_tol, rel_tol * |result|).

    Adaptive Gauss-Kronrod panels; oscillatory integrands (the binomial
    CDF integral representation) need the adaptivity near the removable
    origin.  Semi-infinite integrands must be truncated by the caller at
    the point where their envelope falls below abs_tol; quadrature here is
    strictly over the finite interval.
    """
    if not a < b:
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    result = _scipy_integrate.quad(
        f, a, b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(result) > 3:
        # quad appends an explanation message when the subdivision limit
        # or roundoff prevents convergence
        raise ConvergenceError(
            f"quadrature did not converge on [{a}, {b}]: {result[3]}",
            best_estimate=float(result[0]),
        )
    value, abserr, _ = result
    if abserr > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance on [{a}, {b}]",
            best_estimate=float(value),
        )
    return float(value)


@dataclass(frozen=True)
class UspenskyContext:
    """Integrand ingredients of the exact representation for Bin(n, p)."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"p must be in (0, 1), got {self.p}")

    @property
    def variance(self) -> float:
        return self.n * self.p * (1.0 - self.p)

    @property
    def y_prime(self) -> float:
        """Lower standardized endpoint -(np + 1/2)/sqrt(V)."""
        return -(self.n * self.p + 0.5) / math.sqrt(self.variance)

    def rho(self, phi: float) -> float:
        """|p e^{i phi} + q|; equals 1 at phi = 0."""
        q = 1.0 - self.p
        return math.hypot(self.p * math.cos(phi) + q, self.p * math.sin(phi))

    def omega(self, phi: float) -> float:
        """arg(p e^{i phi} + q)."""
        q = 1.0 - self.p
        return math.atan2(self.p * math.sin(phi), self.p * math.cos(phi) + q)

    def chi(self, phi: float) -> float:
        """n omega(phi) - n p phi; vanishes to O(phi^3) at 0."""
        return self.n * self.omega(phi) - self.n * self.p * phi


def uspensky_J(
    yval: float, n: int, p: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """J(y) = (1/2 pi) Integral_0^pi rho^n sin(y sqrt(V) phi - chi)/sin(phi/2) dphi.

    The phi = 0 endpoint is removable: chi = O(phi^3), so the integrand
    tends to the analytic limit 2 y sqrt(V), which is substituted
    directly rather than nudging the lower bound (a nudge would bias
    the value by O(epsilon)).
    """
    ctx = UspenskyContext(n=n, p=p)
    sqrt_v = math.sqrt(ctx.variance)

    def integrand(phi: float) -> float:
        if phi == 0.0:
            return 2.0 * yval * sqrt_v
        return (ctx.rho(phi) ** n
                * math.sin(yval * sqrt_v * phi - ctx.chi(phi))
                / math.sin(0.5 * phi))

    return integrate_adaptive(integrand, 0.0, math.pi, spec) / (2.0 * math.pi)


def uspensky_cdf(
    n: int, p: float, j: int, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """P(Bin(n, p) <= j) as J(y) - J(y') with the standardized endpoints."""
    if not 0 <= j <= n:
        raise DomainError(f"j must be in [0, {n}], got {j}")
    ctx = UspenskyContext(n=n, p=p)
    y = (j - n * p + 0.5) / math.sqrt(ctx.variance)
    return uspensky_J(y, n, p, spec) - uspensky_J(ctx.y_prime, n, p, spec)


_APPENDIX_CUTOFF = 45.0  # x^11 e^{-x^2/2} < 1e-300 beyond; truncation is exact in floats


def appendix_identity_check(
    m: int, yval: float, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float]:
    """(lhs, rhs) of the Hermite Fourier identity of order m, 0 <= m <= 11.

    lhs = (1/pi) Integral_0^inf x^m e^{-x^2/2} trig(yx) dx with sine for
    odd m, cosine for even m >= 2, and sin(yx)/x for m = 0 (whose x = 0
    limit is y).  rhs = Phi(y) - 1/2 for m = 0, else
    (-1)^{floor(m/2)} phi(y) H_m(y).  The infinite upper bound is
    truncated at x = 45, where the Gaussian factor already underflows.
    """
    if not 0 <= m <= 11:
        raise DomainError(f"m must be in [0, 11], got {m}")
    if m == 0:
        def integrand(x: float) -> float:
            if x == 0.0:
                return yval
            return math.exp(-0.5 * x * x) * math.sin(yval * x) / x

        rhs = std_normal_cdf(yval) - 0.5
    else:
        trig = math.sin if m % 2 == 1 else math.cos

        def integrand(x: float) -> float:
            return x**m * math.exp(-0.5 * x * x) * trig(yval * x)

        rhs = (-1.0) ** (m // 2) * std_normal_pdf(yval) * hermite_poly(m, yval)
    lhs = integrate_adaptive(integrand, 0.0, _APPENDIX_CUTOFF, spec) / math.pi
    return lhs, rhs
