"""Tests for the binomial CDF machinery: the four-term normal expansion,
the parametrized tail form, the Uspensky integral oracle, the tail
classifier, and the Gaussian-moment quadrature identities."""

from __future__ import annotations

import math
import random

import pytest

from lookback import (
    SequenceCoeffs,
    binom_cdf_complement,
    binom_cdf_exact,
    cdf_expansion,
    cdf_limit_classifier,
    complementary_expansion,
    std_normal_pdf,
)
from lookback.errors import DomainError, ModelError

from .quadrature import (
    QuadratureSpec,
    UspenskyContext,
    appendix_identity_check,
    uspensky_cdf,
    uspensky_J,
)

SCAN_GRID = (200, 400, 800, 1600, 3200, 6400)
FIXED_Y_GRID = (*SCAN_GRID, 12800)
# Oscillatory integrands at n ~ 200 need a deeper subdivision budget than
# the default spec.
USPENSKY_SPEC = QuadratureSpec(max_subdivisions=400)


def _zero_seq(b_n_value: float = 0.0) -> SequenceCoeffs:
    return SequenceCoeffs(
        alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, epsilon=0.0,
        a=0.0, b_n=lambda n: b_n_value, c=0.0, d=0.0, e=0.0,
    )


class TestCdfExpansion:
    @pytest.mark.parametrize("n", [201, 999])
    def test_symmetric_median_is_half(self, n):
        """Odd n, p = 1/2, j = (n-1)/2: y = 0 kills P2 and P4, q - p = 0
        kills P1 and P3, so the expansion is exactly Phi(0) = 1/2; the
        exact CDF is 1/2 by symmetry."""
        result = cdf_expansion(n, 0.5, (n - 1) // 2)
        assert result.value == 0.5
        assert abs(binom_cdf_exact(n, 0.5, (n - 1) // 2) - 0.5) <= 1e-13

    def test_moderate_case(self):
        exact = binom_cdf_exact(200, 0.5, 110)
        assert abs(exact - 0.9313166745656847) <= 1e-13
        assert abs(cdf_expansion(200, 0.5, 110).value - exact) <= 2e-7

    def test_large_case(self):
        exact = binom_cdf_exact(10000, 0.45, 4600)
        assert abs(cdf_expansion(10000, 0.45, 4600).value - exact) <= 1e-10

    def test_assembly_structure(self):
        """value = Phi(y) + phi(y) (P1/sqrt(V) + P2/V + P3/V^{3/2} + P4/V^2)."""
        for (n, p, j) in ((50, 0.3, 20), (333, 0.62, 200), (1000, 0.5, 480)):
            r = cdf_expansion(n, p, j)
            rebuilt = r.phi_term + std_normal_pdf(r.y) * (
                r.p1 / math.sqrt(r.v) + r.p2 / r.v + r.p3 / r.v**1.5 + r.p4 / r.v**2
            )
            assert abs(r.value - rebuilt) <= 1e-14

    def test_truncation_endpoints(self):
        r = cdf_expansion(200, 0.5, 110)
        assert r.truncated(0) == r.phi_term
        assert r.truncated(4) == r.value

    def test_truncation_domain(self):
        r = cdf_expansion(200, 0.5, 110)
        with pytest.raises(DomainError):
            r.truncated(5)
        with pytest.raises(DomainError):
            r.truncated(-1)

    @pytest.mark.parametrize(
        "args",
        [(1, 0.5, 0), (200, 0.0, 10), (200, 1.0, 10), (200, 0.5, -1), (200, 0.5, 201)],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            cdf_expansion(*args)

    @pytest.mark.parametrize("args", [(3123, 2.49e-162, 90), (100, 1e-300, 50), (100, 1e-100, 50)])
    def test_terms_past_the_float_range_are_refused(self, args):
        # a tiny V = npq puts |y| near 1/(2 sqrt(V)): y^13 in P4 overflows
        # (nan before), and below V = 1.5e-154 V^2 underflows to 0 (a
        # ZeroDivisionError before)
        with pytest.raises(ModelError, match="float range"):
            cdf_expansion(*args)

    @pytest.mark.parametrize(
        "label,p_of_n",
        [
            ("constant-half", lambda n: 0.5),
            ("drifting", lambda n: 0.5 + 0.1 / math.sqrt(n)),
        ],
    )
    def test_error_order_scaling(self, label, p_of_n):
        """|exact - value| n^{5/2} shows no monotone growth over the
        doubling grid for j_n = floor(0.55 n): the late-grid maximum does
        not exceed the early-grid maximum."""
        scaled = []
        for n in SCAN_GRID:
            p = p_of_n(n)
            j = int(0.55 * n)
            err = abs(binom_cdf_exact(n, p, j) - cdf_expansion(n, p, j).value)
            scaled.append(err * n**2.5)
        assert max(scaled[3:]) <= max(scaled[:3]), f"{label}: {scaled}"

    @pytest.mark.parametrize(
        "label,p_of_n",
        [
            ("constant-half", lambda n: 0.5),
            ("drifting", lambda n: 0.5 + 0.1 / math.sqrt(n)),
        ],
    )
    def test_order_improvement_from_p3_p4(self, label, p_of_n):
        """Dropping P3 and P4 inflates the worst n^{5/2}-scaled error over
        the grid by well over the required factor 5 (observed > 200x)."""
        worst4 = worst2 = 0.0
        for n in SCAN_GRID:
            p = p_of_n(n)
            j = int(0.55 * n)
            exact = binom_cdf_exact(n, p, j)
            r = cdf_expansion(n, p, j)
            worst4 = max(worst4, abs(exact - r.value) * n**2.5)
            worst2 = max(worst2, abs(exact - r.truncated(2)) * n**2.5)
        assert worst2 >= 5.0 * worst4, f"{label}: 2-term {worst2} vs 4-term {worst4}"


def _fixed_y_errors(p: float, a: float) -> list[tuple[float, float]]:
    """(4-term, 2-term) errors against the exact CDF at j = floor(n p + a sd)
    for each n of FIXED_Y_GRID; y stays near a as n grows."""
    errors = []
    for n in FIXED_Y_GRID:
        j = math.floor(n * p + a * math.sqrt(n * p * (1.0 - p)))
        exact, r = binom_cdf_exact(n, p, j), cdf_expansion(n, p, j)
        errors.append((abs(exact - r.value), abs(exact - r.truncated(2))))
    return errors


class TestExpansionOrderAtFixedY:
    """Where the O(n^{-5/2}) order is attained: on j = floor(n p + a sd),
    n = 200..12800.  Off p = 1/2 the n^{5/2}-scaled error is flat
    (max/min 1.05-1.10 measured).  At p = 1/2, q - p = 0 removes the odd
    terms of the remainder, and the scaled error falls (6.3x to 31x
    from n = 200 to 6400); beyond 6400 it nears the binary64 resolution
    of the CDF.  Criterion 05's grid, j = 0.55 n, lets y grow like
    sqrt(n), so its error falls faster than any power of n and cannot
    show the order."""

    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_scaled_error_is_flat_off_one_half(self, a):
        scaled = [err4 * n**2.5 for n, (err4, _) in zip(FIXED_Y_GRID, _fixed_y_errors(0.3, a))]
        assert max(scaled) <= 1.2 * min(scaled), scaled

    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_scaled_error_falls_at_one_half(self, a):
        scaled = {n: err4 * n**2.5 for n, (err4, _) in zip(FIXED_Y_GRID, _fixed_y_errors(0.5, a))}
        assert 5.0 * scaled[6400] <= scaled[200], scaled

    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_p3_p4_gain_at_6400(self, p, a):
        err4, err2 = _fixed_y_errors(p, a)[FIXED_Y_GRID.index(6400)]
        assert err2 >= 500.0 * err4, (err2, err4)


class TestSequenceCoeffs:
    def test_difference_fields(self):
        seq = SequenceCoeffs(
            alpha=0.1, beta=0.3, gamma=0.05, delta=-0.2, epsilon=0.7,
            a=0.04, b_n=lambda n: 0.1 + 0.2 * (n % 2), c=0.01, d=-0.3, e=0.2,
        )
        assert math.isclose(seq.A, 2 * (0.1 - 0.04), rel_tol=1e-15)
        assert math.isclose(seq.C, 2 * (0.05 - 0.01), rel_tol=1e-15)
        assert math.isclose(seq.D, 2 * (-0.2 + 0.3), rel_tol=1e-15)
        assert math.isclose(seq.E, 2 * (0.7 - 0.2), rel_tol=1e-15)
        assert math.isclose(seq.B_n(4), 2 * (0.3 - 0.1), rel_tol=1e-15)
        assert math.isclose(seq.B_n(5), 2 * (0.3 - 0.3), abs_tol=1e-15)

    def test_zero_sequence_collapses(self):
        """All-zero coefficients: A = C = D = E = 0 makes C0 = E0 = 0 and
        the tail approximation is Phi(0) = 1/2, matching the exact fair-coin
        odd-n tail."""
        seq = _zero_seq()
        assert seq.C0 == 0.0 and seq.E0 == 0.0
        for n in (201, 999):
            assert complementary_expansion(seq, n) == 0.5
            exact = binom_cdf_complement(n, 0.5, (n - 1) // 2)
            assert abs(exact - 0.5) <= 1e-13

    @pytest.mark.parametrize("n", [999, 2500])
    def test_matches_exact_tail(self, n):
        """p_n = 1/2 + 0.1/sqrt(n), threshold near n/2 + 0.7: the bounded
        sequence b_n absorbs the rounding of the threshold onto the integer
        grid, and the parametrized tail value matches the exact tail within
        5 n^{-5/2}."""
        p = 0.5 + 0.1 / math.sqrt(n)
        j = round(n / 2 + 0.5 + 0.2)
        b_val = j - n / 2 - 0.5
        seq = SequenceCoeffs(
            alpha=0.1, beta=0.0, gamma=0.0, delta=0.0, epsilon=0.0,
            a=0.0, b_n=lambda m: b_val, c=0.0, d=0.0, e=0.0,
        )
        approx = complementary_expansion(seq, n)
        exact = binom_cdf_complement(n, p, j - 1)
        assert abs(approx - exact) <= 5.0 * n**-2.5

    @pytest.mark.parametrize("n", [999, 2500])
    def test_cdf_variant(self, n):
        """Writing the threshold with -1/2 in place of +1/2 (b_n shifted by
        one step) turns 1 - complementary_expansion into the CDF at j."""
        p = 0.5 + 0.1 / math.sqrt(n)
        j = round(n / 2 + 0.2)
        b_val = j + 0.5 - n / 2  # threshold j + 1
        seq = SequenceCoeffs(
            alpha=0.1, beta=0.0, gamma=0.0, delta=0.0, epsilon=0.0,
            a=0.0, b_n=lambda m: b_val, c=0.0, d=0.0, e=0.0,
        )
        via_tail = 1.0 - complementary_expansion(seq, n)
        exact = binom_cdf_exact(n, p, j)
        assert abs(via_tail - exact) <= 5.0 * n**-2.5

    @pytest.mark.parametrize("n", [300, 1000, 2500])
    def test_consistent_with_cdf_expansion(self, n):
        """The parametrized tail form and the direct CDF expansion
        describe the same quantity: on matched inputs they agree within
        3 n^{-5/2}."""
        p = 0.5 + 0.1 / math.sqrt(n) + 0.3 / n
        j = round(n / 2 + 0.5 + 0.15)
        b_val = j - n / 2 - 0.5
        seq = SequenceCoeffs(
            alpha=0.1, beta=0.3, gamma=0.0, delta=0.0, epsilon=0.0,
            a=0.0, b_n=lambda m: b_val, c=0.0, d=0.0, e=0.0,
        )
        tail = complementary_expansion(seq, n)
        via_cdf = 1.0 - cdf_expansion(n, p, j - 1).value
        assert abs(tail - via_cdf) <= 3.0 * n**-2.5

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            complementary_expansion(_zero_seq(), 1)


class TestUspensky:
    def test_context_invariants(self):
        for n, p in ((10, 0.3), (100, 0.5), (200, 0.8)):
            ctx = UspenskyContext(n=n, p=p)
            assert abs(ctx.rho(0.0) - 1.0) <= 1e-15
            assert abs(ctx.chi(0.0)) <= 1e-15
            v = n * p * (1.0 - p)
            assert math.isclose(ctx.y_prime, -(n * p + 0.5) / math.sqrt(v), rel_tol=1e-14)

    def test_context_domain(self):
        with pytest.raises(DomainError):
            UspenskyContext(n=0, p=0.5)
        with pytest.raises(DomainError):
            UspenskyContext(n=10, p=1.0)

    @pytest.mark.parametrize("n,p,j", [(50, 0.5, 25), (120, 0.3, 30), (200, 0.62, 130)])
    def test_cdf_identity(self, n, p, j):
        """J(y) - J(y') reproduces the exact CDF within 1e-9."""
        got = uspensky_cdf(n, p, j, USPENSKY_SPEC)
        want = binom_cdf_exact(n, p, j)
        assert abs(got - want) <= 1e-9

    def test_single_flip(self):
        assert abs(uspensky_cdf(1, 0.5, 0, USPENSKY_SPEC) - 0.5) <= 1e-12

    def test_j_at_zero_argument_finite(self):
        value = uspensky_J(0.0, 50, 0.4, USPENSKY_SPEC)
        assert math.isfinite(value)

    def test_random_instances(self):
        """30 random (n <= 200, p in [0.2, 0.8], j) triples agree with the
        exact CDF within 1e-9 (observed agreement is ~1e-14)."""
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 200)
            p = rng.uniform(0.2, 0.8)
            j = rng.randint(0, n)
            got = uspensky_cdf(n, p, j, USPENSKY_SPEC)
            want = binom_cdf_exact(n, p, j)
            assert abs(got - want) <= 1e-9, f"(n={n}, p={p}, j={j})"

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            uspensky_cdf(10, 0.5, -1, USPENSKY_SPEC)
        with pytest.raises(DomainError):
            uspensky_cdf(10, 0.5, 11, USPENSKY_SPEC)


class TestCdfLimitClassifier:
    def test_examples(self):
        assert cdf_limit_classifier(0.5, 0.4) == "tends_to_zero"
        assert cdf_limit_classifier(0.5, 0.6) == "tends_to_one"
        assert cdf_limit_classifier(0.5, 0.5) == "central"

    def test_limits_realized_at_large_n(self):
        """At n = 10^4 the classified tails have actually saturated."""
        n = 10000
        assert binom_cdf_exact(n, 0.5, int(0.4 * n)) < 1e-8
        assert binom_cdf_exact(n, 0.5, int(0.6 * n)) > 1.0 - 1e-8

    @pytest.mark.parametrize("args", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            cdf_limit_classifier(*args)


class TestAppendixIdentities:
    def test_odd_integrand_at_zero(self):
        lhs, rhs = appendix_identity_check(0, 0.0, QuadratureSpec())
        assert rhs == 0.0
        assert abs(lhs) <= 1e-12

    def test_degree_one_at_zero(self):
        lhs, rhs = appendix_identity_check(1, 0.0, QuadratureSpec())
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-15

    def test_second_moment(self):
        """(1/pi) int x^2 e^{-x^2/2} cos(0) dx = 1/sqrt(2 pi), and the
        Hermite side is (-1) phi(0) H_2(0) = +phi(0)."""
        lhs, rhs = appendix_identity_check(2, 0.0, QuadratureSpec())
        assert abs(lhs - 1.0 / math.sqrt(2.0 * math.pi)) <= 1e-10
        assert abs(rhs - std_normal_pdf(0.0)) <= 1e-15

    @pytest.mark.parametrize("m", list(range(10)) + [11])
    @pytest.mark.parametrize("y", [0.0, 0.7, 1.84, 3.1])
    def test_identity_grid(self, m, y):
        """Quadrature against the closed Hermite form, all printed degrees
        (10 is absent from the identity list) and representative y."""
        lhs, rhs = appendix_identity_check(m, y, QuadratureSpec())
        assert abs(lhs - rhs) <= 1e-8, f"m={m}, y={y}: {lhs} vs {rhs}"

    @pytest.mark.parametrize("m", [-1, 12])
    def test_degree_domain(self, m):
        with pytest.raises(DomainError):
            appendix_identity_check(m, 0.5, QuadratureSpec())
