"""Tests for the scalar numerics kernel: normal CDF, binomial pmf/CDF in
log space, Hermite polynomials, and the adaptive quadrature wrapper."""

from __future__ import annotations

import collections
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookback import (
    MarketState,
    binom_cdf_complement,
    binom_cdf_exact,
    binom_cdfs,
    binom_pmf,
    binom_pmf_log,
    expansion_coeffs,
    expansion_price,
    std_normal_cdf,
    std_normal_pdf,
)
from lookback import lattice, numerics
from lookback.binom_expansion import SequenceCoeffs, cdf_expansion, complementary_expansion
from lookback.cli import cmd_cdf_bench, cmd_figure5
from lookback.errors import BudgetError, DomainError

from .oracles import (
    binom_cdf_lower_exact,
    binom_cdf_upper_exact,
    binom_pmf_exact,
    binom_tail_mp,
)
from .quadrature import (
    ConvergenceError,
    QuadratureSpec,
    hermite_poly,
    integrate_adaptive,
)


class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        spec = QuadratureSpec()
        assert spec.abs_tol > 0.0 and spec.rel_tol > 0.0
        assert spec.max_subdivisions >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_95th_quantile(self):
        """Phi(1.6448536269514722) = 0.95 to full double precision."""
        assert abs(std_normal_cdf(1.6448536269514722) - 0.95) <= 1e-12

    @pytest.mark.parametrize("y", [0.3, 1.84, 5.0])
    def test_reflection_is_exact(self, y):
        """Phi(y) + Phi(-y) == 1 with no rounding: the two branches share
        one erfc evaluation, so the identity holds bit-for-bit."""
        assert std_normal_cdf(y) + std_normal_cdf(-y) == 1.0

    def test_reflection_on_grid(self):
        for i in range(-32, 33):
            y = i * 0.25
            assert std_normal_cdf(y) + std_normal_cdf(-y) == 1.0, f"y={y}"

    def test_accuracy_against_mpmath(self):
        mp.mp.dps = 30
        for i in range(-32, 33):
            y = i * 0.25
            ref = float(mp.ncdf(y))
            got = std_normal_cdf(y)
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)) + 1e-300, (
                f"Phi({y}) = {got}, reference {ref}"
            )

    @pytest.mark.parametrize("y", [-1e5, -1e3, -100.0, -40.0, -35.0001, -35.0,
                                   -34.9999, -20.0, -5.0, -1.0, 0.0])
    def test_log_cdf_where_erfc_underflows(self, y):
        with mp.workdps(50):
            ref = mp.log(mp.ncdf(y))
        assert abs(numerics._log_std_normal_cdf(y) - ref) <= 1e-15 * abs(ref)

    @given(
        y1=st.floats(min_value=-10.0, max_value=10.0),
        y2=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_monotone(self, y1, y2):
        """y1 <= y2 implies Phi(y1) <= Phi(y2)."""
        lo, hi = min(y1, y2), max(y1, y2)
        assert std_normal_cdf(lo) <= std_normal_cdf(hi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)

    def test_pdf_matches_formula(self):
        for y in (0.0, 0.7, -1.84, 3.1):
            want = math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
            assert abs(std_normal_pdf(y) - want) <= 1e-16


class TestBinomPmfLog:
    def test_single_trial(self):
        assert binom_pmf_log(1, 0.5, 0) == math.log(0.5)

    def test_small_case(self):
        """pmf(10, 0.3, 3) = C(10,3) 0.3^3 0.7^7 = 0.26682793200."""
        assert abs(binom_pmf_log(10, 0.3, 3) - math.log(0.26682793200)) <= 1e-10

    @pytest.mark.parametrize("n,p", [(5, 0.5), (17, 0.2), (30, 0.815), (25, 0.03)])
    def test_against_exact_rationals(self, n, p):
        """log pmf matches the log of the exact Fraction value to a few
        ulp, absolutely on the log scale (= relatively on the pmf), for
        every k including deep tails."""
        for k in range(n + 1):
            ref = math.log(binom_pmf_exact(n, p, k))
            got = binom_pmf_log(n, p, k)
            assert abs(got - ref) <= 5e-14, f"k={k}: {got} vs {ref}"

    @pytest.mark.parametrize("n,p", [(100, 0.5), (100000, 0.47)])
    def test_normalization(self, n, p):
        # the terms of binom_pmf_log, through the kernel's packed calls
        # (a public call per term costs about 0.1 ms)
        total = math.fsum(binom_cdfs([(n, p, k, None) for k in range(n + 1)]))
        assert abs(total - 1.0) <= 1e-12, f"sum pmf = {total}"

    @pytest.mark.parametrize(
        "args",
        [(-1, 0.5, 0), (10, 0.0, 3), (10, 1.0, 3), (10, -0.2, 3), (10, 1.3, 3),
         (10, 0.5, -1), (10, 0.5, 11)],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            binom_pmf_log(*args)

    @pytest.mark.parametrize("n,p,k", [(70377, 7.3e-314, 64280), (1000, 5e-324, 999),
                                       (10**9, 3e-310, 10**8)])
    def test_subnormal_mean(self, n, p, k):
        # k / (n p) overflows where the mean n p is subnormal
        with mp.workdps(40):
            ref = mp.log(mp.binomial(n, k)) + k * mp.log(p) + (n - k) * mp.log1p(-p)
        assert abs(binom_pmf_log(n, p, k) - ref) <= 1e-15 * abs(ref)

    def test_pmf_zero_outside_support(self):
        assert binom_pmf(10, 0.3, -2) == 0.0
        assert binom_pmf(10, 0.3, 12) == 0.0

    def test_pmf_inside_support(self):
        assert abs(binom_pmf(10, 0.3, 3) - 0.26682793200) <= 1e-12


class TestBinomCdf:
    def test_full_range_is_one(self):
        assert binom_cdf_exact(5, 0.5, 5) == 1.0

    def test_symmetric_median(self):
        """Odd n, p = 1/2: P(X <= (n-1)/2) = 1/2 by symmetry."""
        assert abs(binom_cdf_exact(101, 0.5, 50) - 0.5) <= 1e-13

    def test_against_big_rational(self):
        ref = float(binom_cdf_lower_exact(20, 0.3, 6))
        assert abs(binom_cdf_exact(20, 0.3, 6) - ref) <= 1e-14

    # The n = 3000 rows put j 11.8 to 12.2 sd and 20 sd from np: in the tail
    # the function walks, and on the bulk side, where it is one minus the
    # opposite tail.  The upper rows mirror the lower ones (j -> n - 1 - j,
    # p -> 1 - p).  Dyadic p keeps the rational oracle fast.
    @pytest.mark.parametrize("n,p,j", [
        (50, 0.37, 11), (120, 0.81, 101), (400, 0.5, 173),
        (3000, 0.5, 1165), (3000, 0.25, 470), (3000, 0.375, 807),
        (3000, 0.5, 952), (3000, 0.5, 1835), (3000, 0.5, 2048),
    ])
    def test_lower_tail_matches_rational_oracle(self, n, p, j):
        ref = float(binom_cdf_lower_exact(n, p, j))
        assert abs(binom_cdf_exact(n, p, j) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n,p,j", [
        (50, 0.37, 11), (120, 0.81, 101), (400, 0.5, 173),
        (3000, 0.5, 1834), (3000, 0.75, 2529), (3000, 0.625, 2192),
        (3000, 0.5, 2047), (3000, 0.5, 1164), (3000, 0.5, 951),
    ])
    def test_upper_tail_matches_rational_oracle(self, n, p, j):
        ref = float(binom_cdf_upper_exact(n, p, j))
        assert abs(binom_cdf_complement(n, p, j) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
    @pytest.mark.parametrize("z", [11.0, 12.5, 13.0, 20.0, 25.0])
    def test_tails_match_mpmath(self, n, z):
        """Both functions z sd into either tail, against 40-digit sums; on
        the bulk side each is one minus the other tail's reference."""
        p = 0.3
        sd = math.sqrt(n * p * (1.0 - p))
        below = int(n * p - z * sd)
        above = int(n * p + z * sd)
        low = binom_tail_mp(n, p, below, lower=True)
        high = binom_tail_mp(n, p, above, lower=False)
        cases = [
            (binom_cdf_exact(n, p, below), low),
            (binom_cdf_complement(n, p, above), high),
            (binom_cdf_exact(n, p, above), 1 - high),
            (binom_cdf_complement(n, p, below), 1 - low),
        ]
        for got, ref in cases:
            assert abs(got - float(ref)) <= 1e-12 * float(ref), (got, float(ref))

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=200_000),
        p=st.floats(min_value=0.05, max_value=0.95),
        data=st.data(),
    )
    def test_complement_identity(self, n, p, data):
        """cdf(n, p, j) + complement(n, p, j) == 1 within 1e-13."""
        j = data.draw(st.integers(min_value=0, max_value=n - 1), label="j")
        total = binom_cdf_exact(n, p, j) + binom_cdf_complement(n, p, j)
        assert abs(total - 1.0) <= 1e-13

    @settings(max_examples=40)
    @given(n=st.integers(min_value=1, max_value=400), data=st.data())
    def test_symmetry_at_half(self, n, data):
        """p = 1/2: P(X <= j) + P(X <= n-j-1) == 1 within 1e-13."""
        j = data.draw(st.integers(min_value=0, max_value=n - 1), label="j")
        total = binom_cdf_exact(n, 0.5, j) + binom_cdf_exact(n, 0.5, n - j - 1)
        assert abs(total - 1.0) <= 1e-13

    def test_out_of_range_conventions(self):
        assert binom_cdf_exact(10, 0.3, -1) == 0.0
        assert binom_cdf_exact(10, 0.3, 10) == 1.0
        assert binom_cdf_exact(10, 0.3, 15) == 1.0
        assert binom_cdf_complement(10, 0.3, -1) == 1.0
        assert binom_cdf_complement(10, 0.3, 10) == 0.0

    def test_cdf_clamped_to_one(self):
        for j in range(90, 101):
            assert binom_cdf_exact(100, 0.5, j) <= 1.0


_ONE_SPEC = {True: binom_cdf_complement, False: binom_cdf_exact, None: binom_pmf}


def _one_at_a_time(specs):
    return [_ONE_SPEC[upper](n, p, j) for n, p, j, upper in specs]


def _t1_reduced_specs():
    """The specs of 300 reduced prices, T1 at n = 2..301."""
    market = MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27)
    specs = []
    for n in range(2, 302):
        par = lattice.tree_params(market, n, "call")
        specs += [spec for spec, _ in lattice._reduced_terms(market, par)[1]]
    return specs


class TestBinomCdfs:
    """The packed entry point returns what one-at-a-time calls return, bit
    for bit, for CDF and single-term (upper=None) specs alike."""

    def test_trivial_indices(self):
        specs = [(n, 0.3, j, upper) for n in (0, 1, 10)
                 for j in (-5, -1, n, n + 1, n + 7) for upper in (False, True, None)]
        assert binom_cdfs(specs) == _one_at_a_time(specs)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_chunks_reach_both_ends_of_the_support(self, n):
        specs = [(n, p, j, upper) for p in (0.03, 0.5, 0.97)
                 for j in range(-1, n + 2) for upper in (False, True, None)]
        assert binom_cdfs(specs) == _one_at_a_time(specs)

    def test_single_terms(self):
        assert binom_cdfs([(0, 0.3, 0, None), (10, 0.3, -1, None), (10, 0.3, 11, None)]) == [
            1.0, 0.0, 0.0]
        got = binom_cdfs([(10, 0.3, k, None) for k in range(11)])
        for k, term in enumerate(got):
            assert abs(term - binom_pmf_exact(10, 0.3, k)) <= 1e-14 * term

    @pytest.mark.parametrize("n", [2, 3, 50, 499, 5000])
    def test_shorter_rows_of_the_zero_rate_branch(self, n):
        q, p, j3 = 0.503, 0.497, n // 2 - 1
        specs = [(n, q, j3 - 1, False), (n, p, j3 - 1, False),
                 (n - 1, q, j3 - 2, False), (n - 1, p, j3 - 1, False),
                 (n, 1.0 - q, j3 + 1, True)]
        assert binom_cdfs(specs) == _one_at_a_time(specs)

    def test_packs_split_at_the_cap(self, kernel_calls):
        n = 100_000
        specs = [(n, p, int(n * p) + shift, upper) for p in (0.3, 0.49, 0.5, 0.51)
                 for shift in (-300, 0, 250) for upper in (False, True)]
        got = binom_cdfs(specs)
        packed = [size for size, is_packed in kernel_calls if is_packed]
        assert len(packed) >= 2 and max(packed) <= numerics._PACK_MAX
        assert got == _one_at_a_time(specs)

    # The sized first chunk ends every sum these tests meet, so to reach a
    # later chunk they cut every chunk to 16 terms; sums of two or three
    # terms end in the first anyway, as their range runs out.
    def test_walk_goes_on_past_its_first_chunk(self, kernel_calls, monkeypatch):
        monkeypatch.setattr(numerics, "_first_chunk", lambda n, p, walk: 16)
        specs = [(1000, 0.5, 400, False), (10, 0.5, 1, False), (999, 0.4, 997, True)]
        got = binom_cdfs(specs)
        assert kernel_calls == [(20, True)] + [(16, False)] * 4
        assert got == _one_at_a_time(specs)

    # Walks of one (n, p) whose first chunks overlap or touch sum from one
    # merged segment: a lone segment takes the kernel's unpacked form.
    @pytest.mark.parametrize("n,p", [(1000, 0.5), (100_000, 0.3)])
    def test_upper_walks_from_j_and_j_plus_1_share_a_segment(self, n, p, kernel_calls):
        j = int(n * p + 2 * math.sqrt(n * p * (1 - p)))
        specs = [(n, p, j, True), (n, p, j + 1, True)]
        got = binom_cdfs(specs)
        (entries, packed), = kernel_calls
        assert not packed
        kernel_calls.clear()
        assert got == _one_at_a_time(specs)
        (first, _), (second, _) = kernel_calls
        assert entries == max(first, second + 1)

    def test_down_walk_and_single_term_share_a_segment(self, kernel_calls):
        n, p, j = 5000, 0.4, 1900
        specs = [(n, p, j, False), (n, p, j - 7, None), (n, p, j + 1, None)]
        got = binom_cdfs(specs)
        (entries, packed), = kernel_calls
        assert not packed
        assert got == _one_at_a_time(specs)
        kernel_calls.clear()
        _one_at_a_time(specs[:1])
        assert entries == kernel_calls[0][0] + 1

    def test_walks_go_on_past_a_merged_segment(self, kernel_calls, monkeypatch):
        monkeypatch.setattr(numerics, "_first_chunk", lambda n, p, walk: 16)
        specs = [(1000, 0.5, 400, False), (1000, 0.5, 401, False), (1000, 0.5, 395, None),
                 (1000, 0.5, 599, True)]
        got = binom_cdfs(specs)
        # one packed call over 17 + 16 entries, then each walk's later chunks
        assert kernel_calls[0] == (33, True)
        assert [packed for _, packed in kernel_calls[1:]] == [False] * 12
        assert got == _one_at_a_time(specs)

    def test_chunk_length_stays_bounded(self):
        # every chunk is sized from where it starts, with no cap: on a grid
        # of n from 1 to 1e9, n p from 1e-3 to 100 and n/2, on both sides
        # of 1/2, and walks from the mean out to 40 sd, no chunk passes
        # ceil(12 sd + 10) terms; a walk from just past a mean n p near 1
        # (0.56 or 1.78) reaches it exactly
        walks = 0
        for n in sorted({round(10 ** (k / 2)) for k in range(19)}):
            for mean in [10 ** (k / 4) for k in range(-12, 9)] + [n / 2]:
                for p in {mean / n, 1.0 - mean / n} if mean < n else ():
                    mu, sd = n * p, math.sqrt(n * p * (1.0 - p))
                    cap = math.ceil(12.0 * sd + 10.0)
                    for z in range(41):
                        up = math.floor(mu) + 1 + math.floor(z * sd)
                        down = math.ceil(mu) - 1 - math.floor(z * sd)
                        for walk in (range(up, n + 1), range(down, -1, -1)):
                            if walk and (walk[0] - mu) * walk.step > 0:
                                walks += 1
                                assert numerics._first_chunk(n, p, walk) <= cap, (n, p, walk)
        assert walks > 30_000

    def test_lone_segment_passes_the_cap(self, kernel_calls):
        # a down walk from n/2 - 1 and an up walk from n/2 + 1, bridged
        # by the term at n/2: one segment of about 18 sd
        n = 1_000_000
        specs = [(n, 0.5, n // 2 - 1, False), (n, 0.5, n // 2, None), (n, 0.5, n // 2, True)]
        got = binom_cdfs(specs)
        (entries, packed), = kernel_calls
        assert not packed and entries > numerics._PACK_MAX
        assert got == _one_at_a_time(specs)

    # at emission (extremum = spot) and on the T1 and T3 markets, where a
    # large f puts the sums at j2 - 1 apart and V3's difference is direct
    @pytest.mark.parametrize("rate,side,extremum", [
        (0.08, "call", 80.0), (0.0, "call", 80.0), (0.08, "put", 80.0), (0.0, "put", 80.0),
        (0.08, "call", 60.0), (0.08, "put", 100.0),
    ])
    @pytest.mark.parametrize("n", [1000, 10**5, 10**6])
    def test_reduced_price_evaluates_each_entry_once(self, rate, side, extremum, n,
                                                     kernel_calls):
        # the union of the specs' first chunks, each placed from its entry
        # count in a call of its own, against the entries of the price
        market = MarketState(spot=80.0, extremum=extremum, sigma=0.2, rate=rate, tau=1.27)
        par = lattice.tree_params(market, n, side)
        specs = [spec for spec, _ in lattice._reduced_terms(market, par)[1]]
        held = {}
        for m, p, j, upper in specs:
            kernel_calls.clear()
            _one_at_a_time([(m, p, j, upper)])
            if not kernel_calls:  # a slot that sums nothing
                continue
            (entries, _), = kernel_calls
            if upper is None:
                lo = j
            elif (j + 1 > m * p) if upper else (j >= m * p):
                lo = j + 1
            else:
                lo = j + 1 - entries
            held.setdefault((m, p), set()).update(range(lo, lo + entries))
        kernel_calls.clear()
        lattice.price_closed_reduced(market, n, side)
        assert sum(entries for entries, _ in kernel_calls) == sum(map(len, held.values()))

    @pytest.mark.parametrize("first", ["sized", 16])
    def test_spec_list_longer_than_a_pack(self, first, kernel_calls, monkeypatch):
        # the specs of 300 reduced prices, T1 at n = 2..301, start their
        # walks a pack at a time; cut to 16 terms, every first chunk
        # leaves its walk going on into later chunks of its own
        if first != "sized":
            monkeypatch.setattr(numerics, "_first_chunk", lambda n, p, walk: first)
        specs = _t1_reduced_specs()
        got = binom_cdfs(specs)
        packed = [size for size, is_packed in kernel_calls if is_packed]
        assert len(packed) >= 2 and max(packed) <= numerics._PACK_MAX
        assert got == _one_at_a_time(specs)

    def test_spec_order_changes_no_entry_or_call(self, kernel_calls, monkeypatch):
        # shuffled, the same specs give the same bits from the same kernel
        # calls, and no call evaluates an (n, p, k) twice
        specs = _t1_reduced_specs()
        got = binom_cdfs(specs)
        calls = list(kernel_calls)
        assert (len(calls), sum(size for size, _ in calls)) == (10, 40_359)
        shuffled = list(range(len(specs)))
        random.Random(11).shuffle(shuffled)
        chunk_terms, entries = numerics._chunk_terms, collections.Counter()

        def recording(chunks):
            entries.update((n, p, k) for n, p, chunk in chunks for k in chunk)
            return chunk_terms(chunks)

        monkeypatch.setattr(numerics, "_chunk_terms", recording)
        kernel_calls.clear()
        again = binom_cdfs([specs[i] for i in shuffled])
        assert again == [got[i] for i in shuffled]
        assert kernel_calls == calls
        assert sum(entries.values()) == 40_359 and max(entries.values()) == 1

    def test_upper_cdf_bench_row_takes_one_call(self, kernel_calls):
        # j 20 sd above n p: the lower CDF is one minus the upper tail from
        # j + 1, whose first chunk ends it
        cmd_cdf_bench([1_000_000], (0.5, 0.0), 0.51)
        assert len(kernel_calls) == 1

    def test_random_specs(self):
        rng = np.random.default_rng(7)
        specs = []
        for _ in range(400):
            n = int(10 ** rng.uniform(0, 5))
            p = float(rng.uniform(0.01, 0.99))
            j = int(n * p + rng.uniform(-30, 30) * math.sqrt(n * p * (1 - p)))
            specs.append((n, p, j, bool(rng.integers(2))))
        for start in range(0, len(specs), 8):
            chunk = specs[start:start + 8]
            for mixed in (chunk, chunk + [(n, p, j, None) for n, p, j, _ in chunk]):
                assert binom_cdfs(mixed) == _one_at_a_time(mixed)

    def test_domain_errors(self, kernel_calls):
        with pytest.raises(DomainError):
            binom_cdfs([(10, 0.3, 4, False), (10, 1.0, 4, True)])
        # every spec is checked before any is summed
        with pytest.raises(DomainError):
            binom_cdfs([*_t1_reduced_specs(), (10, 1.5, 3, True)])
        assert kernel_calls == []


class TestChunkTerms:
    """``_chunk_terms``, the one entry to the pmf kernel."""

    @pytest.mark.parametrize("p", [0.05, 0.17, 0.83, 0.97])
    def test_packed_edges_equal_lone_chunks_bit_for_bit(self, p):
        """Below p = 2/11 the k = 0 entry, above 9/11 the k = n entry, joins
        bd0's near branch, so a call that holds it may sum more series
        terms than a call over chunks near the mean; each term is still
        that of its chunk alone, and the edges are n log1p(-p) and n log p."""
        chunks = [chunk for n in (12, 40, 300, 10**5)
                  for chunk in ((n, p, range(0, 5)), (n, p, range(n - 4, n + 1)),
                                (n, 0.5, range(n // 2 - 3, n // 2 + 4)))]
        packed = numerics._chunk_terms(chunks)
        lone = np.concatenate([numerics._chunk_terms([chunk]) for chunk in chunks])
        assert packed.tobytes() == lone.tobytes()
        at = 0
        for n, q, chunk in chunks:
            terms = packed[at:at + len(chunk)]
            at += len(chunk)
            if chunk[0] == 0:
                assert terms[0] == n * math.log1p(-q)
            if chunk[-1] == n:
                assert terms[-1] == n * math.log(q)


class TestBinomCdfsAgainstMpmath:
    """Both sums at each j against 40-digit references, on both sides of
    the mean where a sum that holds the bulk becomes one minus its short
    side, and out to 30 sd.  Each tolerance is a round figure above the
    largest error that walks summing every sum directly, from the bulk
    window's edge, made on the same specs: 6.2e-15 across the flip,
    7.2e-13 in the tails (n = 1e6, 30 sd out) and 3.8e-15 at n p = 10."""

    @staticmethod
    def _check(n, p, j, tol):
        # the tail on j's side of the mean summed outward, the other side
        # as one minus it
        if j < n * p:
            ref_lower = binom_tail_mp(n, p, j, lower=True)
            ref_upper = 1 - ref_lower
        else:
            ref_upper = binom_tail_mp(n, p, j, lower=False)
            ref_lower = 1 - ref_upper
        lower, upper = binom_cdfs([(n, p, j, False), (n, p, j, True)])
        for got, ref in ((lower, ref_lower), (upper, ref_upper)):
            assert abs(got - ref) <= tol * ref, (n, p, j, got, float(ref))

    @pytest.mark.parametrize("n,p", [
        (10, 0.5), (10, 0.23), (1000, 0.5), (1000, 0.937), (100_000, 0.3),
        (1_000_000, 0.5), (1_000_000, 0.0625),
    ])
    def test_both_sides_of_the_flip(self, n, p):
        mean = n * p
        for j in range(math.floor(mean) - 2, math.ceil(mean) + 3):
            if 0 <= j < n:
                self._check(n, p, j, 1e-14)

    @pytest.mark.parametrize("n,p", [
        (10, 0.5), (100, 0.3), (10_000, 0.5), (10_000, 0.85), (1_000_000, 0.3),
    ])
    def test_tails_to_30_sd(self, n, p):
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        for z in (-30.0, -20.0, -12.0, -5.0, -1.0, 1.0, 5.0, 12.0, 20.0, 30.0):
            self._check(n, p, min(max(int(mean + z * sd), 0), n - 1), 1e-12)

    @pytest.mark.parametrize("short_first_chunk", [False, True])
    def test_poisson_like_tails(self, kernel_calls, monkeypatch, short_first_chunk):
        # at n p = 10 the log pmf falls slower than a parabola above the
        # mean; the sized first chunk still ends every sum, and with every
        # chunk cut to 8 terms both walks of a check go on, each into up
        # to four later chunks of its own
        if short_first_chunk:
            monkeypatch.setattr(numerics, "_first_chunk", lambda n, p, walk: 8)
        calls = []
        for j in (0, 3, 9, 10, 11, 15, 30, 60):
            kernel_calls.clear()
            self._check(1_000_000, 1e-5, j, 1e-14)
            calls.append(len(kernel_calls))
        assert max(calls) == (9 if short_first_chunk else 1)


class TestCdfMaxN:
    def test_above_the_cap_is_refused(self):
        n = numerics.CDF_MAX_N + 1
        calls = [lambda: binom_cdfs([(n, 0.5, 3, False)]), lambda: binom_pmf(n, 0.5, 3),
                 lambda: binom_pmf_log(n, 0.5, 3), lambda: binom_cdf_complement(10**20, 0.5, 3)]
        for call in calls:
            with pytest.raises(BudgetError):
                call()

    def test_at_the_cap(self):
        # p = 1/2, n even: P(X <= n/2 - 1) = (1 - pmf(n/2)) / 2
        n = numerics.CDF_MAX_N
        half = (1.0 - binom_pmf(n, 0.5, n // 2)) / 2.0
        assert abs(binom_cdf_exact(n, 0.5, n // 2 - 1) - half) <= 1e-13


NOT_INTEGERS = [5.0, 5.5, "7", None, math.inf]

SEQ = SequenceCoeffs(alpha=0.1, beta=0.0, gamma=0.0, delta=0.0, epsilon=0.0,
                     a=0.2, b_n=lambda n: 0.0, c=0.0, d=0.0, e=0.0)

EXPANSION = expansion_coeffs(
    MarketState(spot=80.0, extremum=60.0, sigma=0.2, rate=0.08, tau=1.27), "call")

# each entry point with one integer argument left open, valid elsewhere
INTEGER_ARGS = {
    "binom_pmf n": lambda x: binom_pmf(x, 0.3, 2),
    "binom_pmf k": lambda x: binom_pmf(10, 0.3, x),
    "binom_pmf_log n": lambda x: binom_pmf_log(x, 0.3, 2),
    "binom_pmf_log k": lambda x: binom_pmf_log(10, 0.3, x),
    "binom_cdf_exact n": lambda x: binom_cdf_exact(x, 0.3, 2),
    "binom_cdf_exact j": lambda x: binom_cdf_exact(10, 0.3, x),
    "binom_cdf_complement n": lambda x: binom_cdf_complement(x, 0.3, 2),
    "binom_cdf_complement j": lambda x: binom_cdf_complement(10, 0.3, x),
    "binom_cdfs n": lambda x: binom_cdfs([(10, 0.3, 4, False), (x, 0.3, 2, True)]),
    "binom_cdfs j": lambda x: binom_cdfs([(10, 0.3, 4, False), (10, 0.3, x, True)]),
    "cdf_expansion n": lambda x: cdf_expansion(x, 0.5, 3),
    "cdf_expansion j": lambda x: cdf_expansion(10, 0.5, x),
    "complementary_expansion n": lambda x: complementary_expansion(SEQ, x),
    "cmd_figure5 n_max": cmd_figure5,
    "cmd_cdf_bench n": lambda x: cmd_cdf_bench([x], (0.5, 0.1), 0.55),
    "expansion_price n": lambda x: expansion_price(EXPANSION, x),
}


class TestIntegerArguments:
    """n, k and j are refused with DomainError unless ``operator.index``
    takes them, so 5.0 is not read as 5 nor 5.5 summed as a fraction."""

    @pytest.mark.parametrize("arg", INTEGER_ARGS)
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_non_integer_rejected(self, arg, bad):
        with pytest.raises(DomainError):
            INTEGER_ARGS[arg](bad)

    @pytest.mark.parametrize("arg", INTEGER_ARGS)
    def test_numpy_integer_accepted(self, arg):
        value = 10 if arg.endswith(" n") else 5
        assert INTEGER_ARGS[arg](np.int64(value)) == INTEGER_ARGS[arg](value)


def _bd0_series_terms_loop(v_max):
    terms = 1
    while 1.1 * v_max ** (2 * terms - 1) / (2 * terms + 1) > 2.0**-56:
        terms += 1
    return terms


class TestBd0SeriesTerms:
    def test_table_matches_loop(self):
        points = [0.0]
        for threshold in numerics._BD0_TERM_THRESHOLDS:
            points += [threshold, math.nextafter(threshold, 0.0),
                       math.nextafter(threshold, 1.0)]
        points += [k * 1e-6 for k in range(100_000)]  # [0, 0.1)
        points += [10.0 ** e for e in np.linspace(-20.0, -1.0, 20_000)][:-1]
        for v in points:
            assert numerics._bd0_series_terms(v) == _bd0_series_terms_loop(v), v


class TestHermitePoly:
    def test_even_at_zero(self):
        assert hermite_poly(8, 0.0) == 105.0

    def test_odd_at_zero(self):
        assert hermite_poly(9, 0.0) == 0.0

    def test_degree_eleven(self):
        assert hermite_poly(11, 1.0) == 936.0

    @settings(max_examples=80)
    @given(
        m=st.integers(min_value=1, max_value=10),
        y=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_three_term_recurrence(self, m, y):
        """He_{m+1}(y) = y He_m(y) - m He_{m-1}(y), with He_0 = 1."""
        below = 1.0 if m == 1 else hermite_poly(m - 1, y)
        lhs = hermite_poly(m + 1, y)
        rhs = y * hermite_poly(m, y) - m * below
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), (
            f"recurrence off at m={m}, y={y}: {lhs} vs {rhs}"
        )

    @pytest.mark.parametrize("m", [0, 12, -3])
    def test_degree_out_of_range(self, m):
        with pytest.raises(DomainError):
            hermite_poly(m, 0.5)


class TestIntegrateAdaptive:
    def test_constant(self):
        value = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, QuadratureSpec())
        assert abs(value - 1.0) <= 1e-14

    def test_gaussian_moment(self):
        """int_0^inf x e^{-x^2/2} dx = 1; the caller truncates the tail."""
        value = integrate_adaptive(
            lambda x: x * math.exp(-0.5 * x * x), 0.0, 45.0, QuadratureSpec()
        )
        assert abs(value - 1.0) <= 1e-10

    def test_sine_arch(self):
        value = integrate_adaptive(math.sin, 0.0, math.pi, QuadratureSpec())
        assert abs(value - 2.0) <= 1e-12

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: 1.0, 1.0, 1.0, QuadratureSpec())
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: 1.0, 2.0, 1.0, QuadratureSpec())

    def test_convergence_error_keeps_best_estimate(self):
        """A subdivision budget of 1 cannot resolve sin(1000 x) on [0, 10];
        the error must still carry the best estimate found so far."""
        spec = QuadratureSpec(max_subdivisions=1)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_adaptive(lambda x: math.sin(1000.0 * x), 0.0, 10.0, spec)
        best = excinfo.value.best_estimate
        assert isinstance(best, float) and math.isfinite(best)
