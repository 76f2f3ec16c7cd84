"""Tests of the benchmark itself: a deterministic generator, checks that
reject a corrupted row, span accounting, and metric names that match
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = [r.argv for r in gen.round_for(workload, 7)]
    assert first == [r.argv for r in gen.round_for(workload, 7)]
    assert first != [r.argv for r in gen.round_for(workload, 8)]
    assert all(isinstance(arg, str) for argv in first for arg in argv)


@pytest.mark.parametrize("seed", range(20))
def test_markets_stay_in_the_model_domain(seed):
    for workload in ("scan", "deep", "crosscheck"):
        for request in gen.round_for(workload, seed):
            m = request.market
            if m is None:
                continue
            assert (m.extremum <= m.spot) if m.side == "call" else (m.extremum >= m.spot)
            assert min(checks.requested_ns(request)) > m.min_n()


def test_crosscheck_has_a_small_rate_slice():
    requests = gen.round_for("crosscheck", 3)
    rates = [r.market.rate for r in requests if r.small_rate]
    assert not any(r.market.rate < 1e-3 for r in requests if not r.small_rate and r.market.rate)
    assert len(rates) == 15 and all(1e-12 <= rate <= 1e-4 for rate in rates)


def _outputs(workload, seed, keep):
    """CSV text of the requests of one round for which keep(request) holds."""
    import lookback.cli as cli

    requests = [r for r in gen.round_for(workload, seed) if keep(r)]
    texts = []
    for request in requests:
        path = HERE / ".test_out.csv"
        try:
            assert cli.main([*request.argv, "--out", str(path)]) == 0
            texts.append(path.read_text())
        finally:
            path.unlink(missing_ok=True)
    return requests, texts


def _perturb_row(text, row, column, rel=1e-8):
    lines = text.split("\n")
    cells = lines[2 + row].split(",")
    cells[column] = f"{float(cells[column]) * (1.0 + rel):.10g}"
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines)


def test_crosscheck_rejects_a_perturbed_price():
    requests, texts = _outputs("crosscheck", 1, lambda r: r.group == 0)
    assert checks.check_crosscheck(requests, texts, 1) == [None, None, None]
    i = next(i for i, r in enumerate(requests) if r.kind == "reduced")
    texts[i] = _perturb_row(texts[i], 0, 1)
    assert checks.check_crosscheck(requests, texts, 1)[i]


def test_scan_rejects_a_perturbed_sampled_row(monkeypatch):
    monkeypatch.setattr(checks, "SAMPLE_ROWS", 1000)  # every row gets the reference
    requests, texts = _outputs("scan", 1, lambda r: r.kind == "reduced")
    requests, texts = requests[:2], texts[:2]
    assert checks.check_scan(requests, texts, 1) == [None, None]
    texts[1] = _perturb_row(texts[1], 15, 1)
    assert checks.check_scan(requests, texts, 1)[1]


def test_scan_rejects_a_moved_figure5_anchor():
    requests, texts = _outputs("scan", 1, lambda r: r.kind == "figure5")
    assert checks.check_scan(requests, texts, 1) == [None, None]
    texts[0] = _perturb_row(texts[0], 0, 1)  # n = 2 is an anchor
    assert checks.check_scan(requests, texts, 1)[0]


def test_deep_rejects_a_moved_table_cell_and_a_gross_price():
    requests, texts = _outputs("deep", 1, lambda r: r.kind == "table"
                               or int(r.argv[-3]) < 13000)
    assert checks.check_deep(requests, texts, 1) == [None] * 5
    i = next(i for i, r in enumerate(requests) if r.kind == "reduced")
    for text, rel in ((texts[0], 1e-4), (texts[i], 1e-2)):
        bad = list(texts)
        bad[texts.index(text)] = _perturb_row(text, 0, 1, rel)
        assert checks.check_deep(requests, bad, 1)[texts.index(text)]


def test_cdf_rejects_a_perturbed_exact_value(monkeypatch):
    monkeypatch.setattr(checks, "SAMPLE_ROWS", 1000)
    requests, texts = _outputs("cdf", 2, lambda r: int(r.argv[2].split(",")[-1]) < 20000)
    assert checks.check_cdf(requests, texts, 2) == [None] * len(requests)
    texts[0] = _perturb_row(texts[0], 0, 1)
    assert checks.check_cdf(requests, texts, 2)[0]


def test_mpmath_reference_matches_known_values():
    assert abs(float(checks.mp_binom_cdf(10, 0.5, 4)) - 386 / 1024) < 1e-16
    assert abs(float(checks.mp_binom_cdf(10, 0.5, 7)) - 968 / 1024) < 1e-16


def test_span_accounting_with_parallel_children():
    # main [0, 100] with two children on other threads, overlapping in [20, 40]
    spans_ = [
        (1, "price_closed", "lattice", 10, 40, 0, 0, 2, 0),
        (2, "price_closed", "lattice", 20, 60, 0, 0, 3, 0),
        (3, "binom_pmf", "numerics", 25, 35, 2, 0, 3, 1),
        (0, "main", "cli", 0, 100, None, 0, 1, 0),
    ]
    selfs = spans.self_times(spans_)
    assert spans.accounting_errors(spans_, selfs) == []
    assert selfs[0] == 50  # 100 minus the union [10, 60], not the sum 70
    assert selfs[3] == 5   # shares [25, 35] with span 1
    assert sum(selfs.values()) == 100
    metrics = spans.layer_metrics(spans_, selfs)
    assert metrics["numerics.span_terms"] == 1 and metrics["numerics.pmf_calls"] == 1
    broken = spans_ + [(4, "tree_params", "lattice", 90, 120, 1, 0, 2, 0)]
    assert spans.accounting_errors(broken, spans.self_times(broken))


def test_tracer_restores_the_bindings():
    import lookback.cli as cli
    import lookback.lattice as lattice

    before = (cli.main, lattice.binom_cdf_exact)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[0]
        path = HERE / ".test_out.csv"
        for _ in range(2):
            assert cli.main([*gen.WARMUP["scan"], "--out", str(path)]) == 0
        path.unlink()
    finally:
        tracer.restore()
    assert (cli.main, lattice.binom_cdf_exact) == before
    selfs = spans.self_times(tracer.spans)
    assert spans.accounting_errors(tracer.spans, selfs) == []
    assert spans.layer_metrics(tracer.spans, selfs)["cli.requests"] == 2
    assert {span[6] for span in tracer.spans} == {0, 1}  # one request id per main call


def _score_small_rate_group(monkeypatch, failing_kind, *, raised=False):
    """(failed, known_red) for one small-rate crosscheck group in which
    failing_kind fails its check (or, with raised, fails to execute)."""
    requests = [r for r in gen.round_for("crosscheck", 1) if r.group == 4]
    assert len(requests) == 3 and all(r.small_rate for r in requests)
    record = run.Pass(len(requests))
    record.latencies, record.rounds = [0.01] * len(requests), 1
    record.texts = ["rows"] * len(requests)
    reasons = [None] * len(requests)
    bad = next(i for i, r in enumerate(requests) if r.kind == failing_kind)
    if raised:
        record.exec_failures[bad] = 1
    else:
        reasons[bad] = "disagrees with tree"
    monkeypatch.setitem(run.CHECKS, "crosscheck", lambda *_: list(reasons))
    attempted, failed, known_red, _ = run.score("crosscheck", requests, record, 1)
    assert attempted == 3
    return failed, known_red


def test_only_reduced_checks_of_the_small_rate_slice_are_known_red(monkeypatch):
    assert _score_small_rate_group(monkeypatch, "reduced") == (0, 1)
    assert _score_small_rate_group(monkeypatch, "closed") == (1, 0)
    assert _score_small_rate_group(monkeypatch, "tree") == (1, 0)
    assert _score_small_rate_group(monkeypatch, "reduced", raised=True) == (1, 0)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    fake = [(0, "main", "cli", 0, 10, None, 0, 1, 0)]
    produced = spans.layer_metrics(fake, spans.self_times(fake))
    assert set(produced) | {"trace.overhead_frac"} == set(run.PER_LAYER)
