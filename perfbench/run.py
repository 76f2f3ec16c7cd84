"""Benchmark of the lookback CLI: one closed-loop client calling
``lookback.cli.main(argv)`` in-process, each request waiting for the
previous one.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

The seed makes the workload's round of requests (see gen.py).  After one
untimed warm-up round, the round is replayed whole until --seconds have
passed and at least MIN_SAMPLES requests have run; between rounds, fresh
interpreters are timed for setup_s.  Each request writes its CSV to a
file, which is read between requests and checked after timing
(checks.py).  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates untraced and traced rounds for --seconds
(spans.py) and reports the per-layer metrics.  The thread pool of the
CLI runs at its shipped default, so LOOKBACK_THREADS must be unset.  Run
from anywhere; the program is imported from ../src relative to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gen
from checks import CHECKS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_SAMPLES = 110  # so that at least 10 samples lie above p90
SETUP_SAMPLES = 7  # fresh interpreters per run, spread over the timed loop
MAX_SECONDS = 120.0  # of timed rounds: no new round starts after this, so the run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.requests": "count", "cli.self_s": "s",
    "lattice.calls": "count", "lattice.self_s": "s",
    "numerics.cdf_calls": "count", "numerics.pmf_calls": "count",
    "numerics.span_terms": "count", "numerics.self_s": "s",
    "numerics.ns_per_span_term": "ns",
    "continuous.calls": "count", "continuous.self_s": "s",
    "asymptotics.calls": "count", "asymptotics.self_s": "s",
    "binom_expansion.calls": "count", "binom_expansion.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Pass:
    """Latencies, outputs and execution failures of one replay of the round."""

    def __init__(self, size: int) -> None:
        self.latencies: list[float] = []
        self.texts: list[str | None] = [None] * size
        self.exec_failures = [0] * size  # per request: executions that failed
        self.rounds = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_round(cli, requests, paths, record: Pass) -> None:
    for i, (request, path) in enumerate(zip(requests, paths)):
        argv = [*request.argv, "--out", path]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:  # a raised exception is a failed request
            code = repr(exc)
        record.latencies.append(time.perf_counter() - start)
        text = Path(path).read_text() if code == 0 else None
        if text is None or record.texts[i] not in (None, text):
            record.exec_failures[i] += 1
            print(f"request {i} failed: code {code!r}", file=sys.stderr)
        elif record.texts[i] is None:
            record.texts[i] = text
    record.rounds += 1


def setup_once(workload: str, out_path: str) -> float:
    """Wall time for a fresh interpreter to import lookback.cli and finish the warm-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lookback.cli; "
            "sys.exit(lookback.cli.main(sys.argv[2:]))")
    argv = [sys.executable, "-c", code, str(SRC), *gen.WARMUP[workload], "--out", out_path]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls every 50 ms, which would round the time
    # up to the next poll; without one it blocks until the child exits.
    guard = threading.Timer(120.0, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "LOOKBACK_THREADS": os.environ.get("LOOKBACK_THREADS", "unset"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def row_count(texts: list[str]) -> int:
    """Data rows in one round's outputs (each CSV has two header lines)."""
    return sum(text.count("\n") - 2 for text in texts if text is not None)


def score(workload, requests, record: Pass, seed, *also: Pass) -> tuple[int, int, int, list]:
    """(attempted, failed, known_red, reasons) over every execution of the round.

    Outputs repeat byte for byte across rounds (a differing repeat is an
    execution failure), so a request whose output fails its check fails on
    every execution.  A failed check of a reduced price in crosscheck's
    small-rate slice, where the reduced form is known to lose accuracy to
    cancellation, counts in ``known_red``; every other failure, that
    request's execution failures included, counts in ``failed``.
    """
    reasons = CHECKS[workload](requests, record.texts, seed)
    attempted = failed = known_red = 0
    for p in (record, *also):
        attempted += len(p.latencies)
        for i, request in enumerate(requests):
            executions = p.exec_failures[i]
            if p is not record and p.texts[i] != record.texts[i]:
                executions = p.rounds
            checked = p.rounds if reasons[i] else 0
            if executions or not (request.kind == "reduced" and request.small_rate):
                failed += max(executions, checked)
            else:
                known_red += checked
    return attempted, failed, known_red, reasons


def measure(args, cli, requests, paths, workdir) -> tuple[dict, Pass, dict]:
    """Replay whole rounds until --seconds of them have passed and
    MIN_SAMPLES requests have run.  After each round, a fresh interpreter
    is timed for every SETUP_SAMPLES-th of --seconds that the timed rounds
    have passed, so the setup samples meet the same spells of machine
    speed as the rounds do."""
    setup_out = os.path.join(workdir, "setup.csv")
    record = Pass(len(requests))
    setups: list[float] = []
    timed = 0.0
    while True:
        start = time.perf_counter()
        run_round(cli, requests, paths, record)
        timed += time.perf_counter() - start
        while len(setups) < SETUP_SAMPLES and timed >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(setup_once(args.workload, setup_out))
        done = timed >= args.seconds and len(record.latencies) >= MIN_SAMPLES
        if done or timed + timed / record.rounds > MAX_SECONDS:
            break
    while len(setups) < SETUP_SAMPLES:  # rounds longer than --seconds / SETUP_SAMPLES
        setups.append(setup_once(args.workload, setup_out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deciles = statistics.quantiles(record.latencies, n=10)
    metrics = {
        "setup_s": statistics.median(setups),
        # over the whole timed wall: the machine's slow spells last a few
        # rounds, and a median over rounds would jump between their speed
        # and the fast one wherever they fill about half of the run
        "rows_per_s": row_count(record.texts) * record.rounds / record.busy,
        "request_p50_ms": statistics.median(record.latencies) * 1e3,
        "request_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"setup_runs_s": setups, "samples": len(record.latencies),
             "above_p90": sum(x > deciles[8] for x in record.latencies),
             "rounds": record.rounds, "round_size": len(requests)}
    return metrics, record, extra


def measure_traced(args, cli, requests, paths) -> tuple[dict, Pass, Pass, dict]:
    import spans

    tracer = spans.Tracer()
    plain, traced = Pass(len(requests)), Pass(len(requests))
    # Untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both sides of trace.overhead_frac alike.
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not plain.rounds:
        run_round(cli, requests, paths, plain)
        tracer.install()
        try:
            run_round(cli, requests, paths, traced)
        finally:
            tracer.restore()
    selfs = spans.self_times(tracer.spans)
    errors = spans.accounting_errors(tracer.spans, selfs)
    if errors:
        raise SystemExit("span accounting failed: " + "; ".join(errors[:5]))
    metrics = spans.layer_metrics(tracer.spans, selfs)
    metrics["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    return metrics, plain, traced, {"spans": tracer.spans}


def shares(metrics: dict) -> dict:
    self_s = {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    return {layer: value / total for layer, value in self_s.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lookback" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'lookback'}", file=sys.stderr)
        return 2
    if "LOOKBACK_THREADS" in os.environ:
        print("perfbench: unset LOOKBACK_THREADS; the benchmark measures the "
              "CLI's default thread pool", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lookback.cli as cli

    env = environment(args)
    requests = gen.round_for(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        paths = [os.path.join(workdir, f"r{i}.csv") for i in range(len(requests))]
        # One untimed round first: a process that has run the pool once is
        # measurably slower than a fresh one, and the steady state is what
        # a long-lived caller gets.
        run_round(cli, requests, paths, Pass(len(requests)))
        if args.trace:
            metrics, plain, traced, extra = measure_traced(args, cli, requests, paths)
            attempted, failed, known_red, reasons = score(
                args.workload, requests, plain, args.seed, traced)
            units = PER_LAYER
        else:
            metrics, plain, extra = measure(args, cli, requests, paths, workdir)
            attempted, failed, known_red, reasons = score(
                args.workload, requests, plain, args.seed)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, reason in enumerate(reasons):
        if reason:
            print(f"request {i} ({requests[i].kind}) failed its check: {reason}",
                  file=sys.stderr)
    error_rate = failed / attempted
    print("environment: " + json.dumps(env))
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    if args.trace:
        print(f"{args.workload} layer shares of self time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares(metrics).items()))
    else:
        print(f"{args.workload} samples {extra['samples']} "
              f"({extra['above_p90']} above p90, {extra['rounds']} rounds "
              f"of {extra['round_size']})")
    print(f"{args.workload} error_rate {error_rate:.6g} ({failed}/{attempted})")
    if known_red:
        print(f"{args.workload} known_red {known_red / attempted:.6g} ({known_red}/{attempted}): "
              "reduced prices of the small-rate slice that disagree with tree")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_list = extra.pop("spans", None)
    record = {"environment": env, "metrics": metrics, "error_rate": error_rate,
              "known_red": known_red,
              "failed_checks": {i: r for i, r in enumerate(reasons) if r}, **extra}
    if not args.trace:
        record["latencies_s"] = plain.latencies
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans_list is not None:
        fields = ("id", "name", "layer", "start_ns", "end_ns", "parent", "request",
                  "thread", "span_terms")
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans_list:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
