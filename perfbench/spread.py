"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads scan deep --seeds 1-10 [--out FILE]

Spread is (Q3 - Q1) / median over the seeds, with quartiles as
statistics.quantiles(values, n=4) gives them.  A metric is steady when its
spread is below a third of its bound.  --out writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    env = next(line for line in lines if line.startswith("environment: "))
    result["environment"] = json.loads(env.removeprefix("environment: "))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
                + f"; failed {runs[-1]['failed']}/{runs[-1]['attempted']}"
                + f"; wall {runs[-1]['wall_s']:.1f} s", flush=True)
        summary = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            ok = stats["spread"] < metric["bound"] / 3
            steady &= ok
            summary[name] = {**stats, "bound": metric["bound"], "steady": ok}
            print(f"  {workload} {name}: median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']})"
                  f"{'' if ok else '  NOT STEADY'}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
