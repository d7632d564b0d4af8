"""Steadiness mode: repeat each workload over several seeds and summarise.

Usage, from the root of a checkout:

    python3 reqbench/sweep.py --runs 10 --out reqbench/results/steadiness.json

Each run is a fresh ``run.py`` process, as in any comparison of two
commits, and runs go seed by seed across the workloads so that a slow
spell of the machine lands on every workload alike.  For each end-to-end
metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the bound ``BENCHMARK.json`` fixes.  With
``--traced-seed`` one traced run per workload records the per-layer
baseline.  The results carry a machine stanza.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def _machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": spread <= bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in range(1, args.runs + 1):
        for name in workloads:
            result = _run(name, seed, args.seconds, 0)
            runs[name].append(result)
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed={seed} correct={result['correct']} {brief}", flush=True)

    report: dict = {"machine": _machine(), "run_seconds": args.seconds, "workloads": {}}
    for name in workloads:
        results = runs[name]
        entry = {
            "seeds": [r["info"]["seed"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "passes": [r["info"]["passes"] for r in results],
            "ops_per_pass": results[0]["info"]["ops_per_pass"],
            "tail_percentile": results[0]["info"]["tail_percentile"],
            "tail_samples": results[0]["info"]["tail_samples"],
            "properties": results[0]["info"]["properties"],
            "metrics": {
                metric: summarise([r["metrics"][metric]["value"] for r in results], bound)
                for metric, bound in bounds.items()
            },
        }
        if args.traced_seed is not None:
            traced = _run(name, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = {
                "seed": args.traced_seed,
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        report["workloads"][name] = entry
        for metric, summary in entry["metrics"].items():
            flag = "ok" if summary["within_bound"] else "OVER BOUND"
            print(f"{name:13s} {metric:16s} median={summary['median']:.5g} "
                  f"spread={summary['spread']:.4f} bound={summary['bound']} {flag}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
