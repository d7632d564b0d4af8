"""Request-path benchmark of the acquisitional serving runtime.

Usage, from the root of a checkout:

    python3 reqbench/run.py --workload refit_churn --seed 1 --seconds 60 --trace 0

Drives ``repro.service.AcquisitionalService`` from one process and one
client thread in a closed loop, checks every answer against a numpy
oracle outside the clock, and prints one JSON object as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
run with layer wrappers installed with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # untraced passes per run, so each step has a best time

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("tuples_per_s", "tuples/s"),
    ("cost_per_tuple", "units/tuple"),
    ("peak_rss_mb", "MB"),
)


def measure(workload, seed: int, seconds: float, trace: bool, passes: int | None = None) -> dict:
    """One run: set up several times, then whole passes for ``seconds``.

    A pass starts only if, at the pace of the last one (its checks and
    reset included), it ends within ``seconds`` of the first; at least
    ``MIN_PASSES`` untraced passes run.  ``passes`` fixes the number of
    passes instead (the self-tests use it to compare runs of different
    lengths).  In a traced run every second pass has the layer wrappers
    installed; the untraced passes in between give the tracing overhead.

    Passes repeat the same steps, so each step's time is its best across
    the untraced passes.  On a shared host the machine runs slow in
    spells of seconds to minutes that stretch every step in them by up to
    2x; a step's best time is set by the program as long as one of its
    executions misses such a spell, where a median needs half of them to.
    """
    from spans import Tracer, layer_metrics

    setup_seconds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        world = workload.build()
        setup_seconds.append(time.perf_counter() - start)
    steps = workload.steps(world, seed)
    is_op = np.array([workload.is_op(step) for step in steps])
    properties = workload.properties(world, steps)
    tracer = Tracer() if trace else None

    step_times: list[list[float]] = []  # per untraced pass, per step
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    traced_op_seconds = 0.0
    pass_totals: set[tuple[int, float]] = set()  # one member if passes repeat
    attempted = failed = 0
    done = 0
    run_start = last_end = time.perf_counter()
    while True:
        workload.reset(world)
        # The oracle's memo of expected answers grows the heap the
        # collector scans; freezing it keeps the benchmark's own objects
        # out of the program's collection pauses.
        gc.collect()
        gc.freeze()
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.install()
        step_seconds = []
        pass_tuples, pass_cost = 0, 0.0
        index = 0  # of the op within the pass
        try:
            for step in steps:
                op = workload.is_op(step)
                if traced and op:
                    tracer.op = index
                start = time.perf_counter()
                try:
                    answer = workload.run(world, step)
                except Exception as error:  # a step that raises fails its op
                    answer = error
                step_seconds.append(time.perf_counter() - start)
                if traced:
                    tracer.op = -1
                if not op:
                    if isinstance(answer, Exception):
                        raise answer
                    continue
                # Each answer is checked as it arrives, outside the clock,
                # so the pass holds no answers on the heap.
                index += 1
                attempted += 1
                if isinstance(answer, Exception):
                    print(f"op failed: {step!r}: {answer!r}", file=sys.stderr)
                    failed += 1
                    continue
                ok, op_tuples, op_cost = workload.check(world, step, answer)
                failed += not ok
                pass_tuples += op_tuples
                pass_cost += op_cost
        finally:
            if traced:
                tracer.uninstall()
        done += 1
        wall = sum(step_seconds)
        if traced:
            traced_walls.append(wall)
            traced_op_seconds += float(np.sum(np.array(step_seconds)[is_op]))
        else:
            untraced_walls.append(wall)
            step_times.append(step_seconds)
        pass_totals.add((pass_tuples, pass_cost))
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif (
            len(untraced_walls) >= MIN_PASSES
            and (tracer is None or traced_walls)
            and (now - run_start) + (now - last_end) > seconds
        ):
            break
        last_end = now

    ops = int(is_op.sum())
    pass_tuples, pass_cost = min(pass_totals)
    info = {
        "workload": workload.name,
        "seed": seed,
        "passes": done,
        "ops_per_pass": ops,
        "tail_percentile": workload.tail_percentile,
        "tail_samples": int(ops * (1 - workload.tail_percentile / 100)),
        "identical_passes": len(pass_totals) == 1,
        "pass_seconds": untraced_walls,
        "properties": properties,
    }
    if tracer is None:
        best = np.min(np.array(step_times), axis=0)
        per_op = best[is_op]
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "latency_p50_ms": 1e3 * float(np.median(per_op)),
            "latency_tail_ms": 1e3 * float(np.percentile(per_op, workload.tail_percentile)),
            "tuples_per_s": pass_tuples / float(best.sum()),
            "cost_per_tuple": pass_cost / pass_tuples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = layer_metrics(
            tracer.spans,
            ops=ops * len(traced_walls),
            passes=len(traced_walls),
            op_seconds=traced_op_seconds,
            traced_walls=traced_walls,
            untraced_walls=untraced_walls,
        )
    return {
        "correct": failed == 0 and len(pass_totals) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def result_line(outcome: dict, trace: bool) -> str:
    from spans import PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    return json.dumps(
        {
            "correct": outcome["correct"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                name: {"value": outcome["metrics"][name], "unit": unit}
                for name, unit in units
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": outcome["info"]}))
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
