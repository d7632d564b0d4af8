"""Self-tests of the benchmark itself.

Usage, from the root of a checkout (takes a few minutes):

    python3 reqbench/selftest.py [name ...]

Checks that one seed gives a byte-identical op stream and two seeds give
different ones; that ``cost_per_tuple`` and every count metric are
identical across runs of different lengths; that the oracle flags a
corrupted answer, a flipped stream verdict and a broken ledger; that no
wrapper is installed during an untraced run and uninstalling the tracer
restores every wrapped function; that every declared metric is printed
with its unit; and that the benchmark fails without the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_op_stream_determinism() -> None:
    for workload in WORKLOADS.values():
        world = workload.build()
        first = json.dumps(workload.steps(world, 1)).encode()
        again = json.dumps(workload.steps(world, 1)).encode()
        other = json.dumps(workload.steps(world, 2)).encode()
        assert first == again, f"{workload.name}: seed 1 is not reproducible"
        assert first != other, f"{workload.name}: seeds 1 and 2 agree"


def test_counts_repeat_across_lengths() -> None:
    for workload in WORKLOADS.values():
        short = run.measure(workload, 3, 0, trace=False, passes=1)
        long = run.measure(workload, 3, 0, trace=False, passes=2)
        assert short["correct"] and long["correct"], workload.name
        assert short["metrics"]["cost_per_tuple"] == long["metrics"]["cost_per_tuple"], (
            workload.name
        )
        short = run.measure(workload, 3, 0, trace=True, passes=2)
        long = run.measure(workload, 3, 0, trace=True, passes=4)
        for name in spans.COUNTS:
            assert short["metrics"][name] == long["metrics"][name], (workload.name, name)


def test_oracle_flags_corruption() -> None:
    workload = WORKLOADS["refit_churn"]
    world = workload.build()
    step = next(
        s for s in workload.steps(world, 1) if s[0] == "execute" and world.expected(s[1], s[2])
    )
    result = workload.run(world, step)
    assert workload.check(world, step, result)[0]
    rows = list(result.rows)
    rows[0] = (rows[0][0] + 1,) + rows[0][1:]
    for corrupt in (
        dataclasses.replace(result, rows=tuple(rows)),
        dataclasses.replace(result, rows=result.rows[1:]),
        dataclasses.replace(result, tuples_scanned=result.tuples_scanned - 1),
    ):
        assert not workload.check(world, step, corrupt)[0]

    workload = WORKLOADS["drift_stream"]
    world = workload.build()
    step = workload.steps(world, 1)[0]
    learned, adaptive = workload.run(world, step)
    assert workload.check(world, step, (learned, adaptive))[0]
    flipped = adaptive.verdicts.copy()
    flipped[0] = not flipped[0]
    assert not workload.check(
        world, step, (learned, dataclasses.replace(adaptive, verdicts=flipped))
    )[0]
    flipped = learned.verdicts.copy()
    flipped[-1] = not flipped[-1]
    assert not workload.check(
        world, step, (dataclasses.replace(learned, verdicts=flipped), adaptive)
    )[0]
    unbalanced = dataclasses.replace(learned, costs=learned.costs + 1.0)
    assert not workload.check(world, step, (unbalanced, adaptive))[0]


def _originals() -> dict:
    return {(owner, name): vars(owner)[name] for owner, name, _, _ in spans.targets()}


def test_tracer_install_and_restore() -> None:
    before = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, name), original in before.items():
            assert vars(owner)[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for (owner, name), original in before.items():
        assert vars(owner)[name] is original, (owner, name)

    # An untraced run never installs a wrapper.
    class Probe(type(WORKLOADS["refit_churn"])):
        def run(self, world, step):
            for (owner, name), original in before.items():
                assert vars(owner)[name] is original, (owner, name)
            return super().run(world, step)

    assert run.measure(Probe(), 1, 0, trace=False, passes=1)["correct"]


def _result(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "reqbench/run.py", "--workload", "refit_churn",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_every_declared_metric_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        completed = _result(ROOT, trace)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}, printed
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float)), metric


def test_fails_without_the_program() -> None:
    bare = ROOT / ".selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "reqbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = _result(bare, 0)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(names: list[str]) -> int:
    tests = {
        name: function
        for name, function in globals().items()
        if name.startswith("test_") and (not names or name in names)
    }
    failures = 0
    for name, function in tests.items():
        try:
            function()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {name}: {error!r}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
