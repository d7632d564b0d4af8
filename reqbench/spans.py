"""Layer tracer for the traced run: wraps each layer's public function.

Each target is replaced at the name its caller resolves it by (a module
attribute such as ``repro.service.service.parse_query``, or a class
attribute such as ``PlanCache.get``), so nothing under ``src/repro``
changes.  A wrapper records one span per call: its duration, its self
time (duration minus the child spans it contains), the op it ran in and
a small note taken from the result.  :meth:`Tracer.uninstall` puts every
original object back.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# Per-layer metrics in output order: (name, unit).
PER_LAYER = (
    ("parse.us_p50", "us"),
    ("parse.calls_per_op", "count"),
    ("fingerprint.us_p50", "us"),
    ("cache.get_us_p50", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.invalidated_per_pass", "count"),
    ("plan.ms_p50", "ms"),
    ("plan.ms_max", "ms"),
    ("plan.count_per_pass", "count"),
    ("plan.share", "ratio"),
    ("refit.ms_p50", "ms"),
    ("verify.ms_p50", "ms"),
    ("verify.count_per_pass", "count"),
    ("verify.rejected", "count"),
    ("execute.us_p50", "us"),
    ("execute.rows_per_s", "rows/s"),
    ("engine.self_us_p50", "us"),
    ("service.self_us_p50", "us"),
    ("stream.adaptive.us_per_tuple", "us/tuple"),
    ("stream.adaptive.replans_per_pass", "count"),
    ("stream.adaptive.cost_per_tuple", "units/tuple"),
    ("stream.learned.us_per_tuple", "us/tuple"),
    ("stream.learned.replans_per_pass", "count"),
    ("stream.learned.replans_per_pass.warmup", "count"),
    ("stream.learned.replans_per_pass.order-swap", "count"),
    ("stream.learned.replans_per_pass.commit", "count"),
    ("stream.learned.replans_per_pass.drift-refit", "count"),
    ("stream.learned.cost_per_tuple", "units/tuple"),
    ("stream.learned.ledger_gap", "units"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

# Metrics that are counts (or ratios of counts): they repeat exactly.
COUNTS = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" or name == "cache.hit_rate"
)


@dataclass(frozen=True)
class Span:
    layer: str
    seconds: float
    self_seconds: float
    depth: int
    op: int
    note: Any


def _stream_note(report, _args) -> dict:
    gap = report.ledger_gap() if hasattr(report, "ledger_gap") else 0.0
    return {
        "tuples": int(report.costs.size),
        "cost": float(report.costs.sum()),
        "replans": tuple(event.reason for event in report.replans),
        "gap": float(gap),
    }


def _planner_classes() -> list[type]:
    import repro.learn  # noqa: F401  (loads the bandit planner subclass)
    import repro.planning  # noqa: F401
    from repro.planning.base import Planner

    found, pending = [], [Planner]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        method = vars(cls).get("plan")
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, layer, note)`` for every wrapped function."""
    import repro.engine.engine as engine_module
    import repro.service.service as service_module
    from repro.engine.engine import AcquisitionalEngine
    from repro.execution.streaming import AdaptiveStreamExecutor
    from repro.learn.stream import LearnedStreamExecutor
    from repro.service.cache import PlanCache
    from repro.service.service import AcquisitionalService

    return [
        (service_module, "parse_query", "parse", None),
        (service_module, "fingerprint_parsed", "fingerprint", None),
        (PlanCache, "get", "cache.get", lambda result, _args: result is not None),
        (PlanCache, "invalidate_stale", "cache.invalidate", lambda result, _args: result),
        *[(cls, "plan", "plan", None) for cls in _planner_classes()],
        (AcquisitionalService, "refit", "refit", None),
        (service_module, "verify_plan", "verify", lambda report, _args: report.ok),
        (
            engine_module,
            "dataset_execution",
            "execute",
            lambda _result, args: int(args[1].shape[0]),
        ),
        (AcquisitionalEngine, "execute_prepared", "engine", None),
        (AcquisitionalService, "execute", "service", None),
        (AdaptiveStreamExecutor, "process", "stream.adaptive", _stream_note),
        (LearnedStreamExecutor, "process", "stream.learned", _stream_note),
    ]


class Tracer:
    """Installs span-recording wrappers; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1  # index of the running op, -1 between ops
        self._stack: list[list[float]] = []  # child seconds per open span
        self._planning = 0
        self._saved: list[tuple[object, str, bool, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, layer, note in targets():
            owned = attribute in vars(owner)
            raw = vars(owner)[attribute] if owned else None
            self._saved.append((owner, attribute, owned, raw))
            setattr(owner, attribute, self._wrap(layer, getattr(owner, attribute), note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, owned, raw = self._saved.pop()
            if owned:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    def _wrap(self, layer: str, function: Callable, note: Callable | None) -> Callable:
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if layer == "plan":
                if tracer._planning:  # a base planner inside a conditional one
                    return function(*args, **kwargs)
                tracer._planning += 1
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                if layer == "plan":
                    tracer._planning -= 1
            tracer.spans.append(
                Span(
                    layer,
                    seconds,
                    seconds - children[0],
                    len(stack),
                    tracer.op,
                    note(result, args) if note is not None else None,
                )
            )
            return result

        wrapper.__wrapped__ = function
        return wrapper


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    *,
    ops: int,
    passes: int,
    op_seconds: float,
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes."""
    by: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by[span.layer].append(span)

    def us(*layers: str, self_time: bool = False) -> float:
        return 1e6 * _median(
            [
                s.self_seconds if self_time else s.seconds
                for layer in layers
                for s in by[layer]
            ]
        )

    def per_pass(count: float) -> float:
        return count / passes

    plans = [s.seconds for s in by["plan"]]
    gets = by["cache.get"]
    rows = sum(s.note for s in by["execute"])
    execute_seconds = sum(s.seconds for s in by["execute"])
    metrics = {
        "parse.us_p50": us("parse"),
        "parse.calls_per_op": len(by["parse"]) / ops,
        "fingerprint.us_p50": us("fingerprint"),
        "cache.get_us_p50": us("cache.get"),
        "cache.hit_rate": sum(s.note for s in gets) / len(gets) if gets else 0.0,
        "cache.invalidated_per_pass": per_pass(sum(s.note for s in by["cache.invalidate"])),
        "plan.ms_p50": 1e3 * _median(plans),
        "plan.ms_max": 1e3 * max(plans, default=0.0),
        "plan.count_per_pass": per_pass(len(plans)),
        "plan.share": sum(plans) / sum(traced_walls),
        "refit.ms_p50": 1e-3 * us("refit"),
        "verify.ms_p50": 1e-3 * us("verify"),
        "verify.count_per_pass": per_pass(len(by["verify"])),
        "verify.rejected": per_pass(sum(not s.note for s in by["verify"])),
        "execute.us_p50": us("execute"),
        "execute.rows_per_s": rows / execute_seconds if execute_seconds else 0.0,
        "engine.self_us_p50": us("engine", self_time=True),
        "service.self_us_p50": us("service", self_time=True),
    }
    for loop in ("adaptive", "learned"):
        runs = by[f"stream.{loop}"]
        tuples = sum(s.note["tuples"] for s in runs)
        metrics[f"stream.{loop}.us_per_tuple"] = (
            1e6 * sum(s.seconds for s in runs) / tuples if tuples else 0.0
        )
        reasons = [reason for s in runs for reason in s.note["replans"]]
        metrics[f"stream.{loop}.replans_per_pass"] = per_pass(len(reasons))
        metrics[f"stream.{loop}.cost_per_tuple"] = (
            sum(s.note["cost"] for s in runs) / tuples if tuples else 0.0
        )
        if loop == "learned":
            for reason in ("warmup", "order-swap", "commit", "drift-refit"):
                metrics[f"stream.learned.replans_per_pass.{reason}"] = per_pass(
                    reasons.count(reason)
                )
            metrics["stream.learned.ledger_gap"] = max(
                (s.note["gap"] for s in runs), default=0.0
            )
    covered = sum(s.seconds for s in spans if s.depth == 0 and s.op >= 0)
    metrics["trace.coverage"] = covered / op_seconds
    metrics["trace.overhead"] = _median(traced_walls) / _median(untraced_walls)
    return metrics
