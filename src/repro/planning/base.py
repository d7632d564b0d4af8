"""Planner interfaces and shared helpers.

Two planner shapes exist in the paper:

- *sequential* planners (Section 4.1) produce a fixed predicate order for a
  subproblem — they implement :class:`SequentialPlanner.plan_sequence` and
  double as the leaf builders inside the conditional planners;
- *conditional* planners (Sections 3.2 and 4.2) produce full decision trees
  and implement only :class:`Planner.plan`.

Both report a :class:`PlanningResult` carrying the plan, its expected cost
under the planner's probability model, and search statistics.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode, SequentialNode, SequentialStep, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.probability.base import Distribution, PredicateBinding

if TYPE_CHECKING:
    from repro.analysis.certificates import CostCertificate
    from repro.learn.bandit import LearnedProvenance

__all__ = [
    "PlannerStats",
    "PlanningResult",
    "Planner",
    "SequentialPlanner",
    "SplitSides",
    "effective_cost",
    "resolved_leaf",
    "sequential_node_from_order",
    "require_conjunctive",
    "split_probabilities",
]


@dataclass
class PlannerStats:
    """Search-effort counters populated while planning."""

    subproblems: int = 0
    cache_hits: int = 0
    pruned: int = 0
    splits_considered: int = 0
    sequential_plans_built: int = 0

    def merge(self, other: "PlannerStats") -> None:
        self.subproblems += other.subproblems
        self.cache_hits += other.cache_hits
        self.pruned += other.pruned
        self.splits_considered += other.splits_considered
        self.sequential_plans_built += other.sequential_plans_built


@dataclass(frozen=True)
class PlanningResult:
    """The outcome of one planning run.

    ``planning_seconds`` is the wall-clock cost of producing the plan —
    zero unless the run went through :meth:`Planner.plan_timed`.  Serving
    layers use it to report planning-vs-execution latency and to decide
    whether a plan is worth caching.  ``certificate`` (when the planner
    issues one) carries per-subtree Eq. 3 cost-bound claims the verifier
    re-derives independently (``DF101``); the exhaustive planner exports
    it straight from its DP cache.  ``provenance`` is populated by the
    learned planner (:class:`repro.learn.BanditPlanner`): the arm
    posteriors and regret-ledger snapshot behind the emitted plan, which
    the verifier's ``LRN`` rule family audits.
    """

    plan: PlanNode
    expected_cost: float
    planner: str
    stats: PlannerStats = field(default_factory=PlannerStats)
    planning_seconds: float = 0.0
    certificate: "CostCertificate | None" = None
    provenance: "LearnedProvenance | None" = None


class Planner(ABC):
    """A query planner bound to a probability model.

    ``cost_model`` optionally replaces the schema's flat per-attribute
    costs with a Section 7 conditional cost model (e.g. shared sensor-board
    power-up); ``None`` keeps the paper's base model.
    """

    name = "planner"

    def __init__(
        self,
        distribution: Distribution,
        cost_model: AcquisitionCostModel | None = None,
    ) -> None:
        self._distribution = distribution
        self._cost_model = cost_model

    @property
    def distribution(self) -> Distribution:
        return self._distribution

    @property
    def cost_model(self) -> AcquisitionCostModel | None:
        return self._cost_model

    @property
    def schema(self):
        return self._distribution.schema

    @abstractmethod
    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        """Produce a plan for ``query`` over the full attribute space."""

    def plan_timed(self, query: ConjunctiveQuery) -> PlanningResult:
        """:meth:`plan`, with wall-clock planning cost stamped on the result."""
        start = time.perf_counter()
        result = self.plan(query)
        return replace(
            result, planning_seconds=time.perf_counter() - start
        )


class SequentialPlanner(Planner):
    """A planner whose plans are predicate orders (no conditioning splits)."""

    @abstractmethod
    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        """Best sequential plan for the subproblem ``ranges``.

        Returns ``(expected_cost, plan)`` where the cost is conditioned on
        the subproblem (Equation 3 evaluated under the planner's
        distribution) and the plan is a :class:`SequentialNode` — or a
        :class:`VerdictLeaf` when the ranges already determine the query.
        """

    def plan_split_sides(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        attribute_index: int,
        candidates: Sequence[int],
    ) -> "SplitSides":
        """Sequential plans for both sides of every candidate split.

        GreedySplit (Figure 6) prices each candidate ``T(X_i >= x)`` by the
        base plans of ``ranges.split(attribute_index, x)``.  This default
        plans each side with :meth:`plan_sequence` on first use, so sides
        GreedySplit prunes are never planned; planners that can score all
        sides of an attribute together override it.
        """
        return SplitSides(self, query, ranges, attribute_index, candidates)

    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        require_conjunctive(query)
        ranges = RangeVector.full(self.schema)
        cost, node = self.plan_sequence(query, ranges)
        stats = PlannerStats(sequential_plans_built=1)
        return PlanningResult(
            plan=node, expected_cost=cost, planner=self.name, stats=stats
        )


class SplitSides:
    """Base sequential plans for the two sides of one attribute's splits.

    Position ``k`` names the candidate split ``candidates[k]``; side
    ``above=False`` is ``[a, x-1]`` and ``above=True`` is ``[x, b]``.  This
    is the reference implementation: each side is planned with
    ``planner.plan_sequence`` the first time its cost or plan is read.
    ``plans_built`` counts the side plans produced so far.
    """

    def __init__(
        self,
        planner: SequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        attribute_index: int,
        candidates: Sequence[int],
    ) -> None:
        self._planner = planner
        self._query = query
        self._ranges = ranges
        self._attribute_index = attribute_index
        self._candidates = tuple(candidates)
        self._sides: dict[tuple[int, bool], tuple[float, PlanNode]] = {}

    @property
    def plans_built(self) -> int:
        return len(self._sides)

    def cost(self, position: int, above: bool) -> float:
        """Expected cost of the side's base plan, conditioned on the side."""
        return self._side(position, above)[0]

    def plan(self, position: int, above: bool) -> PlanNode:
        """The side's base sequential plan."""
        return self._side(position, above)[1]

    def _side(self, position: int, above: bool) -> tuple[float, PlanNode]:
        key = (position, above)
        side = self._sides.get(key)
        if side is None:
            halves = self._ranges.split(
                self._attribute_index, self._candidates[position]
            )
            side = self._planner.plan_sequence(self._query, halves[above])
            self._sides[key] = side
        return side


def require_conjunctive(query) -> None:
    """Reject non-conjunctive queries where fail-fast semantics apply.

    Sequential plans reject a tuple at the first failing predicate, which
    is only sound for conjunctions; boolean formulas must go through the
    exhaustive planner (Section 3.1 vs Section 4.1).
    """
    if not isinstance(query, ConjunctiveQuery):
        raise PlanningError(
            f"{type(query).__name__} is not conjunctive; sequential and "
            "heuristic planners require ConjunctiveQuery — use "
            "ExhaustivePlanner for boolean formulas"
        )


def effective_cost(
    schema,
    ranges: RangeVector,
    attribute_index: int,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """Acquisition cost ``C'_i`` within a subproblem (Section 3.2).

    Zero when the attribute was already acquired (its range is narrowed);
    otherwise the schema cost ``C_i`` — or, under a conditional cost model,
    the cost given the attributes the subproblem has acquired so far.
    """
    if ranges.is_acquired(attribute_index):
        return 0.0
    if cost_model is None:
        return schema[attribute_index].cost
    return cost_model.cost(attribute_index, ranges.acquired_indices())


def resolved_leaf(query: ConjunctiveQuery, ranges: RangeVector) -> VerdictLeaf | None:
    """A verdict leaf when ``ranges`` already determine the query, else None."""
    truth = query.truth_under(ranges)
    if truth is Truth.UNDETERMINED:
        return None
    return VerdictLeaf(verdict=truth is Truth.TRUE)


def sequential_node_from_order(
    order: list[PredicateBinding],
) -> SequentialNode:
    """Wrap an ordered list of predicate bindings as a plan node."""
    steps = tuple(
        SequentialStep(predicate=predicate, attribute_index=index)
        for predicate, index in order
    )
    return SequentialNode(steps=steps)


def split_probabilities(
    distribution: Distribution,
    attribute_index: int,
    candidates: list[int],
    ranges: RangeVector,
) -> list[float]:
    """``P(X_i < x | R)`` for every candidate split, from one histogram.

    This is exactly Equation 7: a single per-subproblem histogram yields
    every range probability incrementally via its cumulative sums, instead
    of one counting pass per candidate.
    """
    if not candidates:
        return []
    interval = ranges[attribute_index]
    histogram = distribution.attribute_histogram(attribute_index, ranges)
    total = float(histogram.sum())
    if total <= 0.0:
        # Unreachable subproblem: uniform fallback, matching
        # Distribution.split_probability.
        return [(value - interval.low) / len(interval) for value in candidates]
    cumulative = np.cumsum(histogram)
    return [
        float(cumulative[value - interval.low - 1]) / total for value in candidates
    ]
