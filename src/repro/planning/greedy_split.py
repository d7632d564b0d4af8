"""GreedySplit: locally optimal binary splits (Section 4.2.1, Figure 6).

For a subproblem, the locally optimal split is the conditioning predicate
``T(X_i >= x)`` minimizing

    C'_i + P(X_i < x | R) * SeqCost(R with [a, x-1])
         + P(X_i >= x | R) * SeqCost(R with [x, b])

where ``SeqCost`` is the expected cost of the *base sequential planner*'s
plan for each side (OptSeq in the paper's small-query experiments, GreedySeq
for the larger ones).  The split is compared against simply running the
sequential plan without splitting; GreedyPlan (Figure 7) uses the difference
as its expansion priority.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.planning.base import (
    PlannerStats,
    SequentialPlanner,
    effective_cost,
    split_probabilities,
)
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["SplitChoice", "greedy_split"]


@dataclass(frozen=True)
class SplitChoice:
    """The locally optimal split for one subproblem."""

    cost: float
    attribute_index: int
    split_value: int
    probability_below: float
    below_cost: float
    below_plan: PlanNode
    above_cost: float
    above_plan: PlanNode


def greedy_split(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None = None,
    cost_model=None,
) -> SplitChoice | None:
    """Find the locally optimal binary split, or None when no split exists.

    Implements Figure 6 including its pruning: an attribute whose
    acquisition cost alone reaches the best total so far is skipped, and the
    second side of a split is only priced when the first side leaves room.
    The base planner supplies all side plans of an attribute at once
    (:meth:`SequentialPlanner.plan_split_sides`), so OptSeq can score them
    from one cumulative joint table.
    """
    schema = distribution.schema
    best: SplitChoice | None = None
    for index in range(len(schema)):
        acquisition = effective_cost(schema, ranges, index, cost_model)
        if best is not None and acquisition >= best.cost:
            continue
        candidates = policy.candidates(index, ranges)
        if not candidates:
            continue
        below_probabilities = split_probabilities(
            distribution, index, candidates, ranges
        )
        sides = base_planner.plan_split_sides(query, ranges, index, candidates)
        for position, (split_value, probability_below) in enumerate(
            zip(candidates, below_probabilities)
        ):
            if stats is not None:
                stats.splits_considered += 1
            below_cost = sides.cost(position, above=False)
            total = acquisition + probability_below * below_cost
            if best is not None and total >= best.cost:
                continue
            above_cost = sides.cost(position, above=True)
            total += (1.0 - probability_below) * above_cost
            if best is None or total < best.cost:
                best = SplitChoice(
                    cost=total,
                    attribute_index=index,
                    split_value=split_value,
                    probability_below=probability_below,
                    below_cost=below_cost,
                    below_plan=sides.plan(position, above=False),
                    above_cost=above_cost,
                    above_plan=sides.plan(position, above=True),
                )
        if stats is not None:
            stats.sequential_plans_built += sides.plans_built
    return best
