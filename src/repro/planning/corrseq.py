"""CorrSeq: the evaluation's correlation-aware sequential baseline.

Section 6 defines CorrSeq as "sequential plan chosen by considering data
correlations": OptSeq when the number of predicates is small enough for the
``O(m * 2**m)`` DP (the Lab dataset), GreedySeq otherwise (Garden and the
larger synthetic settings).  This wrapper encodes that dispatch so
benchmarks and the conditional heuristic can use one base planner across
datasets of any size.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.planning.base import SequentialPlanner, SplitSides
from repro.planning.greedy_sequential import GreedySequentialPlanner
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.probability.base import Distribution

__all__ = ["CorrSeqPlanner"]


class CorrSeqPlanner(SequentialPlanner):
    """OptSeq for small queries, GreedySeq beyond ``optimal_threshold``."""

    name = "corr-seq"

    def __init__(
        self,
        distribution: Distribution,
        optimal_threshold: int = 10,
        cost_model=None,
    ) -> None:
        super().__init__(distribution, cost_model)
        self._optimal_threshold = int(optimal_threshold)
        self._optimal = OptimalSequentialPlanner(distribution, cost_model)
        self._greedy = GreedySequentialPlanner(distribution, cost_model)

    @property
    def optimal_threshold(self) -> int:
        return self._optimal_threshold

    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        undetermined = len(query.undetermined_predicates(ranges))
        if undetermined <= self._optimal_threshold:
            return self._optimal.plan_sequence(query, ranges)
        return self._greedy.plan_sequence(query, ranges)

    def plan_split_sides(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        attribute_index: int,
        candidates: Sequence[int],
    ) -> SplitSides:
        # A split only removes predicates, so a subproblem at or under the
        # threshold has every side there too; otherwise each side picks its
        # planner in plan_sequence.
        if len(query.undetermined_predicates(ranges)) <= self._optimal_threshold:
            return self._optimal.plan_split_sides(
                query, ranges, attribute_index, candidates
            )
        return super().plan_split_sides(query, ranges, attribute_index, candidates)
