"""OptSeq: the optimal sequential planner (Section 4.1.2).

Any conjunctive query can be *rediscretized* onto binary attributes
``X'_i = 1 iff predicate phi_i holds``; the optimal order in which to
evaluate the predicates then follows from a dynamic program over the lattice
of satisfied-predicate sets.  Because evaluation stops at the first failing
predicate, the only states that matter are "the predicates in S all held",
giving the recursion

    J(S) = min over j not in S of  C'_j + P(phi_j | S) * J(S + {j})

with ``J(all) = 0``.  The conditionals come from one joint pmf over
predicate-outcome bitmasks (``Distribution.predicate_joint``) turned into
superset sums (:mod:`repro.probability.joint`), so each planning call costs
``O(m * 2**m)`` DP work plus one pass over the subproblem's rows — exactly
the complexity the paper reports.

GreedySplit asks for the plans of both sides of every candidate split of an
attribute.  Over an :class:`EmpiricalDistribution` they all come from one
(value x outcome-code) count table: its cumulative sum along the value axis
is every below side's joint, and the total minus it every above side's
(Equation 7 lifted to the predicate lattice).  The DP then runs once over
the whole batch of sides, and each side's Equation 3 cost is read off the
same superset counts.  :meth:`OptimalSequentialPlanner.plan_sequence` is the
batch-of-one case of the same DP.

Finding the optimal sequential plan is NP-hard in general (Munagala et al.),
so this planner guards against large ``m``; the evaluation uses it for small
queries (Lab) and GreedySeq elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Sequence

import numpy as np

from repro.core.cost import expected_cost
from repro.core.plan import PlanNode, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import Range, RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    SequentialPlanner,
    SplitSides,
    resolved_leaf,
    sequential_node_from_order,
)
from repro.probability.base import PredicateBinding
from repro.probability.empirical import EmpiricalDistribution
from repro.probability.joint import superset_sums

__all__ = ["OptimalSequentialPlanner"]

# 2**m DP states; past this the joint table and DP are impractical and the
# caller should switch to GreedySeq (the paper does the same).
_MAX_PREDICATES = 18

# Bound on the (sides x states x predicates) cells one batched DP sweep
# holds; larger batches of sides are scored in chunks.
_BATCH_CELLS = 1 << 20


class OptimalSequentialPlanner(SequentialPlanner):
    """Exact sequential ordering via subset DP on rediscretized predicates."""

    name = "opt-seq"

    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        leaf = resolved_leaf(query, ranges)
        if leaf is not None:
            return 0.0, leaf

        bindings = query.undetermined_predicates(ranges)
        _check_size(len(bindings))
        joint = self.distribution.predicate_joint(bindings, ranges)
        order = _optimal_orders(
            superset_sums(joint)[None, :],
            self._state_costs(bindings, ranges.acquired_indices()),
        )[0]
        node = sequential_node_from_order([bindings[j] for j in order])
        # Report the cost under the planner's distribution (same yardstick
        # as every other planner) rather than the raw DP value; the two
        # agree exactly when the distribution is unsmoothed.
        return expected_cost(node, self.distribution, ranges, self.cost_model), node

    def plan_split_sides(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        attribute_index: int,
        candidates: Sequence[int],
    ) -> SplitSides:
        if not candidates or not isinstance(
            self.distribution, EmpiricalDistribution
        ):
            return super().plan_split_sides(
                query, ranges, attribute_index, candidates
            )
        return _ScoredSplitSides(self, query, ranges, attribute_index, candidates)

    def _state_costs(
        self, bindings: Sequence[PredicateBinding], acquired: AbstractSet[int]
    ) -> np.ndarray:
        """``C'_j`` at every DP state: an array of shape ``(2**m, m)``.

        ``acquired`` holds the attributes the subproblem has narrowed.
        Under a conditional cost model (Section 7) the acquired set at
        state ``S`` is exactly those plus ``S``'s attributes, so the DP
        remains exact.
        """
        count = len(bindings)
        schema = self.schema
        attribute_of = [index for _, index in bindings]
        static = [
            0.0 if index in acquired else schema[index].cost for index in attribute_of
        ]
        table = np.empty((1 << count, count))
        table[:] = static
        cost_model = self.cost_model
        if cost_model is None:
            return table
        for state in range(1 << count):
            held = set(acquired)
            held.update(attribute_of[k] for k in range(count) if state & (1 << k))
            for j in range(count):
                if not state & (1 << j) and attribute_of[j] not in acquired:
                    table[state, j] = cost_model.cost(attribute_of[j], held)
        return table


def _check_size(count: int) -> None:
    if count > _MAX_PREDICATES:
        raise PlanningError(
            f"OptSeq over {count} predicates needs 2**{count} DP states; "
            "use GreedySequentialPlanner for large queries"
        )


@lru_cache(maxsize=None)
def _lattice(
    count: int,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The DP's state lattice over ``count`` predicates.

    Returns ``(successors, taken, levels)``: ``state | 1 << j`` and whether
    ``j`` is already in the state, both of shape ``(2**count, count)``, and
    the states grouped by popcount, largest first, each with its
    successors.  ``J(S)`` depends only on ``J(S | bit)`` — a larger
    popcount — so the levels are a valid evaluation order.
    """
    masks = np.arange(1 << count)
    bits = 1 << np.arange(count)
    successors = masks[:, None] | bits
    taken = (masks[:, None] & bits) != 0
    popcounts = taken.sum(axis=1)
    levels = tuple(
        (masks[popcounts == popcount], successors[popcounts == popcount])
        for popcount in range(count - 1, -1, -1)
    )
    return successors, taken, levels


def _optimal_orders(sums: np.ndarray, state_costs: np.ndarray) -> np.ndarray:
    """OptSeq's DP over a batch of problems sharing one predicate list.

    ``sums`` holds one row of superset sums per problem (shape
    ``(batch, 2**m)``) and ``state_costs`` the ``C'_j`` table of
    :meth:`OptimalSequentialPlanner._state_costs`.  Returns the optimal
    order of predicate positions per problem, shape ``(batch, m)``.  The
    transition rule is :func:`~repro.probability.joint.conditional_from_superset_sums`
    (0.5 on an unseen conditioning event) and ties go to the lowest ``j``,
    as ``argmin`` keeps the first minimum.
    """
    batch, size = sums.shape
    count = size.bit_length() - 1
    successors, taken, levels = _lattice(count)
    denominator = sums[:, :, None]
    passed = np.full((batch, size, count), 0.5)
    np.divide(sums[:, successors], denominator, out=passed, where=denominator > 0.0)
    costs = np.where(taken, np.inf, state_costs)
    best = np.zeros((batch, size))
    choice = np.zeros((batch, size), dtype=np.intp)
    for states, following in levels:
        values = costs[states] + passed[:, states] * best[:, following]
        choice[:, states] = values.argmin(axis=2)
        best[:, states] = values.min(axis=2)
    orders = np.empty((batch, count), dtype=np.intp)
    state = np.zeros(batch, dtype=np.intp)
    problems = np.arange(batch)
    for step in range(count):
        picks = choice[problems, state]
        orders[:, step] = picks
        state |= 1 << picks
    return orders


class _ScoredSplitSides(SplitSides):
    """Every side of one attribute's splits, scored in one batched pass.

    Queries use distinct attributes, so a split can decide only the
    predicate on its own attribute, and the sides fall into at most two
    groups: those where it stays undetermined (every predicate of the
    subproblem remains) and those where it holds (it drops out).  Sides
    where it fails, or where nothing remains, are verdict leaves.  Each
    group's raw joints are rows of the cumulative count table; the DP and
    the Equation 3 costs run over the group at once.  The arithmetic
    repeats :meth:`EmpiricalDistribution.predicate_joint` and the row-set
    conditioner operation for operation, so costs and orders are
    bit-identical to planning each side alone.
    """

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        attribute_index: int,
        candidates: Sequence[int],
    ) -> None:
        super().__init__(planner, query, ranges, attribute_index, candidates)
        shape = (len(self._candidates), 2)
        self._costs = np.zeros(shape)
        # Side -> group (-1 for a verdict leaf) and row within the group.
        self._group_of = np.full(shape, -1)
        self._row_of = np.zeros(shape, dtype=np.intp)
        self._groups: list[tuple[list[PredicateBinding], np.ndarray]] = []
        truths = [
            predicate.truth_under(ranges[index])
            for predicate, index in zip(query.predicates, query.attribute_indices)
        ]
        self._verdicts = np.full(shape, Truth.FALSE not in truths)
        outer = [k for k, truth in enumerate(truths) if truth is Truth.UNDETERMINED]
        if not outer or Truth.FALSE in truths:
            return
        target = next(
            (k for k in outer if query.attribute_indices[k] == attribute_index),
            None,
        )
        interval = ranges[attribute_index]
        holds = np.zeros(shape, dtype=bool)
        fails = np.zeros(shape, dtype=bool)
        if target is not None:
            predicate = query.predicates[target]
            for position, value in enumerate(self._candidates):
                halves = (Range(interval.low, value - 1), Range(value, interval.high))
                for above, half in enumerate(halves):
                    truth = predicate.truth_under(half)
                    holds[position, above] = truth is Truth.TRUE
                    fails[position, above] = truth is Truth.FALSE
        self._verdicts[fails] = False
        groups = [(outer, ~(holds | fails))]
        if target is not None and len(outer) > 1:
            groups.append(([k for k in outer if k != target], holds))

        distribution = planner.distribution
        assert isinstance(distribution, EmpiricalDistribution)
        table = distribution.value_outcome_counts(
            attribute_index,
            [(query.predicates[k], query.attribute_indices[k]) for k in outer],
            ranges,
        )
        below = np.cumsum(table, axis=0)
        acquired = ranges.acquired_indices() | {attribute_index}
        cells = np.asarray(self._candidates) - interval.low - 1
        for members, selected in groups:
            positions, uppers = np.nonzero(selected)
            if positions.size == 0:
                continue
            _check_size(len(members))
            # The table's codes range over ``outer``; a group without the
            # target reads only the codes with its bit set, renumbered over
            # the group's own predicates.
            reduced = np.arange(1 << len(members))
            codes = np.zeros_like(reduced)
            for bit, k in enumerate(outer):
                if k in members:
                    codes |= ((reduced >> members.index(k)) & 1) << bit
                else:
                    codes |= 1 << bit
            counts = below[cells[positions]][:, codes]
            upper = uppers == 1
            counts[upper] = below[-1, codes] - counts[upper]
            bindings = [
                (query.predicates[k], query.attribute_indices[k]) for k in members
            ]
            state_costs = planner._state_costs(bindings, acquired)
            orders = np.empty((positions.size, len(members)), dtype=np.intp)
            chunk = max(1, _BATCH_CELLS // (codes.size * len(members)))
            for start in range(0, positions.size, chunk):
                part = slice(start, start + chunk)
                orders[part], self._costs[positions[part], uppers[part]] = _score(
                    planner, counts[part], bindings, acquired, state_costs
                )
            self._group_of[positions, uppers] = len(self._groups)
            self._row_of[positions, uppers] = np.arange(positions.size)
            self._groups.append((bindings, orders))

    @property
    def plans_built(self) -> int:
        return 2 * len(self._candidates)

    def cost(self, position: int, above: bool) -> float:
        return float(self._costs[position, int(above)])

    def plan(self, position: int, above: bool) -> PlanNode:
        side = (position, int(above))
        group = int(self._group_of[side])
        if group < 0:
            return VerdictLeaf(verdict=bool(self._verdicts[side]))
        bindings, orders = self._groups[group]
        order = orders[self._row_of[side]].tolist()
        return sequential_node_from_order([bindings[j] for j in order])


def _score(
    planner: OptimalSequentialPlanner,
    counts: np.ndarray,
    bindings: list[PredicateBinding],
    acquired: AbstractSet[int],
    state_costs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal orders and their Equation 3 costs for a batch of sides.

    ``counts`` holds each side's raw joint over ``bindings`` (one row per
    side); ``acquired`` is the sides' common acquired set.
    """
    distribution = planner.distribution
    assert isinstance(distribution, EmpiricalDistribution)
    smoothing = distribution.smoothing
    # C order: each side's total must be numpy's pairwise sum of one
    # contiguous row, as for the 1-D joint of a side planned alone.
    raw = counts.astype(np.float64, order="C")
    # EmpiricalDistribution.predicate_joint: smoothed, normalized counts,
    # and all zeros for a side without training rows.
    smoothed = raw + smoothing if smoothing else raw
    joint = np.zeros_like(smoothed)
    np.divide(
        smoothed,
        smoothed.sum(axis=1, keepdims=True),
        out=joint,
        where=raw.sum(axis=1, keepdims=True) > 0.0,
    )
    orders = _optimal_orders(superset_sums(joint), state_costs)

    # Equation 3 over each side's order, as the row-set conditioner walks
    # it: the rows surviving a prefix are its superset count.  A side whose
    # survival reached zero adds zero charge from then on, which is the
    # conditioner walk's early exit.
    survivors = superset_sums(raw)
    charges = _step_charges(planner, bindings, acquired, orders)
    sides = np.arange(len(counts))
    total = np.zeros(len(counts))
    survival = np.ones(len(counts))
    prefix = np.zeros(len(counts), dtype=np.intp)
    for step in range(orders.shape[1]):
        total += survival * charges[:, step]
        bit = 1 << orders[:, step]
        rows = survivors[sides, prefix] + 2.0 * smoothing
        passed = np.zeros(len(counts))
        seen = rows > 0.0
        np.divide(
            survivors[sides, prefix | bit] + smoothing, rows, out=passed, where=seen
        )
        if not seen.all():
            # An unseen conditioning event falls back to the predicate's
            # marginal within the side (conjunction_probability).
            unseen = ~seen
            side_rows = survivors[unseen, 0] + 2.0 * smoothing
            marginal = np.zeros(side_rows.size)
            np.divide(
                survivors[unseen, bit[unseen]] + smoothing,
                side_rows,
                out=marginal,
                where=side_rows > 0.0,
            )
            passed[unseen] = marginal
        survival *= passed
        prefix |= bit
    return orders, total


def _step_charges(
    planner: OptimalSequentialPlanner,
    bindings: list[PredicateBinding],
    acquired: AbstractSet[int],
    orders: np.ndarray,
) -> np.ndarray:
    """The acquisition charge of every step of each order.

    Mirrors :func:`~repro.core.cost.expected_cost` on a sequential leaf: a
    step pays only when its attribute is not yet acquired (zero here
    otherwise), at the schema cost or the conditional cost model's price
    given the acquisitions so far.  Computed once per distinct order.
    """
    schema = planner.schema
    cost_model = planner.cost_model
    distinct: dict[tuple[int, ...], int] = {}
    slots = [
        distinct.setdefault(tuple(order), len(distinct))
        for order in orders.tolist()
    ]
    charges = np.zeros((len(distinct), len(bindings)))
    for row, order in enumerate(distinct):
        held = set(acquired)
        for step, j in enumerate(order):
            index = bindings[j][1]
            if index in held:
                continue
            if cost_model is None:
                charges[row, step] = schema[index].cost
            else:
                charges[row, step] = cost_model.cost(index, held)
            held.add(index)
    return charges[slots]
