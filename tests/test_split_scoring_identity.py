"""Batched split scoring is bit-identical to planning each side alone.

GreedySplit (Figure 6) prices every candidate split ``T(X_i >= x)`` by the
base plans of its two sides.  :meth:`OptimalSequentialPlanner.plan_split_sides`
scores all sides of one attribute from a single cumulative (value x
predicate-outcome) count table; the base-class
:meth:`SequentialPlanner.plan_split_sides` plans each side with
``plan_sequence``.  Both must agree exactly: costs compared with ``==``,
plans with ``==``, and therefore every :class:`SplitChoice` and every
Heuristic-k plan built from them.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _lint_suite_datasets
from repro.core import Range, RangeVector
from repro.core.predicates import Truth
from repro.core.cost_models import BoardAwareCostModel
from repro.data import (
    garden_queries,
    generate_garden_dataset,
    generate_lab_dataset,
    generate_synthetic_dataset,
    lab_queries,
)
from repro.planning import (
    CorrSeqPlanner,
    GreedyConditionalPlanner,
    OptimalSequentialPlanner,
    SequentialPlanner,
    SplitPointPolicy,
    greedy_split,
)
from repro.planning.base import effective_cost, sequential_node_from_order
from repro.probability import EmpiricalDistribution
from repro.probability.joint import conditional_from_superset_sums, superset_sums


class PerSideOptSeq(OptimalSequentialPlanner):
    """OptSeq scoring split sides with the base-class per-side loop."""

    plan_split_sides = SequentialPlanner.plan_split_sides


class PerSideCorrSeq(CorrSeqPlanner):
    """CorrSeq scoring split sides with the base-class per-side loop."""

    plan_split_sides = SequentialPlanner.plan_split_sides


def _lab():
    lab = generate_lab_dataset(
        n_readings=1500,
        n_motes=4,
        seed=3,
        domain_sizes={"hour": 8, "voltage": 5, "light": 8, "temp": 8, "humidity": 8},
    )
    return lab.schema, lab.data, lab_queries(lab, 3, seed=2)


def _garden():
    garden = generate_garden_dataset(
        n_motes=5,
        n_epochs=400,
        seed=4,
        domain_sizes={"hour": 6, "temp": 5, "humidity": 5, "voltage": 4},
    )
    queries = garden_queries(garden, 1, seed=1)
    return (
        garden.schema,
        garden.data,
        queries + garden_queries(garden, 1, seed=2, negated=True),
    )


def _synthetic():
    synthetic = generate_synthetic_dataset(
        n_attributes=5, gamma=2, selectivity=0.4, n_rows=800, seed=6
    )
    return synthetic.schema, synthetic.data, [synthetic.query()]


DATASETS = {"lab": _lab(), "garden5": _garden(), "synthetic": _synthetic()}


def _board_model(schema):
    boards = {index: f"board{index % 2}" for index in range(len(schema))}
    return BoardAwareCostModel(schema, boards, power_up_cost=3.0)


def _planners(schema, data, smoothing, conditional):
    distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
    cost_model = _board_model(schema) if conditional else None
    return (
        OptimalSequentialPlanner(distribution, cost_model=cost_model),
        PerSideOptSeq(distribution, cost_model=cost_model),
    )


def scalar_optseq_plan(planner, query, ranges):
    """OptSeq's subset DP written out one state and predicate at a time.

    ``J(S) = min_j C'_j(S) + P(j | S) * J(S + j)``, ties to the lowest
    ``j``; the oracle for the vectorized DP behind ``plan_sequence``.
    """
    bindings = query.undetermined_predicates(ranges)
    count = len(bindings)
    sums = superset_sums(planner.distribution.predicate_joint(bindings, ranges))
    cost_model = planner.cost_model

    def charge(j, state):
        index = bindings[j][1]
        if cost_model is None or ranges.is_acquired(index):
            return effective_cost(planner.schema, ranges, index)
        held = set(ranges.acquired_indices())
        held.update(bindings[k][1] for k in range(count) if state >> k & 1)
        return cost_model.cost(index, held)

    best = [0.0] * (1 << count)
    choice = [-1] * (1 << count)
    for state in range((1 << count) - 2, -1, -1):
        best[state] = float("inf")
        for j in range(count):
            if state >> j & 1:
                continue
            passed = conditional_from_superset_sums(sums, state, 1 << j)
            value = charge(j, state) + passed * best[state | 1 << j]
            if value < best[state]:
                best[state], choice[state] = value, j
    order, state = [], 0
    while state != (1 << count) - 1:
        order.append(bindings[choice[state]])
        state |= 1 << choice[state]
    return sequential_node_from_order(order)


def assert_sides_identical(batched, reference, query, ranges):
    """Every side of every candidate split, then GreedySplit's choice."""
    for index in range(len(ranges)):
        candidates = list(ranges.split_candidates(index))
        if not candidates:
            continue
        fast = batched.plan_split_sides(query, ranges, index, candidates)
        slow = reference.plan_split_sides(query, ranges, index, candidates)
        for position, value in enumerate(candidates):
            for above in (False, True):
                side = (index, value, above)
                assert fast.cost(position, above) == slow.cost(position, above), side
                assert fast.plan(position, above) == slow.plan(position, above), side
    if query.truth_under(ranges) is Truth.UNDETERMINED:
        plan = batched.plan_sequence(query, ranges)[1]
        assert plan == scalar_optseq_plan(batched, query, ranges)
    policy = SplitPointPolicy.full(batched.schema).with_query_boundaries(query)
    distribution = batched.distribution
    cost_model = batched.cost_model
    assert greedy_split(
        query, ranges, distribution, batched, policy, cost_model=cost_model
    ) == greedy_split(
        query, ranges, distribution, reference, policy, cost_model=cost_model
    )


# 0.1 makes the normalized joints inexact, so any change in summation
# order shows; 0.5 keeps them exact, as ``lint-plan --suite`` plans.
@pytest.mark.parametrize(
    ("smoothing", "conditional"),
    [(0.0, False), (0.1, False), (0.5, False), (0.1, True)],
    ids=["0.0-schema", "0.1-schema", "0.5-schema", "0.1-board"],
)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_full_ranges(name, smoothing, conditional):
    schema, data, queries = DATASETS[name]
    batched, reference = _planners(schema, data, smoothing, conditional)
    for query in queries:
        assert_sides_identical(batched, reference, query, RangeVector.full(schema))


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_sides_without_training_rows(smoothing):
    """Values never seen in training leave sides (and whole subproblems)
    with zero rows: the unseen-event fallbacks must match too."""
    schema, data, queries = DATASETS["lab"]
    temp = schema.index_of("temp")
    hour = schema.index_of("hour")
    sparse = data[(data[:, temp] <= 4) & (data[:, hour] != 3)]
    batched, reference = _planners(schema, sparse, smoothing, False)
    full = RangeVector.full(schema)
    unseen = full.with_range(temp, Range(5, schema[temp].domain_size))
    for query in queries:
        assert_sides_identical(batched, reference, query, full)
        assert_sides_identical(batched, reference, query, unseen)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_corrseq_forwards_to_batched_scoring(name):
    schema, data, queries = DATASETS[name]
    distribution = EmpiricalDistribution(schema, data, smoothing=0.1)
    corrseq = CorrSeqPlanner(distribution)
    assert_sides_identical(
        corrseq, PerSideOptSeq(distribution), queries[0], RangeVector.full(schema)
    )


@st.composite
def sub_ranges(draw, schema):
    """A subproblem as GreedyPlan reaches it: a few attributes narrowed."""
    ranges = RangeVector.full(schema)
    narrowed = draw(
        st.lists(st.integers(0, len(schema) - 1), max_size=3, unique=True)
    )
    for index in narrowed:
        size = schema[index].domain_size
        low = draw(st.integers(1, size))
        high = draw(st.integers(low, size))
        ranges = ranges.with_range(index, Range(low, high))
    return ranges


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_drawn_sub_ranges(name):
    schema, data, queries = DATASETS[name]
    planners = {
        (smoothing, conditional): _planners(schema, data, smoothing, conditional)
        for smoothing in (0.0, 0.1)
        for conditional in (False, True)
    }

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ranges=sub_ranges(schema),
        query=st.sampled_from(queries),
        config=st.sampled_from(sorted(planners)),
    )
    def check(ranges, query, config):
        batched, reference = planners[config]
        assert_sides_identical(batched, reference, query, ranges)

    check()


def _heuristic_digest(distribution, queries, max_splits, base_factory):
    digest = hashlib.sha256()
    for query in queries:
        result = GreedyConditionalPlanner(
            distribution, base_factory(distribution), max_splits=max_splits
        ).plan(query)
        digest.update(repr(result.plan).encode())
        digest.update(float(result.expected_cost).hex().encode())
    return digest.hexdigest()[:16]


# Heuristic-k (CorrSeq base) on the ``lint-plan --suite`` datasets, as
# planned by the per-side implementation before batched scoring existed:
# sha256 over each query's plan repr and float.hex(expected_cost).
SUITE_DIGESTS = {
    ("garden", 0.0, 1): "803c06137d7cee4b",
    ("garden", 0.0, 5): "765d3427b49acb65",
    ("garden", 0.5, 1): "ab5690fd9c3c856b",
    ("garden", 0.5, 5): "641d33c3333b7d7c",
    ("lab", 0.0, 1): "9ba314300281b9df",
    ("lab", 0.0, 5): "b0a8340e0d8d4ba3",
    ("lab", 0.5, 1): "1765980f8e2bc386",
    ("lab", 0.5, 5): "f3454910400c9b81",
    ("synthetic", 0.0, 1): "78be50afed872aab",
    ("synthetic", 0.0, 5): "78be50afed872aab",
    ("synthetic", 0.5, 1): "7ee9cd708d61e87b",
    ("synthetic", 0.5, 5): "7ee9cd708d61e87b",
}


@pytest.mark.parametrize("max_splits", [1, 5])
@pytest.mark.parametrize("smoothing", [0.0, 0.5])
@pytest.mark.parametrize("name", ["garden", "lab", "synthetic"])
def test_suite_heuristic_plans_unchanged(name, smoothing, max_splits):
    dataset, queries = next(
        (dataset, queries)
        for suite_name, dataset, queries in _lint_suite_datasets()
        if suite_name == name
    )
    distribution = EmpiricalDistribution(
        dataset.schema, dataset.data, smoothing=smoothing
    )
    batched = _heuristic_digest(distribution, queries, max_splits, CorrSeqPlanner)
    per_side = _heuristic_digest(distribution, queries, max_splits, PerSideCorrSeq)
    assert batched == per_side
    assert batched == SUITE_DIGESTS[(name, smoothing, max_splits)]

