"""Tests for GreedySplit (Figure 6) and GreedyPlan / Heuristic-k (Figure 7)."""

import numpy as np
import pytest

from repro.core import (
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
    Attribute,
    empirical_cost,
    expected_cost,
)
from repro.exceptions import PlanningError
from repro.execution import PlanExecutor
from repro.planning import (
    GreedyConditionalPlanner,
    GreedySequentialPlanner,
    OptimalSequentialPlanner,
    SizeAwareConditionalPlanner,
    SplitPointPolicy,
    greedy_split,
)
from repro.probability import EmpiricalDistribution
from tests.conftest import correlated_dataset


@pytest.fixture
def setup(correlated, correlated_query):
    schema, data = correlated
    distribution = EmpiricalDistribution(schema, data)
    base = OptimalSequentialPlanner(distribution)
    return schema, data, distribution, correlated_query, base


class TestGreedySplit:
    def test_split_beats_or_ties_sequential(self, setup):
        schema, _data, distribution, query, base = setup
        ranges = RangeVector.full(schema)
        sequential_cost, _plan = base.plan_sequence(query, ranges)
        policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
        choice = greedy_split(query, ranges, distribution, base, policy)
        assert choice is not None
        assert choice.cost <= sequential_cost + 1e-9

    def test_split_cost_decomposition(self, setup):
        """The reported split cost must equal acquisition + weighted sides."""
        schema, _data, distribution, query, base = setup
        ranges = RangeVector.full(schema)
        policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
        choice = greedy_split(query, ranges, distribution, base, policy)
        acquisition = schema[choice.attribute_index].cost
        recomposed = (
            acquisition
            + choice.probability_below * choice.below_cost
            + (1.0 - choice.probability_below) * choice.above_cost
        )
        assert choice.cost == pytest.approx(recomposed, rel=1e-12)

    def test_no_candidates_returns_none(self, setup):
        schema, _data, distribution, query, base = setup
        empty_policy = SplitPointPolicy(schema, {})
        choice = greedy_split(
            query, RangeVector.full(schema), distribution, base, empty_policy
        )
        assert choice is None

    def test_picks_the_informative_cheap_attribute(self):
        """With a cheap attribute that predicts which of two expensive
        predicates will fail, the locally optimal split must observe it
        (the Figure 2 pattern: a single predicate can never benefit from
        conditioning, but ordering two of them can)."""
        rng = np.random.default_rng(3)
        n = 2000
        cheap = rng.integers(1, 3, n)
        # cheap=1 => exp_a's predicate almost surely fails;
        # cheap=2 => exp_b's predicate almost surely fails.
        exp_a = np.where(cheap == 1, 1, rng.integers(1, 3, n))
        exp_b = np.where(cheap == 2, 1, rng.integers(1, 3, n))
        noise = rng.integers(1, 3, n)
        schema = Schema(
            [
                Attribute("cheap", 2, 1.0),
                Attribute("noise", 2, 1.0),
                Attribute("exp_a", 2, 100.0),
                Attribute("exp_b", 2, 100.0),
            ]
        )
        data = np.stack([cheap, noise, exp_a, exp_b], axis=1).astype(np.int64)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("exp_a", 2, 2), RangePredicate("exp_b", 2, 2)]
        )
        base = OptimalSequentialPlanner(distribution)
        policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
        choice = greedy_split(
            query, RangeVector.full(schema), distribution, base, policy
        )
        assert choice.attribute_index == 0


class TestHeuristicPlanner:
    def test_zero_splits_equals_base_plan(self, setup):
        _schema, _data, distribution, query, base = setup
        heuristic = GreedyConditionalPlanner(distribution, base, max_splits=0)
        result = heuristic.plan(query)
        base_cost, base_plan = base.plan_sequence(
            query, RangeVector.full(distribution.schema)
        )
        assert result.plan == base_plan
        assert result.expected_cost == pytest.approx(base_cost)

    def test_split_budget_respected(self, setup):
        _schema, _data, distribution, query, base = setup
        for budget in (0, 1, 2, 5):
            result = GreedyConditionalPlanner(
                distribution, base, max_splits=budget
            ).plan(query)
            assert result.plan.condition_count() <= budget

    def test_training_cost_monotone_in_splits(self, setup):
        """More split budget can never hurt on the training distribution."""
        _schema, _data, distribution, query, base = setup
        costs = [
            GreedyConditionalPlanner(distribution, base, max_splits=k)
            .plan(query)
            .expected_cost
            for k in (0, 1, 2, 4, 8)
        ]
        for earlier, later in zip(costs, costs[1:]):
            assert later <= earlier + 1e-9

    def test_reported_cost_matches_recomputed(self, setup):
        _schema, _data, distribution, query, base = setup
        result = GreedyConditionalPlanner(distribution, base, max_splits=5).plan(query)
        assert result.expected_cost == pytest.approx(
            expected_cost(result.plan, distribution), rel=1e-9
        )

    def test_expected_matches_empirical_on_training(self, setup):
        schema, data, distribution, query, base = setup
        result = GreedyConditionalPlanner(distribution, base, max_splits=5).plan(query)
        assert result.expected_cost == pytest.approx(
            empirical_cost(result.plan, data, schema), rel=1e-9
        )

    def test_verdicts_correct(self, setup):
        schema, data, distribution, query, base = setup
        result = GreedyConditionalPlanner(distribution, base, max_splits=6).plan(query)
        assert PlanExecutor(schema).verify(result.plan, query, data).correct

    def test_greedy_base_planner_also_works(self, setup):
        schema, data, distribution, query, _base = setup
        greedy_base = GreedySequentialPlanner(distribution)
        result = GreedyConditionalPlanner(
            distribution, greedy_base, max_splits=4
        ).plan(query)
        assert PlanExecutor(schema).verify(result.plan, query, data).correct

    def test_beats_sequential_on_correlated_data(self, setup):
        """On data with a predictive cheap attribute, conditioning must pay."""
        _schema, _data, distribution, query, base = setup
        sequential = base.plan(query).expected_cost
        conditional = (
            GreedyConditionalPlanner(distribution, base, max_splits=5)
            .plan(query)
            .expected_cost
        )
        assert conditional < sequential

    def test_planner_name_includes_budget(self, setup):
        _schema, _data, distribution, query, base = setup
        result = GreedyConditionalPlanner(distribution, base, max_splits=7).plan(query)
        assert result.planner == "heuristic-7"

    def test_negative_budget_rejected(self, setup):
        _schema, _data, distribution, _query, base = setup
        with pytest.raises(PlanningError):
            GreedyConditionalPlanner(distribution, base, max_splits=-1)

    def test_mismatched_distribution_rejected(self, setup):
        schema, data, distribution, _query, _base = setup
        other = EmpiricalDistribution(schema, data)
        with pytest.raises(PlanningError, match="share"):
            GreedyConditionalPlanner(
                distribution, OptimalSequentialPlanner(other), max_splits=2
            )

    def test_stops_when_no_split_helps(self):
        """On independent uniform data no split can beat the sequential
        plan, so the planner must stop early regardless of budget."""
        rng = np.random.default_rng(0)
        schema = Schema([Attribute("u", 4, 10.0), Attribute("v", 4, 10.0)])
        data = np.stack(
            [rng.integers(1, 5, 3000), rng.integers(1, 5, 3000)], axis=1
        ).astype(np.int64)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("u", 1, 2), RangePredicate("v", 1, 2)]
        )
        base = OptimalSequentialPlanner(distribution)
        result = GreedyConditionalPlanner(distribution, base, max_splits=10).plan(query)
        # Splitting on u or v boundaries is "free" relative to acquiring
        # them anyway, so a couple of splits may tie — but the planner must
        # not burn the whole budget on zero-gain expansions.
        assert result.plan.condition_count() < 10
        sequential_cost = base.plan(query).expected_cost
        assert result.expected_cost == pytest.approx(sequential_cost, rel=1e-9)


class TestSplitSearchCount:
    """Only leaves a later expansion could pop get a split search."""

    @staticmethod
    def _counted_plan(monkeypatch, planner, query):
        import repro.planning.greedy_conditional as module

        calls = []
        search = module.greedy_split

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(module, "greedy_split", counted)
        return planner.plan(query), len(calls)

    @pytest.mark.parametrize("size_aware", [False, True])
    @pytest.mark.parametrize("max_splits", [0, 1, 2])
    def test_searches_per_expansion(self, monkeypatch, setup, size_aware, max_splits):
        _schema, _data, distribution, query, base = setup
        if size_aware:
            planner = SizeAwareConditionalPlanner(
                distribution, base, alpha=0.0, max_splits=max_splits
            )
        else:
            planner = GreedyConditionalPlanner(
                distribution, base, max_splits=max_splits
            )
        result, searches = self._counted_plan(monkeypatch, planner, query)
        # Every allowed expansion happens on this instance, so the count
        # is exact: the root, then both children of all but the last.
        assert result.stats.subproblems == max_splits
        assert searches == (0 if max_splits == 0 else 1 + 2 * (max_splits - 1))
        if max_splits == 0:
            assert result.stats.splits_considered == 0


class TestGeneralization:
    def test_test_set_cost_usually_improves(self):
        """Across seeds, the conditional plan should beat Naive's order on
        held-out data in the typical case (paper Figures 10-11 show a small
        fraction of queries regress slightly; we assert the aggregate)."""
        from repro.planning import NaivePlanner

        wins = 0
        trials = 5
        for seed in range(trials):
            schema, data = correlated_dataset(n_rows=6000, seed=seed)
            train, test = data[:3000], data[3000:]
            distribution = EmpiricalDistribution(schema, train)
            query = ConjunctiveQuery(
                schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
            )
            heuristic = GreedyConditionalPlanner(
                distribution, OptimalSequentialPlanner(distribution), max_splits=5
            ).plan(query)
            naive = NaivePlanner(distribution).plan(query)
            if empirical_cost(heuristic.plan, test, schema) <= empirical_cost(
                naive.plan, test, schema
            ):
                wins += 1
        assert wins >= trials - 1
