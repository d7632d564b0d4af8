"""Tests for the acquisitional query engine facade."""

import numpy as np
import pytest

from repro.core import Attribute, Schema
from repro.engine import AcquisitionalEngine
from repro.exceptions import QueryError
from repro.planning import NaivePlanner


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("hour", 4, 1.0),
            Attribute("temp", 4, 100.0),
            Attribute("light", 4, 100.0),
        ]
    )


@pytest.fixture
def history(schema) -> np.ndarray:
    rng = np.random.default_rng(0)
    n = 4000
    hour = rng.integers(1, 5, n)
    day = hour >= 3
    temp = np.where(day, rng.integers(3, 5, n), rng.integers(1, 3, n))
    light = np.where(day, rng.integers(3, 5, n), rng.integers(1, 3, n))
    return np.stack([hour, temp, light], axis=1).astype(np.int64)


@pytest.fixture
def engine(schema, history) -> AcquisitionalEngine:
    return AcquisitionalEngine(schema, history)


class TestPrepare:
    def test_prepared_query_has_plan(self, engine):
        prepared = engine.prepare("SELECT * WHERE temp >= 3 AND light <= 2")
        assert prepared.plan is not None
        assert prepared.expected_where_cost > 0
        assert prepared.planner.startswith("heuristic")

    def test_prepare_is_cached(self, engine):
        first = engine.prepare("SELECT * WHERE temp >= 3")
        second = engine.prepare("SELECT * WHERE temp >= 3")
        assert first is second

    def test_custom_planner_factory(self, schema, history):
        engine = AcquisitionalEngine(
            schema, history, planner_factory=lambda dist: NaivePlanner(dist)
        )
        prepared = engine.prepare("SELECT * WHERE temp >= 3 AND light <= 2")
        assert prepared.planner == "naive"


class TestExecute:
    def test_returns_matching_rows(self, engine, history):
        text = "SELECT hour WHERE temp >= 3 AND light >= 3"
        result = engine.execute(text, history[:500])
        expected = {
            (int(row[0]),)
            for row in history[:500]
            if row[1] >= 3 and row[2] >= 3
        }
        assert set(result.rows) == expected
        assert result.columns == ("hour",)
        assert result.tuples_scanned == 500

    def test_select_star_returns_full_rows(self, engine, history):
        result = engine.execute("SELECT * WHERE temp >= 3 AND light >= 3", history[:200])
        assert result.columns == ("hour", "temp", "light")
        for row in result.rows:
            assert len(row) == 3

    def test_row_count_matches_direct_evaluation(self, engine, history):
        text = "SELECT * WHERE temp >= 3 AND light <= 2"
        result = engine.execute(text, history[:1000])
        query = engine.prepare(text).query
        truth = sum(query.evaluate(row) for row in history[:1000])
        assert len(result.rows) == truth

    def test_where_cost_positive(self, engine, history):
        result = engine.execute("SELECT * WHERE temp >= 3", history[:100])
        assert result.where_cost > 0
        assert result.total_cost >= result.where_cost

    def test_projection_costs_only_unread_attributes(self, schema, history):
        engine = AcquisitionalEngine(schema, history)
        # Selecting only the filtered attribute: it is always read by the
        # WHERE plan on matching tuples, so projection adds nothing.
        cheap = engine.execute("SELECT temp WHERE temp >= 3", history[:500])
        assert cheap.projection_cost == 0.0
        # Selecting an attribute the WHERE never touches costs extra for
        # every matching tuple.
        costly = engine.execute("SELECT light WHERE temp >= 3", history[:500])
        matches = len(costly.rows)
        assert costly.projection_cost == pytest.approx(matches * 100.0)

    def test_mean_cost_per_tuple(self, engine, history):
        result = engine.execute("SELECT * WHERE temp >= 3", history[:100])
        assert result.mean_cost_per_tuple == pytest.approx(
            result.total_cost / 100
        )

    def test_bad_readings_shape_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.execute("SELECT * WHERE temp >= 3", np.ones((5, 2), dtype=int))

    def test_non_numeric_readings_rejected(self, engine):
        with pytest.raises(QueryError, match="not numeric"):
            engine.execute("SELECT * WHERE temp >= 3", np.full((5, 3), "2"))


class TestExplain:
    def test_explain_mentions_plan_and_probabilities(self, engine):
        text = engine.explain("SELECT * WHERE temp >= 3 AND light <= 2")
        assert "planner: heuristic" in text
        assert "expected WHERE cost/tuple" in text
        assert "p=" in text  # annotated branch probabilities

    def test_conditional_plan_uses_cheap_attribute(self, engine):
        prepared = engine.prepare("SELECT * WHERE temp >= 3 AND light <= 2")
        from repro.core import ConditionNode

        assert isinstance(prepared.plan, ConditionNode)
        assert prepared.plan.attribute == "hour"
