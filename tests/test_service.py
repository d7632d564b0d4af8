"""Tests for the multi-query serving runtime and its metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Attribute, Schema
from repro.data import query_text, random_range_query, zipf_draws
from repro.engine import AcquisitionalEngine
from repro.exceptions import QueryError, ServiceError
from repro.service import (
    AcquisitionalService,
    Counter,
    LatencyHistogram,
    MetricsRegistry,
)


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
    rng = np.random.default_rng(2)
    n = 4000
    hour = rng.integers(1, 5, n)
    day = hour >= 3
    temp = np.where(day, rng.integers(3, 5, n), rng.integers(1, 3, n))
    light = np.where(day, rng.integers(3, 5, n), rng.integers(1, 3, n))
    return np.stack([hour, temp, light], axis=1).astype(np.int64)


@pytest.fixture
def engine(schema, history) -> AcquisitionalEngine:
    return AcquisitionalEngine(schema, history)


@pytest.fixture
def service(engine) -> AcquisitionalService:
    return AcquisitionalService(engine, cache_capacity=16)


@pytest.fixture
def live(history) -> np.ndarray:
    return history[:300]


class TestServiceExecution:
    def test_matches_direct_engine_execution(self, engine, service, live):
        text = "SELECT temp WHERE temp >= 3 AND light <= 2"
        served = service.execute(text, live)
        direct = engine.execute(text, live)
        assert served.columns == direct.columns
        assert served.rows == direct.rows
        assert served.total_cost == pytest.approx(direct.total_cost)

    def test_equivalent_spellings_share_one_plan(self, service, live):
        service.execute("SELECT * WHERE temp >= 3 AND light <= 2", live)
        service.execute("SELECT * WHERE light <= 2 AND temp >= 3", live)
        service.execute("SELECT hour, temp, light WHERE light <= 2 AND temp >= 3", live)
        stats = service.stats()
        assert stats["counters"]["plans_built"] == 1
        assert stats["cache"]["hits"] == 2

    def test_cache_disabled_plans_every_request(self, engine, live):
        service = AcquisitionalService(engine, cache_enabled=False)
        text = "SELECT * WHERE temp >= 3 AND light <= 2"
        service.execute(text, live)
        service.execute(text, live)
        stats = service.stats()
        assert stats["counters"]["plans_built"] == 2
        assert stats["cache"]["hits"] == 0

    def test_stats_snapshot_shape(self, service, live):
        service.execute("SELECT * WHERE temp >= 3", live)
        stats = service.stats()
        assert stats["statistics_version"] == 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert "evictions" in stats["cache"]
        for name in ("planning", "execution"):
            snapshot = stats["latency"][name]
            assert snapshot["count"] >= 1
            assert (
                snapshot["p50_ms_window"]
                <= snapshot["p99_ms_window"]
                <= snapshot["max_ms"]
            )


class TestBatching:
    def test_batch_matches_sequential_results(self, engine, service, live):
        requests = [
            ("SELECT * WHERE temp >= 3 AND light <= 2", live[:80]),
            ("SELECT * WHERE light <= 2 AND temp >= 3", live[80:200]),
            ("SELECT temp WHERE hour >= 2", live[:50]),
            ("SELECT * WHERE temp >= 3 AND light <= 2", live[200:280]),
        ]
        batched = service.execute_batch(requests)
        direct = [engine.execute(text, readings) for text, readings in requests]
        assert len(batched) == len(direct)
        for served, expected in zip(batched, direct):
            assert served.columns == expected.columns
            assert served.rows == expected.rows
            assert served.tuples_scanned == expected.tuples_scanned
            assert served.where_cost == pytest.approx(expected.where_cost)
            assert served.projection_cost == pytest.approx(
                expected.projection_cost
            )

    def test_same_fingerprint_requests_plan_once(self, service, live):
        requests = [
            ("SELECT * WHERE temp >= 3 AND light <= 2", live[:64]),
            ("SELECT * WHERE light <= 2 AND temp >= 3", live[64:128]),
            ("SELECT * WHERE temp >= 3 AND light <= 2", live[128:192]),
        ]
        service.execute_batch(requests)
        stats = service.stats()
        assert stats["counters"]["plans_built"] == 1
        assert stats["counters"]["batch_groups"] == 1
        assert stats["counters"]["batch_requests"] == 3

    def test_empty_batch(self, service):
        assert service.execute_batch([]) == []


class TestReadingsValidation:
    """Non-numeric readings fail as a QueryError on every execution path."""

    def test_execute_rejects_string_readings(self, service, live):
        with pytest.raises(QueryError, match="not numeric"):
            service.execute("SELECT * WHERE temp >= 3", live.astype(str))

    def test_execute_batch_rejects_string_readings(self, service, live):
        requests = [
            ("SELECT * WHERE temp >= 3", live),
            ("SELECT * WHERE temp >= 3", live.astype(str)),
        ]
        with pytest.raises(QueryError, match="not numeric"):
            service.execute_batch(requests)


class TestStreamExecutorGuards:
    def test_rejects_disjunctive_statements(self, service):
        with pytest.raises(QueryError):
            service.stream_executor("SELECT * WHERE temp >= 3 OR light >= 3")

    def test_rejects_caller_supplied_replan_hook(self, service):
        with pytest.raises(ServiceError):
            service.stream_executor(
                "SELECT * WHERE temp >= 3 AND light >= 3",
                on_replan=lambda event: None,
            )


class TestMetrics:
    def test_counter(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ServiceError):
            counter.increment(-1)

    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):
            histogram.observe(value / 1000.0)
        assert histogram.count == 100
        assert histogram.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        snapshot = histogram.snapshot()
        assert snapshot["max_ms"] == pytest.approx(100.0)
        assert snapshot["p99_ms_window"] <= snapshot["max_ms"]
        assert snapshot["window"] == 100
        with pytest.raises(ServiceError):
            histogram.observe(-0.1)

    def test_empty_histogram_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_ms_window"] == 0.0
        assert snapshot["window"] == 0

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")
        registry.counter("a").increment()
        assert registry.snapshot()["counters"]["a"] == 1


class TestWorkloadHelpers:
    def test_query_text_round_trips_through_the_parser(self, schema, service, live):
        query = random_range_query(schema, ["temp", "light"], seed=3)
        text = query_text(query)
        result = service.execute(text, live)
        expected = np.array(
            [query.evaluate(row) for row in live], dtype=bool
        ).sum()
        assert len(result.rows) == int(expected)

    def test_zipf_draws_are_skewed(self):
        draws = zipf_draws(5000, 20, skew=1.5, seed=0)
        assert draws.min() >= 0 and draws.max() < 20
        counts = np.bincount(draws, minlength=20)
        assert counts[0] > counts[10] > 0

    def test_zipf_zero_skew_is_roughly_uniform(self):
        counts = np.bincount(zipf_draws(8000, 4, skew=0.0, seed=1), minlength=4)
        assert counts.min() > 1500
