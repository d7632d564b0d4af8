"""The sharded front door, driven deterministically in-process.

The ``inproc`` backend runs real :class:`ShardServer` instances on the
event loop with the same batching discipline as the worker processes, so
routing, coalescing, admission, outage handling, and the version
broadcast are all exercised without spawning a single process.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from tests.conftest import make_day_night_data
from repro.cluster import ClusterConfig, ShardConfig, ShardedServiceCluster
from repro.core import Attribute, Schema
from repro.exceptions import ClusterError

SCHEMA = Schema(
    [
        Attribute("hour", 2, 0.0),
        Attribute("temp", 2, 1.0),
        Attribute("light", 2, 1.0),
    ]
)
HISTORY = make_day_night_data()
READINGS = HISTORY[:40]
QUERY = "SELECT temp WHERE temp = 2 AND light = 2"
CHAOS = {"faults": {"temp": {"drop_rate": 0.4}}}

# Distinct query shapes for load tests (each its own fingerprint).
SHAPES = [
    "SELECT temp WHERE temp = 2",
    "SELECT light WHERE light = 2",
    "SELECT temp WHERE temp = 1 AND light = 2",
    "SELECT light WHERE temp = 2 AND light = 1",
    "SELECT temp, light WHERE temp = 2 AND light = 2",
    "SELECT hour WHERE hour = 2",
    "SELECT hour WHERE hour = 1 AND temp = 2",
    "SELECT hour, temp WHERE light = 1",
]


def make_cluster(**overrides) -> ShardedServiceCluster:
    config = ClusterConfig(
        shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
        shards=overrides.pop("shards", 2),
        backend="inproc",
        **overrides,
    )
    return ShardedServiceCluster(config)


def test_routing_is_stable_per_fingerprint() -> None:
    async def main() -> None:
        async with make_cluster() as cluster:
            shards = {
                (await cluster.execute(QUERY, READINGS)).shard
                for _ in range(5)
            }
            assert len(shards) == 1
            # an equivalent spelling routes identically (canonical digest)
            reordered = "SELECT temp WHERE light = 2 AND temp = 2"
            response = await cluster.execute(reordered, READINGS)
            assert {response.shard} == shards

    asyncio.run(main())


def test_coalesced_wave_executes_once_and_matches() -> None:
    async def main() -> None:
        async with make_cluster() as cluster:
            wave = await cluster.execute_many([(QUERY, READINGS)] * 16)
            baseline = await cluster.execute(QUERY, HISTORY[40:80])
            assert all(r.ok for r in wave) and baseline.ok
            stats = cluster.front_door_stats()
            # 16 identical requests crossed the shard boundary once.
            assert stats["coalescing"]["dispatched_requests"] == 2
            assert stats["coalescing"]["coalesced_requests"] == 15
            assert sum(r.coalesced for r in wave) == 15
            first = wave[0].result
            assert all(r.result.rows == first.rows for r in wave)
            # different readings did NOT coalesce with the wave
            assert not baseline.coalesced
            assert baseline.result.rows != first.rows

    asyncio.run(main())


def test_coalesced_equals_uncoalesced_byte_for_byte() -> None:
    async def run(coalescing: bool) -> list:
        async with make_cluster(coalescing=coalescing) as cluster:
            responses = await cluster.execute_many(
                [(QUERY, READINGS)] * 8
            )
            assert all(r.ok for r in responses)
            return [r.result for r in responses]

    merged = asyncio.run(run(True))
    separate = asyncio.run(run(False))
    for a, b in zip(merged, separate):
        assert a.rows == b.rows
        assert a.where_cost == b.where_cost
        assert a.total_cost == b.total_cost

    async def chaos(coalescing: bool) -> list:
        async with make_cluster(coalescing=coalescing) as cluster:
            responses = await cluster.execute_many(
                [(QUERY, READINGS)] * 8,
                fault_schedule=CHAOS,
                fault_seed=23,
                degradation="skip",
            )
            assert all(r.ok for r in responses)
            return [r.payload for r in responses]

    merged_chaos = asyncio.run(chaos(True))
    separate_chaos = asyncio.run(chaos(False))
    for a, b in zip(merged_chaos, separate_chaos):
        assert a.result.rows == b.result.rows
        assert a.abstained_rows == b.abstained_rows
        assert a.tuples_degraded == b.tuples_degraded
        assert a.retries_total == b.retries_total


def test_abstain_sheds_between_soft_and_hard_limits() -> None:
    async def main() -> None:
        async with make_cluster(
            soft_limit=2, hard_limit=4, shed_mode="abstain"
        ) as cluster:
            responses = await cluster.execute_many(
                [(shape, READINGS) for shape in SHAPES]
            )
            admitted = [r for r in responses if not r.shed]
            shed = [r for r in responses if r.shed]
            assert len(admitted) == 2
            assert len(shed) == len(SHAPES) - 2
            assert {r.shed_reason for r in shed} == {"overload"}
            assert all(not r.ok and r.result is None for r in shed)
            snapshot = cluster.front_door_stats()["admission"]
            assert snapshot["requests_shed"] == len(shed)

    asyncio.run(main())


def test_skip_mode_admits_warm_sheds_cold() -> None:
    async def main() -> None:
        async with make_cluster(
            soft_limit=2, hard_limit=50, shed_mode="skip"
        ) as cluster:
            # Warm two shapes below the soft limit.
            warm_a = await cluster.execute(SHAPES[0], READINGS)
            warm_b = await cluster.execute(SHAPES[1], READINGS)
            assert warm_a.ok and warm_b.ok
            # Saturate: the warm shapes flow, cold shapes shed as "cold".
            wave = [(shape, HISTORY[40:80]) for shape in SHAPES]
            responses = await cluster.execute_many(wave)
            by_shape = dict(zip(SHAPES, responses))
            assert by_shape[SHAPES[0]].ok or by_shape[SHAPES[0]].shed
            cold = [
                r
                for shape, r in by_shape.items()
                if shape not in SHAPES[:2] and r.shed
            ]
            assert cold and {r.shed_reason for r in cold} <= {"cold", "overload"}
            assert all(r.shed_reason == "cold" for r in cold)
            # The two warmed shapes were admitted past the soft limit.
            assert by_shape[SHAPES[0]].ok and by_shape[SHAPES[1]].ok

    asyncio.run(main())


def test_coalescible_requests_never_shed() -> None:
    async def main() -> None:
        async with make_cluster(
            soft_limit=1, hard_limit=2, shed_mode="abstain"
        ) as cluster:
            responses = await cluster.execute_many([(QUERY, READINGS)] * 12)
            assert all(r.ok for r in responses)
            assert sum(r.coalesced for r in responses) == 11

    asyncio.run(main())


def test_version_broadcast_syncs_all_shards() -> None:
    async def main() -> None:
        async with make_cluster(shards=3) as cluster:
            # Bump one shard out-of-band (as a drift replan would) and let
            # the next reply's piggybacked version drive the broadcast.
            servers = cluster._backend._servers
            servers[0].service.engine.bump_statistics_version()
            servers[0].service.engine.bump_statistics_version()
            target = servers[0].service.engine.statistics_version
            for _ in range(6):  # at least one request lands on shard 0
                await cluster.execute(QUERY, READINGS)
                await cluster.execute(SHAPES[5], READINGS)
            await asyncio.gather(*cluster._broadcast_tasks)
            assert cluster.statistics_version == target
            versions = {
                shard: server.service.engine.statistics_version
                for shard, server in servers.items()
            }
            assert set(versions.values()) == {target}

    asyncio.run(main())


def test_invalidate_all_advances_every_shard() -> None:
    async def main() -> None:
        async with make_cluster(shards=3) as cluster:
            before = cluster.statistics_version
            version = await cluster.invalidate_all()
            assert version == before + 1
            servers = cluster._backend._servers
            assert all(
                server.service.engine.statistics_version == version
                for server in servers.values()
            )
            # warm set was dropped: nothing is warm after invalidation
            assert cluster._warm == set()

    asyncio.run(main())


def _shard_of(query: str) -> int:
    async def main() -> int:
        async with make_cluster() as cluster:
            return (await cluster.execute(query, READINGS)).shard

    return asyncio.run(main())


def test_outage_abstain_sheds_pending_soundly() -> None:
    victim = _shard_of(QUERY)

    async def main() -> None:
        async with make_cluster(outage_mode="abstain") as cluster:
            tasks = [
                asyncio.ensure_future(cluster.execute(QUERY, READINGS))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # let requests open + dispatch
            cluster.induce_outage(victim)
            responses = await asyncio.gather(*tasks)
            assert all(r.shed and r.shed_reason == "outage" for r in responses)
            assert all(r.result is None for r in responses)
            assert cluster.live_shards == frozenset({1 - victim})
            # new traffic for the dead shard's keys is re-routed and served
            after = await cluster.execute(QUERY, READINGS)
            assert after.ok and after.shard == 1 - victim

    asyncio.run(main())


def test_outage_skip_reroutes_pending_correctly() -> None:
    victim = _shard_of(QUERY)

    async def expected_rows() -> tuple:
        async with make_cluster(shards=1) as cluster:
            return (await cluster.execute(QUERY, READINGS)).result.rows

    truth = asyncio.run(expected_rows())

    async def main() -> None:
        async with make_cluster(outage_mode="skip") as cluster:
            tasks = [
                asyncio.ensure_future(cluster.execute(QUERY, READINGS))
                for _ in range(4)
            ]
            await asyncio.sleep(0)
            cluster.induce_outage(victim)
            responses = await asyncio.gather(*tasks)
            assert all(r.ok for r in responses)
            assert all(r.result.rows == truth for r in responses)
            stats = cluster.front_door_stats()
            assert stats["counters"].get("requests_rerouted", 0) >= 1
            assert stats["counters"]["shard_outages"] == 1

    asyncio.run(main())


def test_outage_skip_reroutes_chaos_identically() -> None:
    async def baseline() -> object:
        async with make_cluster(shards=1) as cluster:
            response = await cluster.execute(
                QUERY,
                READINGS,
                fault_schedule=CHAOS,
                fault_seed=5,
                degradation="skip",
            )
            return response.payload

    truth = asyncio.run(baseline())
    victim = _shard_of(QUERY)

    async def main() -> None:
        async with make_cluster(outage_mode="skip") as cluster:
            task = asyncio.ensure_future(
                cluster.execute(
                    QUERY,
                    READINGS,
                    fault_schedule=CHAOS,
                    fault_seed=5,
                    degradation="skip",
                )
            )
            await asyncio.sleep(0)
            cluster.induce_outage(victim)
            response = await task
            assert response.ok
            # deterministic injection: the re-routed execution degraded
            # exactly the way the healthy baseline did
            assert response.payload.result.rows == truth.result.rows
            assert response.payload.abstained_rows == truth.abstained_rows
            assert response.payload.tuples_degraded == truth.tuples_degraded

    asyncio.run(main())


def test_last_shard_down_fails_loudly() -> None:
    async def main() -> None:
        async with make_cluster(shards=1) as cluster:
            cluster.induce_outage(0)
            with pytest.raises(ClusterError):
                await cluster.execute(QUERY, READINGS)

    asyncio.run(main())


def test_execute_requires_started_cluster() -> None:
    cluster = make_cluster()

    async def main() -> None:
        with pytest.raises(ClusterError):
            await cluster.execute(QUERY, READINGS)

    asyncio.run(main())


def test_stats_and_prometheus_cover_all_shards() -> None:
    async def main() -> None:
        async with make_cluster(shards=3) as cluster:
            await cluster.execute_many(
                [(shape, READINGS) for shape in SHAPES]
            )
            stats = await cluster.stats()
            assert sorted(stats["shards"]) == [0, 1, 2]
            merged = stats["merged_metrics"]
            assert merged["counters"]["queries"] >= 1
            front = stats["front_door"]
            assert front["counters"]["requests"] == len(SHAPES)
            exposition = await cluster.prometheus()
            assert 'shard="front_door"' in exposition
            for shard in range(3):
                assert f'shard="{shard}"' in exposition

    asyncio.run(main())


def test_bad_statement_fails_without_poisoning_the_batch() -> None:
    async def main() -> None:
        async with make_cluster() as cluster:
            good, bad = await asyncio.gather(
                cluster.execute(QUERY, READINGS),
                cluster.execute("SELECT nope WHERE nope = 1", READINGS),
                return_exceptions=True,
            )
            assert good.ok
            assert isinstance(bad, Exception)

    asyncio.run(main())


def test_shard_rejects_string_readings_without_poisoning_the_batch() -> None:
    async def main() -> None:
        async with make_cluster(shards=1) as cluster:
            good, bad = await cluster.execute_many(
                [(QUERY, READINGS), (QUERY, READINGS.astype(str))]
            )
            assert good.ok
            assert not bad.ok and "not numeric" in bad.error

    asyncio.run(main())
