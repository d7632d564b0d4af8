"""The acquisitional query engine facade.

Ties the whole pipeline together behind a TinyDB-flavoured interface
(the system lineage the paper builds on): register a schema and historical
readings, then issue textual queries.  The engine plans each query with the
conditional heuristic (or any planner you inject), executes it over live
readings with full cost accounting — including the cost of acquiring
*selected* attributes for matching tuples, which the WHERE plan may not
have touched — and can EXPLAIN its plans with branch probabilities.

    engine = AcquisitionalEngine(schema, history)
    result = engine.execute("SELECT temp WHERE light >= 9 AND temp <= 4", live)
    print(engine.explain("SELECT temp WHERE light >= 9 AND temp <= 4"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.analysis import annotate_plan, plan_summary
from repro.core.attributes import Schema
from repro.core.cost import ExecutionObserver, dataset_execution
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.engine.language import ParsedQuery, parse_query
from repro.exceptions import FaultConfigError, QueryError
from repro.planning.base import Planner
from repro.planning.corrseq import CorrSeqPlanner
from repro.planning.exhaustive import ExhaustivePlanner
from repro.planning.greedy_conditional import GreedyConditionalPlanner
from repro.planning.split_points import SplitPointPolicy
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.compile.ir import CompiledPlan
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy

__all__ = [
    "PreparedQuery",
    "QueryResult",
    "ResilientQueryResult",
    "AcquisitionalEngine",
]

# Builds the planner used for each statement; receives the engine's fitted
# distribution so statistics are shared across statements.
PlannerFactory = Callable[[EmpiricalDistribution], Planner]


@dataclass(frozen=True)
class PreparedQuery:
    """A parsed, planned statement ready for repeated execution.

    Frozen and hashable (all fields are immutable), so prepared statements
    can key caches directly — the serving layer relies on this.
    ``statistics_version`` records which generation of engine statistics
    the plan was trained on; ``planning_seconds`` is the wall-clock cost
    of producing it.
    """

    text: str
    parsed: ParsedQuery
    plan: PlanNode
    expected_where_cost: float
    planner: str
    statistics_version: int = 1
    planning_seconds: float = 0.0

    @property
    def query(self) -> ConjunctiveQuery:
        return self.parsed.query


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the acquisition-cost accounting for one execution."""

    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    tuples_scanned: int
    where_cost: float
    projection_cost: float

    @property
    def total_cost(self) -> float:
        return self.where_cost + self.projection_cost

    @property
    def mean_cost_per_tuple(self) -> float:
        if self.tuples_scanned == 0:
            return 0.0
        return self.total_cost / self.tuples_scanned


@dataclass(frozen=True)
class ResilientQueryResult:
    """A :class:`QueryResult` plus the fault accounting behind it.

    ``abstained_rows`` indexes into the scanned readings: tuples the
    degraded execution withdrew from the result set rather than risk an
    unsound verdict.  ``retry_cost`` is the slice of ``where_cost`` spent
    on backed-off re-attempts — Eq. 3 predicts ``where_cost -
    retry_cost`` for the fault-free traversal.
    """

    result: QueryResult
    abstained_rows: tuple[int, ...]
    tuples_degraded: int
    acquisitions_failed: int
    retries_total: int
    retry_cost: float

    @property
    def tuples_abstained(self) -> int:
        return len(self.abstained_rows)


class AcquisitionalEngine:
    """Plan and execute textual acquisitional queries.

    Parameters
    ----------
    schema:
        The acquisitional table's schema.
    history:
        Historical readings used to fit planning statistics (the
        basestation's training data, Section 2.5).
    planner_factory:
        Optional override for how statements are planned; defaults to
        Heuristic-5 over a CorrSeq base, the paper's best practical
        configuration.
    smoothing:
        Laplace smoothing for the engine's statistics.
    verify_plans:
        Debug mode: statically verify every plan the engine produces
        (:func:`repro.verify.assert_valid_plan`), raising
        :class:`~repro.exceptions.PlanVerificationError` on ERROR-level
        diagnostics.  Off by default — planners are trusted in
        production; turn it on in tests and when developing planners.
    """

    def __init__(
        self,
        schema: Schema,
        history: np.ndarray,
        planner_factory: PlannerFactory | None = None,
        smoothing: float = 0.0,
        verify_plans: bool = False,
    ) -> None:
        self._schema = schema
        self._smoothing = float(smoothing)
        self._verify_plans = bool(verify_plans)
        self._distribution = EmpiricalDistribution(
            schema, history, smoothing=smoothing
        )
        self._planner_factory = planner_factory or (
            lambda distribution: GreedyConditionalPlanner(
                distribution, CorrSeqPlanner(distribution), max_splits=5
            )
        )
        self._prepared: dict[str, PreparedQuery] = {}
        self._statistics_version = 1
        self._statistics_listeners: list[Callable[[int], None]] = []

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def distribution(self) -> EmpiricalDistribution:
        return self._distribution

    @property
    def planner_factory(self) -> PlannerFactory:
        """The factory building this engine's conjunctive planners."""
        return self._planner_factory

    @property
    def statistics_version(self) -> int:
        """Generation counter for the engine's planning statistics.

        Bumps whenever the distribution is refitted (:meth:`refit`) or an
        external component reports that statistics moved
        (:meth:`bump_statistics_version`, e.g. an adaptive-stream replan).
        Plans trained under an older version are stale.
        """
        return self._statistics_version

    def add_statistics_listener(
        self, listener: Callable[[int], None]
    ) -> None:
        """Register a callback invoked with each new statistics version."""
        self._statistics_listeners.append(listener)

    def bump_statistics_version(self) -> int:
        """Invalidate every prepared plan: statistics have changed."""
        self._statistics_version += 1
        self._prepared.clear()
        for listener in self._statistics_listeners:
            listener(self._statistics_version)
        return self._statistics_version

    def refit(
        self, history: np.ndarray, smoothing: float | None = None
    ) -> int:
        """Refit planning statistics on fresh history.

        Rebuilds the empirical distribution, drops every prepared plan
        (they were trained on the old statistics), and bumps
        :attr:`statistics_version` so external plan caches invalidate too.
        Returns the new version.
        """
        if smoothing is not None:
            self._smoothing = float(smoothing)
        self._distribution = EmpiricalDistribution(
            self._schema, history, smoothing=self._smoothing
        )
        return self.bump_statistics_version()

    def prepare(self, text: str) -> PreparedQuery:
        """Parse and plan a statement (cached per query text).

        Conjunctive WHERE clauses go to the configured planner (Heuristic-5
        by default); disjunctive clauses go to the exhaustive planner with
        a coarse split-point policy, since sequential base planners carry
        conjunctive semantics only (Section 3.1 vs Section 4.1).
        """
        cached = self._prepared.get(text)
        if cached is not None:
            return cached
        parsed = parse_query(text, self._schema)
        prepared = self.prepare_parsed(parsed, text=text)
        self._prepared[text] = prepared
        return prepared

    def prepare_parsed(
        self, parsed: ParsedQuery, text: str = ""
    ) -> PreparedQuery:
        """Plan an already-parsed statement (no prepared-statement cache).

        The serving layer uses this after canonicalization, where the cache
        key is a query fingerprint rather than the raw text.
        """
        if parsed.is_conjunctive:
            planner = self._planner_factory(self._distribution)
        else:
            policy = SplitPointPolicy.equal_width(
                self._schema, [2] * len(self._schema)
            )
            planner = ExhaustivePlanner(
                self._distribution,
                split_policy=policy,
                max_subproblems=500_000,
            )
        result = planner.plan_timed(parsed.query)
        if self._verify_plans:
            from repro.verify import assert_valid_plan

            assert_valid_plan(
                result.plan,
                self._schema,
                query=parsed.query,
                distribution=self._distribution,
                claimed_cost=result.expected_cost,
                subject=f"plan[{result.planner}]",
            )
        return PreparedQuery(
            text=text,
            parsed=parsed,
            plan=result.plan,
            expected_where_cost=result.expected_cost,
            planner=result.planner,
            statistics_version=self._statistics_version,
            planning_seconds=result.planning_seconds,
        )

    def execute(self, text: str, readings: np.ndarray) -> QueryResult:
        """Run a statement over live readings with cost accounting.

        The WHERE clause runs through the conditional plan; for matching
        tuples, any *selected* attributes the plan did not already acquire
        are then acquired at their schema cost (the plan may well have read
        some of them while filtering — those are free to return).
        """
        return self.execute_prepared(self.prepare(text), readings)

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        readings: np.ndarray,
        observer: ExecutionObserver | None = None,
        kernel: "CompiledPlan | None" = None,
    ) -> QueryResult:
        """Run an already-prepared statement over live readings.

        ``observer`` (usually a :class:`repro.obs.PlanProfile`) meters the
        WHERE plan's per-node behaviour; post-WHERE projection
        acquisitions are accounted in ``projection_cost`` but are not
        node events, so they stay outside the profile.  A ``kernel``
        (a translation-validated :class:`~repro.compile.CompiledPlan`
        lowered from ``prepared.plan``) routes the WHERE clause through
        the columnar compiled tier instead of the interpreting walker;
        results are identical by the validator's proof.
        """
        matrix = self._validated(readings)
        if kernel is not None:
            from repro.compile.executor import execute_compiled

            outcome = execute_compiled(kernel, matrix, observer=observer)
        else:
            outcome = dataset_execution(
                prepared.plan, matrix, self._schema, observer=observer
            )
        extra = self._projection_extra(prepared, matrix)
        return self._build_result(
            prepared, matrix, outcome.costs, outcome.verdicts, extra
        )

    def execute_prepared_resilient(
        self,
        prepared: PreparedQuery,
        readings: np.ndarray,
        schedule: "FaultSchedule",
        rng: np.random.Generator,
        policy: "FaultPolicy | None" = None,
    ) -> ResilientQueryResult:
        """Run a prepared statement with fault injection and degradation.

        WHERE-clause acquisitions flow through a seeded
        :class:`~repro.faults.FaultInjector`; once retries are exhausted
        the configured :class:`~repro.faults.FaultPolicy` degrades the
        tuple (abstain / skip-to-predicates / impute).  Abstained tuples
        are excluded from the rows and reported in ``abstained_rows``.
        Projection acquisitions for matching tuples are charged at schema
        cost as in :meth:`execute_prepared` (result reporting is assumed
        reliable once a tuple matches).
        """
        from repro.faults.executor import FaultTolerantExecutor
        from repro.faults.policy import DegradationMode, FaultPolicy

        matrix = self._validated(readings)
        effective = policy if policy is not None else FaultPolicy()
        query = prepared.parsed.query if prepared.parsed.is_conjunctive else None
        if (
            query is None
            and effective.degradation is not DegradationMode.ABSTAIN
        ):
            raise FaultConfigError(
                "SKIP/IMPUTE degradation needs a conjunctive query as its "
                "fallback path; disjunctive statements must use ABSTAIN"
            )
        executor = FaultTolerantExecutor(
            self._schema,
            effective,
            query=query,
            distribution=self._distribution,
        )
        outcome = executor.run(prepared.plan, matrix, schedule, rng)
        verdicts = np.fromiter(
            (r.verdict is True for r in outcome.results),
            dtype=bool,
            count=len(outcome.results),
        )
        extra = self._projection_extra(prepared, matrix)
        result = self._build_result(
            prepared, matrix, outcome.costs, verdicts, extra
        )
        return ResilientQueryResult(
            result=result,
            abstained_rows=outcome.abstained,
            tuples_degraded=outcome.tuples_degraded,
            acquisitions_failed=outcome.acquisitions_failed,
            retries_total=outcome.retries_total,
            retry_cost=outcome.retry_cost,
        )

    def execute_prepared_many(
        self,
        prepared: PreparedQuery,
        readings_list: list[np.ndarray],
        observer: ExecutionObserver | None = None,
        kernel: "CompiledPlan | None" = None,
    ) -> list[QueryResult]:
        """Run one prepared statement over many batches in a single pass.

        The batches are stacked and executed through the plan once — the
        vectorized tree walk amortizes across every request sharing the
        plan — then per-batch results are sliced back out.  This is the
        serving layer's same-fingerprint admission path.  ``observer``
        meters the WHERE plan exactly as in :meth:`execute_prepared`,
        and ``kernel`` selects the compiled tier the same way.
        """
        matrices = [self._validated(readings) for readings in readings_list]
        if not matrices:
            return []
        stacked = np.vstack(matrices)
        if kernel is not None:
            from repro.compile.executor import execute_compiled

            outcome = execute_compiled(kernel, stacked, observer=observer)
        else:
            outcome = dataset_execution(
                prepared.plan, stacked, self._schema, observer=observer
            )
        extra = self._projection_extra(prepared, stacked)
        results: list[QueryResult] = []
        start = 0
        for matrix in matrices:
            end = start + matrix.shape[0]
            results.append(
                self._build_result(
                    prepared,
                    matrix,
                    outcome.costs[start:end],
                    outcome.verdicts[start:end],
                    extra[start:end],
                )
            )
            start = end
        return results

    def _validated(self, readings: np.ndarray) -> np.ndarray:
        matrix = np.asarray(readings)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise QueryError(
                f"readings shape {matrix.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        if matrix.dtype.kind not in "biuf":
            raise QueryError(
                f"readings dtype {matrix.dtype} is not numeric; attribute "
                "values must be integers"
            )
        return matrix

    def _select_indices(
        self, prepared: PreparedQuery
    ) -> tuple[tuple[str, ...], list[int]]:
        if prepared.parsed.select_all:
            return self._schema.names, list(range(len(self._schema)))
        columns = prepared.parsed.select
        return tuple(columns), [
            self._schema.index_of(name) for name in columns
        ]

    def _build_result(
        self,
        prepared: PreparedQuery,
        matrix: np.ndarray,
        costs: np.ndarray,
        verdicts: np.ndarray,
        extra: np.ndarray,
    ) -> QueryResult:
        columns, select_indices = self._select_indices(prepared)
        matching = np.flatnonzero(verdicts)
        rows = tuple(
            tuple(int(value) for value in matrix[row, select_indices])
            for row in matching
        )
        return QueryResult(
            columns=tuple(columns),
            rows=rows,
            tuples_scanned=matrix.shape[0],
            where_cost=float(costs.sum()),
            projection_cost=float(extra[matching].sum()),
        )

    def explain(self, text: str) -> str:
        """Human-readable plan report with branch probabilities."""
        prepared = self.prepare(text)
        summary = plan_summary(prepared.plan)
        lines = [
            f"query: {text.strip()}",
            f"where clause: {prepared.query.describe()}",
            f"planner: {prepared.planner}",
            f"expected WHERE cost/tuple: {prepared.expected_where_cost:.2f}",
            f"plan: {summary.describe()}",
            "",
            annotate_plan(prepared.plan, self._distribution),
        ]
        return "\n".join(lines)

    def _projection_extra(
        self, prepared: PreparedQuery, matrix: np.ndarray
    ) -> np.ndarray:
        """Per-row cost of acquiring selected attributes post-WHERE.

        Attributes the WHERE plan acquired on a tuple's path are already
        cached on the mote; only genuinely-unread attributes cost extra.
        Per-path acquired sets are recovered with the same vectorized tree
        routing used for costing.  Callers sum the returned array over
        matching rows (non-matching tuples never reach projection).
        """
        _columns, select_indices = self._select_indices(prepared)
        extra = np.zeros(matrix.shape[0], dtype=np.float64)
        if not select_indices:
            return extra
        costs = self._schema.costs

        from repro.core.plan import ConditionNode, SequentialNode, VerdictLeaf

        def walk(node, rows: np.ndarray, acquired: frozenset[int]) -> None:
            if rows.size == 0:
                return
            if isinstance(node, (VerdictLeaf,)):
                _charge(rows, acquired)
                return
            if isinstance(node, ConditionNode):
                branch_acquired = acquired | {node.attribute_index}
                column = matrix[rows, node.attribute_index]
                below = column < node.split_value
                walk(node.below, rows[below], branch_acquired)
                walk(node.above, rows[~below], branch_acquired)
                return
            if isinstance(node, SequentialNode):
                from repro.core.cost import predicate_mask

                alive = rows
                local = set(acquired)
                for step in node.steps:
                    if alive.size == 0:
                        break
                    local.add(step.attribute_index)
                    satisfied = predicate_mask(
                        step.predicate, matrix[alive, step.attribute_index]
                    )
                    # Tuples rejected here never reach projection.
                    alive = alive[satisfied]
                _charge(alive, frozenset(local))
                return

        def _charge(rows: np.ndarray, acquired: frozenset[int]) -> None:
            unread = [
                index for index in select_indices if index not in acquired
            ]
            if unread:
                extra[rows] += sum(costs[index] for index in unread)

        walk(prepared.plan, np.arange(matrix.shape[0]), frozenset())
        return extra
