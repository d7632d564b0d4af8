"""Dataset-backed probability estimation (Sections 2.3 and 5).

:class:`EmpiricalDistribution` answers every planner probability query by
counting rows of a historical dataset, using the efficiency devices of
Section 5:

- subproblem row sets are materialized once per :class:`RangeVector` and
  cached (the per-attribute *index* trick of Section 5.1);
- per-attribute histograms within a subproblem are built with a single
  ``bincount`` pass and range probabilities accumulate via their cumulative
  sums (Equation 7);
- per-predicate satisfaction masks over the full dataset are computed once
  and reused across every subproblem (the rediscretized attributes
  ``X'_i`` of Section 4.1.2).

Optional Laplace smoothing guards against the high-variance estimates the
paper warns about once many conditioning predicates have shrunk the matching
row set (Section 7, "Graphical Models" discussion).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.predicates import Predicate
from repro.core.ranges import RangeVector
from repro.exceptions import DistributionError
from repro.probability.base import (
    Distribution,
    PredicateBinding,
    SequentialConditioner,
)
from repro.probability.histograms import value_histogram

__all__ = ["EmpiricalDistribution"]

# Joint tables over predicate outcomes are 2**m entries; beyond this many
# predicates callers should use GreedySeq, which never materializes the joint.
_MAX_JOINT_PREDICATES = 20


class EmpiricalDistribution(Distribution):
    """Empirical conditional probabilities over a discretized dataset.

    Parameters
    ----------
    schema:
        Table schema; fixes domains and attribute order.
    data:
        Integer matrix of shape ``(d, n)`` with values in ``1 .. K_i`` per
        column — the historical training data collected at the basestation.
    smoothing:
        Laplace pseudo-count added per outcome when estimating conditional
        probabilities.  ``0.0`` (default) reproduces the paper's raw counting;
        small positive values stabilize estimates in data-starved
        subproblems.
    max_cached_subproblems:
        Bound on the number of row-index sets kept; the cache is cleared
        wholesale when the bound is hit (exhaustive planning on small
        domains generates many subproblems, each cheap to recompute).
    """

    def __init__(
        self,
        schema: Schema,
        data: np.ndarray,
        smoothing: float = 0.0,
        max_cached_subproblems: int = 100_000,
    ) -> None:
        super().__init__(schema)
        matrix = np.asarray(data)
        if matrix.ndim != 2:
            raise DistributionError(
                f"data must be a 2-D matrix, got shape {matrix.shape}"
            )
        if matrix.shape[1] != len(schema):
            raise DistributionError(
                f"data has {matrix.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        if matrix.shape[0] == 0:
            raise DistributionError("data must contain at least one row")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise DistributionError(
                f"data must be integer-valued (discretize first), "
                f"got dtype {matrix.dtype}"
            )
        for column, attribute in enumerate(schema):
            low = int(matrix[:, column].min())
            high = int(matrix[:, column].max())
            if low < 1 or high > attribute.domain_size:
                raise DistributionError(
                    f"column {attribute.name!r} has values in [{low}, {high}] "
                    f"outside domain [1, {attribute.domain_size}]"
                )
        if smoothing < 0:
            raise DistributionError(f"smoothing must be >= 0, got {smoothing}")
        self._data = np.ascontiguousarray(matrix, dtype=np.int64)
        self._smoothing = float(smoothing)
        self._max_cached = int(max_cached_subproblems)
        self._row_cache: dict[RangeVector, np.ndarray] = {}
        self._predicate_masks: dict[tuple, np.ndarray] = {}
        self._full_rows = np.arange(self._data.shape[0])

    # ------------------------------------------------------------------
    # Row-set management (Section 5.1 indices)
    # ------------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying training matrix (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    @property
    def row_total(self) -> int:
        return self._data.shape[0]

    @property
    def smoothing(self) -> float:
        return self._smoothing

    def rows_matching(self, ranges: RangeVector) -> np.ndarray:
        """Indices of training rows consistent with every range.

        Results are cached per subproblem; only narrowed attributes are
        tested, so the match cost is ``O(d * #narrowed)``.
        """
        cached = self._row_cache.get(ranges)
        if cached is not None:
            return cached
        mask: np.ndarray | None = None
        for index in range(len(ranges)):
            if not ranges.is_acquired(index):
                continue
            interval = ranges[index]
            column = self._data[:, index]
            column_mask = (column >= interval.low) & (column <= interval.high)
            mask = column_mask if mask is None else (mask & column_mask)
        rows = self._full_rows if mask is None else np.flatnonzero(mask)
        if len(self._row_cache) >= self._max_cached:
            self._row_cache.clear()
        self._row_cache[ranges] = rows
        return rows

    def row_count(self, ranges: RangeVector) -> int:
        """Number of training rows inside a subproblem."""
        return int(self.rows_matching(ranges).size)

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------

    def range_probability(self, ranges: RangeVector) -> float:
        return self.row_count(ranges) / self.row_total

    def attribute_histogram(
        self, attribute_index: int, ranges: RangeVector
    ) -> np.ndarray:
        rows = self.rows_matching(ranges)
        interval = ranges[attribute_index]
        counts = value_histogram(self._data[rows, attribute_index], interval)
        smoothed = counts.astype(np.float64) + self._smoothing
        total = smoothed.sum()
        if total <= 0.0:
            return np.zeros(len(interval), dtype=np.float64)
        return smoothed / total

    def conjunction_probability(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> float:
        rows = self.rows_matching(ranges)
        denominator = rows.size + 2.0 * self._smoothing
        if denominator <= 0.0:
            return 0.0
        satisfied = self._conjunction_mask(bindings, rows)
        return (float(satisfied.sum()) + self._smoothing) / denominator

    def predicate_joint(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> np.ndarray:
        if len(bindings) > _MAX_JOINT_PREDICATES:
            raise DistributionError(
                f"joint over {len(bindings)} predicates would need "
                f"2**{len(bindings)} entries; use GreedySeq-style conditional "
                "queries instead"
            )
        rows = self.rows_matching(ranges)
        size = 1 << len(bindings)
        if rows.size == 0:
            return np.zeros(size, dtype=np.float64)
        codes = self._outcome_codes(bindings, rows)
        counts = np.bincount(codes, minlength=size).astype(np.float64)
        if self._smoothing:
            counts += self._smoothing
        return counts / counts.sum()

    def value_outcome_counts(
        self,
        attribute_index: int,
        bindings: Sequence[PredicateBinding],
        ranges: RangeVector,
    ) -> np.ndarray:
        """Subproblem row counts by (value of one attribute, outcome code).

        Entry ``[v, s]`` counts the rows of ``ranges`` whose attribute
        ``attribute_index`` equals ``low + v`` and whose predicate outcomes
        form bitmask ``s`` (bit ``j`` for ``bindings[j]``, as in
        :meth:`predicate_joint`).  Its cumulative sum along the value axis
        is the raw joint of every split side at once (Equation 7 lifted to
        the predicate lattice).
        """
        if len(bindings) > _MAX_JOINT_PREDICATES:
            raise DistributionError(
                f"joint over {len(bindings)} predicates would need "
                f"2**{len(bindings)} entries; use GreedySeq-style conditional "
                "queries instead"
            )
        rows = self.rows_matching(ranges)
        interval = ranges[attribute_index]
        size = 1 << len(bindings)
        cells = (self._data[rows, attribute_index] - interval.low) * size
        cells += self._outcome_codes(bindings, rows)
        counts = np.bincount(cells, minlength=len(interval) * size)
        return counts.reshape(len(interval), size)

    def satisfied_given_satisfied(
        self,
        target: PredicateBinding,
        satisfied: Sequence[PredicateBinding],
        ranges: RangeVector,
    ) -> float:
        rows = self.rows_matching(ranges)
        condition = self._conjunction_mask(satisfied, rows)
        denominator = float(condition.sum()) + 2.0 * self._smoothing
        if denominator <= 0.0:
            # Conditioning event unseen in training data: fall back to the
            # target's marginal within the subproblem.
            return self.conjunction_probability([target], ranges)
        hits = condition & self._satisfaction_mask(target)[rows]
        return (float(hits.sum()) + self._smoothing) / denominator

    def sequential_conditioner(
        self, ranges: RangeVector
    ) -> "_RowSetConditioner":
        return _RowSetConditioner(self, ranges)

    # ------------------------------------------------------------------
    # Predicate satisfaction masks (rediscretized attributes X'_i)
    # ------------------------------------------------------------------

    def _satisfaction_mask(self, binding: PredicateBinding) -> np.ndarray:
        """Boolean mask over the full dataset: does the predicate hold?"""
        predicate, index = binding
        key = self._mask_key(predicate, index)
        mask = self._predicate_masks.get(key)
        if mask is None:
            column = self._data[:, index]
            low = getattr(predicate, "low", None)
            high = getattr(predicate, "high", None)
            if low is not None and high is not None:
                inside = (column >= low) & (column <= high)
                mask = inside if predicate.satisfied_by(low) else ~inside
            else:
                # Generic predicate: vectorize via the scalar test per value.
                domain = self._schema[index].domain_size
                table = np.fromiter(
                    (predicate.satisfied_by(value) for value in range(1, domain + 1)),
                    dtype=bool,
                    count=domain,
                )
                mask = table[column - 1]
            self._predicate_masks[key] = mask
        return mask

    def _outcome_codes(
        self, bindings: Sequence[PredicateBinding], rows: np.ndarray
    ) -> np.ndarray:
        """Per-row predicate-outcome bitmask over ``rows``."""
        codes = np.zeros(rows.size, dtype=np.int64)
        for bit, binding in enumerate(bindings):
            codes |= self._satisfaction_mask(binding)[rows].astype(np.int64) << bit
        return codes

    def _conjunction_mask(
        self, bindings: Sequence[PredicateBinding], rows: np.ndarray
    ) -> np.ndarray:
        """Mask over ``rows``: do all predicates hold simultaneously?"""
        result = np.ones(rows.size, dtype=bool)
        for binding in bindings:
            result &= self._satisfaction_mask(binding)[rows]
        return result

    @staticmethod
    def _mask_key(predicate: Predicate, index: int) -> tuple:
        return (
            type(predicate).__name__,
            index,
            getattr(predicate, "low", None),
            getattr(predicate, "high", None),
        )

    # ------------------------------------------------------------------
    # Convenience statistics
    # ------------------------------------------------------------------

    def marginal_selectivity(self, binding: PredicateBinding) -> float:
        """Marginal ``P(predicate satisfied)`` over the full dataset.

        This is the only statistic the Naive planner consults
        (Section 4.1.1).
        """
        mask = self._satisfaction_mask(binding)
        denominator = self.row_total + 2.0 * self._smoothing
        return (float(mask.sum()) + self._smoothing) / denominator

    def clear_caches(self) -> None:
        """Drop cached row sets and predicate masks (frees memory)."""
        self._row_cache.clear()
        self._predicate_masks.clear()


class _RowSetConditioner(SequentialConditioner):
    """Incremental conditioning by shrinking a row-index set.

    Each :meth:`condition_on` filters the surviving rows through the new
    predicate's satisfaction mask, so every probability query is one mask
    gather plus a mean — O(rows) instead of re-ANDing the whole prefix.
    This is the hot path of GreedySeq and of Equation 3 costing for
    sequential plans.
    """

    def __init__(self, distribution: EmpiricalDistribution, ranges: RangeVector):
        super().__init__(distribution, ranges)
        self._empirical = distribution
        self._rows = distribution.rows_matching(ranges)
        # Lazily-built satisfaction matrix over the bindings seen so far:
        # row k holds predicate k's outcomes on the *surviving* rows, so
        # condition_on only has to column-filter it.
        self._matrix: np.ndarray | None = None
        self._matrix_index: dict[tuple, int] = {}

    def pass_probability(self, binding: PredicateBinding) -> float:
        smoothing = self._empirical.smoothing
        denominator = self._rows.size + 2.0 * smoothing
        if denominator <= 0.0:
            # Conditioning event unseen: fall back to the subproblem
            # marginal, matching satisfied_given_satisfied's behaviour.
            return self._empirical.conjunction_probability(
                [binding], self._ranges
            )
        hits = self._empirical._satisfaction_mask(binding)[self._rows]
        return (float(hits.sum()) + smoothing) / denominator

    def pass_probabilities(self, bindings) -> np.ndarray:
        smoothing = self._empirical.smoothing
        denominator = self._rows.size + 2.0 * smoothing
        if denominator <= 0.0:
            return super().pass_probabilities(bindings)
        matrix_rows = [self._matrix_row(binding) for binding in bindings]
        sums = self._matrix[matrix_rows].sum(axis=1)
        return (sums + smoothing) / denominator

    def condition_on(self, binding: PredicateBinding) -> None:
        super().condition_on(binding)
        mask = self._empirical._satisfaction_mask(binding)[self._rows]
        self._rows = self._rows[mask]
        if self._matrix is not None:
            self._matrix = self._matrix[:, mask]

    def _matrix_row(self, binding: PredicateBinding) -> int:
        """Index of the binding's outcome row, gathering it on first use."""
        key = self._empirical._mask_key(*binding)
        index = self._matrix_index.get(key)
        if index is None:
            outcomes = self._empirical._satisfaction_mask(binding)[self._rows]
            if self._matrix is None:
                self._matrix = outcomes[None, :]
            else:
                self._matrix = np.vstack([self._matrix, outcomes[None, :]])
            index = self._matrix.shape[0] - 1
            self._matrix_index[key] = index
        return index
