"""Answer oracle: a direct numpy evaluation of each statement's WHERE clause.

The benchmark renders every statement from a :class:`Shape` spec, so the
oracle evaluates that spec itself and never goes through the program's
parser or planner.  A conditional plan may change the order attributes
are acquired in, never the answer (paper Sec. 8), so each served answer
must equal the spec evaluated over the full readings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """One statement: a SELECT list and a conjunction of range predicates.

    ``predicates`` holds ``(attribute, low, high, negated)``; a negated
    predicate is ``NOT attribute BETWEEN low AND high``.
    """

    select: tuple[str, ...]
    predicates: tuple[tuple[str, int, int, bool], ...]

    def text(self) -> str:
        clauses = []
        for attribute, low, high, negated in self.predicates:
            clause = f"{attribute} BETWEEN {low} AND {high}"
            clauses.append(f"NOT {clause}" if negated else clause)
        return f"SELECT {', '.join(self.select)} WHERE {' AND '.join(clauses)}"


def verdicts(shape: Shape, names: tuple[str, ...], readings: np.ndarray) -> np.ndarray:
    """Per-tuple truth of the shape's WHERE clause over ``readings``."""
    mask = np.ones(readings.shape[0], dtype=bool)
    for attribute, low, high, negated in shape.predicates:
        column = readings[:, names.index(attribute)]
        inside = (column >= low) & (column <= high)
        mask &= ~inside if negated else inside
    return mask


def expected_rows(
    shape: Shape, names: tuple[str, ...], readings: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """The rows a correct answer returns, in reading order."""
    columns = (
        list(range(len(names)))
        if shape.select == ("*",)
        else [names.index(name) for name in shape.select]
    )
    chosen = readings[verdicts(shape, names, readings)][:, columns]
    return tuple(tuple(int(value) for value in row) for row in chosen)


def answer_ok(result, expected: tuple[tuple[int, ...], ...], scanned: int) -> bool:
    """Whether one served ``QueryResult`` matches the oracle."""
    return result.rows == expected and result.tuples_scanned == scanned


def stream_ok(report, truth: np.ndarray) -> bool:
    """Whether a stream report's per-tuple verdicts match the oracle."""
    return bool(np.array_equal(np.asarray(report.verdicts, dtype=bool), truth))


def ledger_ok(report) -> bool:
    """Whether a learned stream's regret ledger conserves (Eq. 3 sides)."""
    return bool(report.ledger_conserved())
