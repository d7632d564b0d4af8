"""The workloads: seeded op streams over the public service API.

Every workload is a closed loop with one client.  A run is a whole number
of identical *passes* over one op stream that the seed generates; the
state a pass could carry into the next one (refit window, bandit store)
is reset before each pass, outside the clock.  The datasets, the set of
statement shapes and the refit windows are fixed; the seed draws the
request sequence (which shape each request uses, which readings it
carries) and where the stream windows start.

A step is a plain tuple, so an op stream serializes byte for byte:

- ``("execute", shape, offset)``: one ``execute`` over ``ROWS`` readings;
- ``("refit", offset)``: ``service.refit`` on a history window (not an op);
- ``("stream", shape, offset)``: one stream window through the learned
  and then the adaptive streaming loop.
"""

from __future__ import annotations

import numpy as np

from oracle import Shape, answer_ok, expected_rows, ledger_ok, stream_ok, verdicts
from repro.core.predicates import NotRangePredicate
from repro.data import generate_lab_dataset, lab_queries, time_split
from repro.engine import AcquisitionalEngine
from repro.service import AcquisitionalService

ROWS = 48  # readings per request
ZIPF_SKEW = 1.1
LAB_SELECTS = (("*",), ("nodeid", "light"), ("hour", "temp", "humidity"))


def _zipf(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``n`` shape indices with Zipf(``ZIPF_SKEW``) frequencies over ``k``.

    The counts are the Zipf shares of ``n`` rounded, so every seed serves
    the same mix of shapes; the seed decides their order.
    """
    weights = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** ZIPF_SKEW
    shares = n * weights / weights.sum()
    counts = np.floor(shares).astype(int)
    counts[np.argsort(counts - shares)[: n - counts.sum()]] += 1
    draws = np.repeat(np.arange(k), counts)
    rng.shuffle(draws)
    return draws


def _stratified(rng: np.random.Generator, n: int, span: int) -> np.ndarray:
    """``n`` offsets in ``[0, span)``, one per equal stratum, shuffled.

    Every seed then sees the same mix of hours of the day, so the cost
    per tuple does not hinge on which readings the draw happened to hit.
    """
    edges = np.linspace(0, span, n + 1)
    offsets = (edges[:-1] + rng.random(n) * np.diff(edges)).astype(int)
    rng.shuffle(offsets)
    return offsets


def _requests(rng: np.random.Generator, n: int, k: int, span: int) -> list[tuple[int, int]]:
    """``n`` (shape, offset) pairs: Zipf shapes, each spread over ``span``.

    Each shape's offsets are stratified on their own, so every shape
    meets the same mix of readings whatever the seed.
    """
    shapes = _zipf(rng, n, k)
    offsets = np.empty(n, dtype=int)
    for shape in range(k):
        where = np.flatnonzero(shapes == shape)
        offsets[where] = _stratified(rng, where.size, span)
    return [(int(s), int(o)) for s, o in zip(shapes, offsets)]


def _shape(query, select: tuple[str, ...]) -> Shape:
    return Shape(
        select,
        tuple(
            (p.attribute, int(p.low), int(p.high), isinstance(p, NotRangePredicate))
            for p in query.predicates
        ),
    )


def _lab():
    lab = generate_lab_dataset(n_readings=120_000, n_motes=12, seed=0)
    train, test = time_split(lab.data, 0.5)
    return lab, train, test


def _lab_shapes(lab, count: int) -> list[Shape]:
    shapes: list[Shape] = []
    seed = 7
    while len(shapes) < count:
        for query in lab_queries(lab, count, seed=seed):
            shape = _shape(query, LAB_SELECTS[len(shapes) % len(LAB_SELECTS)])
            if all(shape.predicates != known.predicates for known in shapes):
                shapes.append(shape)
            if len(shapes) == count:
                break
        seed += 1
    return shapes


class World:
    """One set-up: data, shapes, engine and service, plus oracle memo."""

    def __init__(self, names, test, shapes, engine, service, **extra):
        self.names = tuple(names)
        self.test = test
        self.shapes = shapes
        self.texts = [shape.text() for shape in shapes]
        self.engine = engine
        self.service = service
        self.extra = extra
        self._expected: dict[tuple[int, int], tuple] = {}

    def window(self, offset: int, rows: int = ROWS) -> np.ndarray:
        return self.test[offset : offset + rows]

    def expected(self, shape: int, offset: int) -> tuple:
        key = (shape, offset)
        if key not in self._expected:
            self._expected[key] = expected_rows(
                self.shapes[shape], self.names, self.window(offset)
            )
        return self._expected[key]

    def warm(self) -> None:
        for text in self.texts:
            self.service.plan_for(text)


class Workload:
    """Base: request workloads served by ``execute``."""

    name = ""
    # The highest of p75, p90, p95, p99 and p99.9 that leaves ten ops of a pass beyond it.
    tail_percentile = 0.0

    def build(self) -> World:
        raise NotImplementedError

    def steps(self, world: World, seed: int) -> list[tuple]:
        raise NotImplementedError

    def reset(self, world: World) -> None:
        """Bring the state a pass may change back to its start."""

    @staticmethod
    def is_op(step: tuple) -> bool:
        return step[0] != "refit"

    def run(self, world: World, step: tuple):
        kind = step[0]
        if kind == "execute":
            _, shape, offset = step
            return world.service.execute(world.texts[shape], world.window(offset))
        if kind == "refit":
            history = world.extra["history"]
            return world.service.refit(history[step[1] : step[1] + REFIT_ROWS])
        raise ValueError(f"unknown step {kind!r}")

    def check(self, world: World, step: tuple, answer) -> tuple[bool, int, float]:
        """(matches the oracle, tuples answered, Eq. 3 cost charged)."""
        _, shape, offset = step
        ok = answer_ok(answer, world.expected(shape, offset), ROWS)
        return ok, answer.tuples_scanned, answer.total_cost

    def properties(self, world: World, steps: list[tuple]) -> dict:
        """Input properties the served behaviour depends on.

        A duplicate repeats the (statement, readings) pair of an earlier
        request of the pass, which a result cache could answer.
        """
        cached = set(range(len(world.shapes)))
        requests = misses = duplicates = 0
        seen: set[tuple[int, int]] = set()
        for step in steps:
            if step[0] == "refit":
                cached = set()
                continue
            pair = step[1:]
            requests += 1
            duplicates += pair in seen
            seen.add(pair)
            misses += pair[0] not in cached
            cached.add(pair[0])
        return {
            "ops_per_pass": requests,
            "requests_per_pass": requests,
            "distinct_shapes": len({shape for shape, _ in seen}),
            "miss_share": misses / requests,
            "duplicate_share": duplicates / requests,
            "tuples_per_op": ROWS,
        }


REFIT_ROWS = 1_000  # history rows per refit window


class RefitChurn(Workload):
    name = "refit_churn"
    tail_percentile = 99.0
    # Request segments per pass; a refit precedes all but the first.  With
    # three, about 24 of a pass's 1,152 requests plan, so its p99 sits in
    # the middle of the cold requests and its p50 among the warm ones.
    SEGMENTS = 3
    PER_SEGMENT = 384
    SHAPES = 12
    STRIDE = 2_000

    def build(self) -> World:
        lab, train, test = _lab()
        engine = AcquisitionalEngine(lab.schema, train[:REFIT_ROWS])
        service = AcquisitionalService(engine, cache_capacity=2 * self.SHAPES)
        world = World(
            lab.schema.names,
            test,
            _lab_shapes(lab, self.SHAPES),
            engine,
            service,
            history=train,
        )
        world.warm()
        return world

    def reset(self, world: World) -> None:
        # Back to the first history window with every plan cached, as
        # set-up left it.
        world.service.refit(world.extra["history"][:REFIT_ROWS])
        world.warm()

    def steps(self, world: World, seed: int) -> list[tuple]:
        # The refit windows roll from a fixed origin; the seed draws the
        # requests between them.
        rng = np.random.default_rng(seed)
        requests = _requests(
            rng, self.SEGMENTS * self.PER_SEGMENT, len(world.shapes),
            len(world.test) - ROWS + 1,
        )
        steps: list[tuple] = []
        for i, request in enumerate(requests):
            if i and i % self.PER_SEGMENT == 0:
                steps.append(("refit", i // self.PER_SEGMENT * self.STRIDE))
            steps.append(("execute", *request))
        return steps


class DriftStream(Workload):
    name = "drift_stream"
    tail_percentile = 75.0
    OPS = 40
    DAY = 8_640  # tuples of one day of the 12-mote trace
    QUARTER = DAY // 4
    # At its default 1,000-tuple replan interval the adaptive loop plans
    # after 1,000 tuples and may replan on drift after that; one tuple
    # short of its second interval replan, whose Heuristic-5 search would
    # make planning most of the op and halve the passes a run holds.
    WINDOW = 1_999
    DAYS = 5  # of the test trace's six whole days, so the last window fits
    JITTER = 540  # start within the first 1.5 hours of the quarter
    SHAPES = 4
    TRAIN_ROWS = 2_000

    def build(self) -> World:
        lab, train, test = _lab()
        engine = AcquisitionalEngine(lab.schema, train[: self.TRAIN_ROWS])
        return World(
            lab.schema.names,
            test,
            _lab_shapes(lab, self.SHAPES),
            engine,
            AcquisitionalService(engine),
            schema=lab.schema,
            train=train,
        )

    def reset(self, world: World) -> None:
        # A fresh engine and service per pass: the service's bandit store
        # would otherwise warm-start the learned loop from the last pass.
        world.engine = AcquisitionalEngine(
            world.extra["schema"], world.extra["train"][: self.TRAIN_ROWS]
        )
        world.service = AcquisitionalService(world.engine)

    def steps(self, world: World, seed: int) -> list[tuple]:
        # Planning time and cost hinge on the hour of day a window covers,
        # so the quarter each window starts in is fixed per shape (every
        # shape rotates through all four) and each shape meets every day
        # equally often; the seed draws which day each window takes, its
        # start within the quarter and the order of the ops.
        rng = np.random.default_rng(seed)
        per_shape = self.OPS // self.SHAPES
        steps = []
        for shape in range(self.SHAPES):
            days = rng.permutation(np.arange(per_shape) % self.DAYS)
            for k in range(per_shape):
                offset = (
                    int(days[k]) * self.DAY
                    + (k + shape) % 4 * self.QUARTER
                    + int(rng.integers(self.JITTER))
                )
                steps.append(("stream", shape, offset))
        order = rng.permutation(self.OPS)
        return [steps[i] for i in order]

    def run(self, world: World, step: tuple):
        _, shape, offset = step
        text = world.texts[shape]
        window = world.window(offset, self.WINDOW)
        learned = world.service.learned_stream_executor(text).process(window)
        adaptive = world.service.stream_executor(text).process(window)
        return learned, adaptive

    def check(self, world: World, step: tuple, answer) -> tuple[bool, int, float]:
        _, shape, offset = step
        learned, adaptive = answer
        truth = verdicts(world.shapes[shape], world.names, world.window(offset, self.WINDOW))
        ok = stream_ok(learned, truth) and stream_ok(adaptive, truth) and ledger_ok(learned)
        tuples = int(learned.costs.size + adaptive.costs.size)
        return ok, tuples, float(learned.costs.sum() + adaptive.costs.sum())

    def properties(self, world: World, steps: list[tuple]) -> dict:
        return {
            "ops_per_pass": len(steps),
            "requests_per_pass": 0,
            "distinct_shapes": len({step[1] for step in steps}),
            "miss_share": None,  # both loops plan every window from scratch
            "duplicate_share": None,
            "tuples_per_op": 2 * self.WINDOW,
        }


WORKLOADS = {w.name: w for w in (RefitChurn(), DriftStream())}
