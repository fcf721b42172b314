"""Per-statement tracing: span trees across threads, carried by a contextvar.

A :class:`TraceContext` is born in ``Connection.execute`` and describes one
statement as a tree of :class:`Span` records: the statement root, then
parse → plan → execute children, then one span per plan node (mirroring
``EXPLAIN ANALYZE`` — the per-node *actual* simulated seconds are read from the
same ``PlanRuntime.node_stats`` the EXPLAIN renderer uses, so the two always
agree to the last digit), and finally spans recorded for the statement's work
in the serving layer: batcher rounds and per-shard scatter/gather calls.

The trace travels in a :mod:`contextvars` variable.  The client thread
activates its trace with :func:`use_trace`; anything running on that thread
(the executor, the serving façade) can reach it via :func:`current_trace`.
A batcher round serves every reader queued for it but runs on one reader's
thread, so each reader captures ``current_trace()`` into its queued request,
and the reader running the round records the round's span directly into
every captured context.  Span ids come from an atomic counter and the span
list only ever grows by ``list.append``, so concurrent recorders never tear
the tree.

Every span carries simulated seconds (the paper's cost-model currency),
estimated simulated seconds where a plan estimate exists, and wall-clock
seconds — kept separate end to end, as in the metrics registry.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "Span",
    "TraceContext",
    "TraceRing",
    "current_trace",
    "reset_current_trace",
    "set_current_trace",
    "use_trace",
]

_TRACE_IDS = itertools.count(1)

_CURRENT: ContextVar[TraceContext | None] = ContextVar("repro_obs_trace", default=None)


def current_trace() -> TraceContext | None:
    """The trace active on this thread/context, or None when not tracing."""
    return _CURRENT.get()


@contextmanager
def use_trace(trace: TraceContext | None):
    """Make ``trace`` the active trace for the duration of the block."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


def set_current_trace(trace: TraceContext | None):
    """Activate ``trace``; returns the token for :func:`reset_current_trace`.

    The raw pair behind :func:`use_trace`, for per-statement hot paths where
    the contextmanager's generator overhead matters.  Always reset in a
    ``finally``.
    """
    return _CURRENT.set(trace)


def reset_current_trace(token) -> None:
    """Undo a :func:`set_current_trace`."""
    _CURRENT.reset(token)


class Span:
    """One timed region of a statement's execution.

    ``estimated_seconds`` is None where no plan-time estimate exists (parse,
    batcher rounds); ``rows`` is None for spans that don't produce rows.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "simulated_seconds",
        "estimated_seconds",
        "wall_seconds",
        "rows",
        "detail",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        simulated_seconds: float = 0.0,
        estimated_seconds: float | None = None,
        wall_seconds: float = 0.0,
        rows: int | None = None,
        detail: str | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.simulated_seconds = simulated_seconds
        self.estimated_seconds = estimated_seconds
        self.wall_seconds = wall_seconds
        self.rows = rows
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"Span(#{self.span_id} parent={self.parent_id} {self.name!r} "
            f"sim={self.simulated_seconds:.6f}s)"
        )


class TraceContext:
    """The span tree for one statement.

    Spans are appended in creation order; ``span_id`` 1 is always the
    statement root.  ``cross_thread_parent_id`` names the span under which
    recorders on *other* threads (batcher rounds, shard calls) should hang
    their work — the owning thread points it at the execute span before the
    plan runs and clears it after.
    """

    def __init__(self, sql: str):
        self.trace_id = next(_TRACE_IDS)
        self.sql = sql
        self.simulated_seconds = 0.0
        self.wall_seconds = 0.0
        self.cross_thread_parent_id: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._pending_plans: list[tuple] = []

    # -- recording -----------------------------------------------------------------------

    def add_span(
        self,
        name: str,
        parent_id: int | None = None,
        simulated_seconds: float = 0.0,
        estimated_seconds: float | None = None,
        wall_seconds: float = 0.0,
        rows: int | None = None,
        detail: str | None = None,
    ) -> Span:
        """Append one span (thread-safe); returns it for in-place updates.

        Lock-free: the id counter and ``list.append`` are each atomic under
        the GIL, so concurrent recorders never tear the list.  Only the
        creating thread may mutate the returned span's fields.
        """
        span = Span(
            next(self._ids),
            parent_id,
            name,
            simulated_seconds,
            estimated_seconds,
            wall_seconds,
            rows,
            detail,
        )
        self._spans.append(span)
        return span

    def add_plan_tree(self, plan, runtime, parent_id: int | None) -> None:
        """Mirror an executed plan's node actuals as spans under ``parent_id``.

        Deferred: the ``(plan, runtime)`` pair is parked here and only
        flattened into spans when the trace is first *read*.  ``runtime`` is
        created fresh by every ``plan.run`` and never mutated after it
        returns, so reading it later yields exactly the per-node actuals
        ``EXPLAIN ANALYZE`` would report — and the statement hot path pays a
        single list append instead of one span per plan node.
        """
        self._pending_plans.append((plan, runtime, parent_id))

    def _flush_pending_locked(self) -> None:
        """Flatten parked plan trees into node spans (caller holds the lock)."""
        pending, self._pending_plans = self._pending_plans, []
        for plan, runtime, parent_id in pending:
            parents_by_depth: dict[int, int | None] = {-1: parent_id}
            for depth, node in plan.root.walk():
                stats = runtime.stats_of(node)
                span = Span(
                    next(self._ids),
                    parents_by_depth.get(depth - 1, parent_id),
                    f"node:{node.label()}",
                    simulated_seconds=stats.seconds,
                    estimated_seconds=node.estimated_seconds,
                    rows=stats.rows,
                    detail=node.detail or None,
                )
                self._spans.append(span)
                parents_by_depth[depth] = span.span_id

    def finalize(self, simulated_seconds: float, wall_seconds: float) -> None:
        """Record statement totals (also mirrored onto the root span)."""
        self.simulated_seconds = simulated_seconds
        self.wall_seconds = wall_seconds
        spans = self._spans
        if spans:
            root = spans[0]
            root.simulated_seconds = simulated_seconds
            root.wall_seconds = wall_seconds

    # -- reading -------------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of the span list in creation order.

        Plan-node spans deferred by :meth:`add_plan_tree` are flattened on the
        first read; they were recorded after every live span (the plan tree is
        mirrored once execution finishes), so creation order is preserved.
        """
        with self._lock:
            if self._pending_plans:
                self._flush_pending_locked()
            return list(self._spans)

    def to_rows(self) -> list[dict[str, object]]:
        """One dict per span, shaped for the ``system.traces`` table."""
        return [
            {
                "trace_id": self.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "simulated_seconds": span.simulated_seconds,
                "estimated_seconds": span.estimated_seconds,
                "wall_seconds": span.wall_seconds,
                "rows": span.rows,
                "detail": span.detail,
                "sql": self.sql,
            }
            for span in self.spans()
        ]

    def render(self) -> str:
        """Indented text rendering of the span tree (debugging aid)."""
        spans = self.spans()
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        lines: list[str] = [f"trace #{self.trace_id}: {self.sql}"]

        def emit(span: Span, depth: int) -> None:
            estimate = (
                f" est={span.estimated_seconds:.6f}s"
                if span.estimated_seconds is not None
                else ""
            )
            rows = f" rows={span.rows}" if span.rows is not None else ""
            lines.append(
                f"{'  ' * depth}{span.name}  sim={span.simulated_seconds:.6f}s{estimate}{rows}"
            )
            for child in children.get(span.span_id, ()):
                emit(child, depth + 1)

        for root in children.get(None, ()):
            emit(root, 0)
        return "\n".join(lines)


class TraceRing:
    """Bounded, thread-safe ring of finished traces (most recent last).

    Backed by a ``deque(maxlen=capacity)`` so the full-ring steady state —
    every statement appends — evicts in O(1); ``deque.append`` is atomic
    under the GIL, so the hot path needs no lock (snapshots still take one
    to get a consistent copy).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self._lock = threading.Lock()
        self._capacity = int(capacity)
        self._traces: deque[TraceContext] = deque(maxlen=self._capacity)

    def append(self, trace: TraceContext) -> None:
        self._traces.append(trace)

    def snapshot(self) -> list[TraceContext]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        return len(self._traces)
