"""``repro.obs`` — the unified observability layer.

One process-wide :class:`Observability` object (owned by the
:class:`~repro.db.database.Database`, shared by every connection, engine and
served view built on it) bundles the three concerns the subsystem provides:

* a :class:`~repro.obs.registry.MetricsRegistry` of counters, histograms and
  pull providers into which every layer's statistics are pushed or mirrored;
* per-statement :class:`~repro.obs.trace.TraceContext` span trees, retained in
  a bounded :class:`~repro.obs.trace.TraceRing`;
* a **slow-query log**: any statement whose *simulated* cost meets
  ``slow_query_seconds`` is kept (with its full span tree) in a second ring.

Everything is queryable through the SQL front door as virtual ``system.*``
tables — see :mod:`repro.db.sql` for the table list — and exportable as
Prometheus-style text via :func:`render_text` for the future HTTP tier.

Construct with ``enabled=False`` for a true no-op path: instruments become
shared null objects, traces are not recorded, and the serving hot path pays
only a few attribute lookups.
"""

from __future__ import annotations

import threading

from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricSample,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    TraceRing,
    current_trace,
    reset_current_trace,
    set_current_trace,
    use_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Observability",
    "Span",
    "TraceContext",
    "TraceRing",
    "current_trace",
    "render_text",
    "reset_current_trace",
    "set_current_trace",
    "use_trace",
]

#: Default slow-query threshold in *simulated* seconds.  Two random page reads
#: under the on-disk cost model already cost 0.01; a tenth of a simulated
#: second means "touched thousands of tuples or hundreds of pages".
DEFAULT_SLOW_QUERY_SECONDS = 0.1

#: Ring sizes: the most recent traces, and the most recent slow statements, kept.
TRACE_CAPACITY = 128
SLOW_QUERY_CAPACITY = 64


class Observability:
    """Registry + trace ring + slow-query log, as one shareable object.

    Parameters
    ----------
    enabled:
        False gives the zero-overhead null path (benchmark baseline).
    slow_query_seconds:
        Simulated-seconds threshold at which a statement enters the slow log.
        Mutable at runtime (``db.obs.slow_query_seconds = 0.0`` traps every
        statement — handy in tests).
    """

    def __init__(
        self,
        enabled: bool = True,
        slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
    ):
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry(enabled=enabled)
        self.traces = TraceRing(TRACE_CAPACITY)
        self.slow_queries = TraceRing(SLOW_QUERY_CAPACITY)
        self.slow_query_seconds = float(slow_query_seconds)
        self._lock = threading.Lock()
        self._plan_caches: dict[str, object] = {}
        # Statement-level instruments, resolved once: record_trace runs on
        # every statement and must not pay the registry's name lookup each
        # time.  (On a disabled registry these are the shared null objects.)
        self._statements_total = self.registry.counter("sql.statements_total")
        self._slow_queries_total = self.registry.counter("sql.slow_queries_total")
        self._simulated_histogram = self.registry.histogram(
            "sql.statement_simulated_seconds"
        )
        self._wall_histogram = self.registry.histogram("sql.statement_wall_seconds")

    # -- statement lifecycle -------------------------------------------------------------

    def begin_trace(self, sql: str) -> TraceContext | None:
        """A fresh trace for one statement, or None when disabled."""
        if not self.enabled:
            return None
        return TraceContext(sql)

    def record_trace(self, trace: TraceContext) -> None:
        """File a finalized trace into the ring(s) and statement metrics."""
        if not self.enabled:
            return
        self.traces.append(trace)
        self._statements_total.inc()
        self._simulated_histogram.observe(trace.simulated_seconds)
        self._wall_histogram.observe(trace.wall_seconds)
        if trace.simulated_seconds >= self.slow_query_seconds:
            self.slow_queries.append(trace)
            self._slow_queries_total.inc()

    # -- plan-cache roster ---------------------------------------------------------------
    #
    # Connections come and go; each registers a stats callable here so
    # ``system.plan_cache`` can enumerate the live ones.

    def register_plan_cache(self, name: str, stats_fn) -> None:
        with self._lock:
            self._plan_caches[name] = stats_fn

    def unregister_plan_cache(self, name: str) -> None:
        with self._lock:
            self._plan_caches.pop(name, None)

    def plan_cache_rows(self) -> list[dict[str, object]]:
        """One row per live connection's plan cache (``system.plan_cache``)."""
        with self._lock:
            entries = list(self._plan_caches.items())
        rows = []
        for name, stats_fn in sorted(entries):
            try:
                stats = dict(stats_fn())
            except Exception:
                continue
            stats["connection"] = name
            rows.append(stats)
        return rows


def render_text(registry: MetricsRegistry) -> str:
    """Prometheus-style text exposition of every collected metric.

    Dots in metric names become underscores (Prometheus identifiers); the
    ``# TYPE`` comment precedes each sample.  Ends with a newline, as the
    exposition format requires.
    """
    lines: list[str] = []
    for sample in registry.collect():
        flat = sample.name.replace(".", "_").replace("-", "_")
        lines.append(f"# TYPE {flat} {sample.kind}")
        value = sample.value
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{flat} {rendered}")
    return "\n".join(lines) + "\n" if lines else ""
