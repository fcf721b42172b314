"""The Database facade: catalog + buffer pool + SQL front-end."""

from __future__ import annotations

from collections.abc import Sequence

from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.catalog import Catalog
from repro.db.costmodel import CostModel
from repro.db.schema import TableSchema
from repro.db.sql.executor import ResultSet, SQLExecutor
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.obs import Observability

__all__ = ["Database"]


class Database:
    """An embedded relational database with simulated I/O accounting.

    Parameters
    ----------
    cost_model:
        Prices for the simulated storage operations; default models an
        on-disk system.  Use :meth:`repro.db.costmodel.CostModel.main_memory`
        for an in-memory database.
    buffer_pool_pages:
        How many pages the buffer pool may cache (None = unbounded).
    observability:
        The :class:`repro.obs.Observability` context every layer above this
        database shares (metrics registry, trace ring, slow-query log).
        Default constructs an enabled one; pass
        ``Observability(enabled=False)`` for the zero-overhead null path.

    There is one SQL executor: the plan operators of
    :mod:`repro.db.sql.plan`, each returning its answer as one columnar ``Chunk``.

    Examples
    --------
    >>> db = Database()
    >>> db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    >>> db.execute("INSERT INTO papers (id, title) VALUES (1, 'Hazy')").rowcount
    1
    >>> db.execute("SELECT COUNT(*) FROM papers").scalar()
    1
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        buffer_pool_pages: int | None = None,
        observability: Observability | None = None,
    ):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.stats = IOStatistics()
        self.pool = BufferPool(self.cost_model, buffer_pool_pages, self.stats)
        self.catalog = Catalog()
        self.executor = SQLExecutor(self)
        self.obs = observability if observability is not None else Observability()
        self.obs.registry.provider("db", self._db_metrics)
        self._register_system_tables()

    # -- observability -----------------------------------------------------------------

    def _db_metrics(self) -> dict[str, float]:
        """Buffer-pool and cost-ledger counters, mirrored into the registry."""
        stats = self.stats
        metrics: dict[str, float] = {
            "buffer.hits_total": stats.buffer_hits,
            "buffer.misses_total": stats.buffer_misses,
            "buffer.evictions_total": stats.evictions,
            "buffer.resident_pages": self.pool.resident_page_count(),
            "io.page_reads_total": stats.page_reads,
            "io.page_writes_total": stats.page_writes,
            "io.sequential_reads_total": stats.sequential_reads,
            "io.random_reads_total": stats.random_reads,
            "io.tuples_read_total": stats.tuples_read,
            "io.tuples_written_total": stats.tuples_written,
            "io.dot_products_total": stats.dot_products,
            "cost.simulated_seconds_total": stats.simulated_seconds,
        }
        for tag, seconds in stats.detail.items():
            metrics[f"cost.{tag}_simulated_seconds_total"] = seconds
        return metrics

    def _register_system_tables(self) -> None:
        """Expose the observability surfaces as virtual ``system.*`` tables."""
        obs = self.obs
        catalog = self.catalog

        def metrics_rows():
            return [
                {"name": sample.name, "kind": sample.kind, "value": sample.value}
                for sample in obs.registry.collect()
            ]

        def trace_summary(trace):
            return {
                "trace_id": trace.trace_id,
                "sql": trace.sql,
                "simulated_seconds": trace.simulated_seconds,
                "wall_seconds": trace.wall_seconds,
                "spans": len(trace.spans()),
            }

        def slow_query_rows():
            rows = []
            for trace in obs.slow_queries.snapshot():
                row = trace_summary(trace)
                row["threshold_seconds"] = obs.slow_query_seconds
                rows.append(row)
            return rows

        def trace_rows():
            return [row for trace in obs.traces.snapshot() for row in trace.to_rows()]

        catalog.register_system_table("system.metrics", metrics_rows)
        catalog.register_system_table("system.slow_queries", slow_query_rows)
        catalog.register_system_table("system.traces", trace_rows)
        catalog.register_system_table("system.plan_cache", obs.plan_cache_rows)
        # system.served_views starts empty; a HazyEngine re-registers it with
        # a live producer the moment one is built on this database.
        catalog.register_system_table("system.served_views", list)
        # Likewise system.connections: a repro.net.SQLServer fronting this
        # database re-registers it with its live wire-connection roster.
        catalog.register_system_table("system.connections", list)

    # -- schema management ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema object and register it in the catalog."""
        table = Table(schema, self.pool)
        self.catalog.register_table(table)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table and release its pages."""
        table = self.catalog.table(name)
        table.truncate()
        self.catalog.drop_table(name)

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.catalog.table(name)

    # -- SQL -------------------------------------------------------------------------------

    def execute(self, sql: str, parameters: tuple | list | None = None) -> ResultSet:
        """Parse and execute one SQL statement.

        Served views are read without session tracking; a
        :func:`repro.connect` connection gives its reads a session.
        """
        return self.executor.execute(parse(sql), parameters)

    def executemany(self, sql: str, parameter_rows: Sequence[Sequence[object]]) -> int:
        """Execute a prepared statement once per parameter row; returns total rowcount.

        The statement is parsed once and (for SELECTs) planned once; each
        execution only re-binds the ``?`` parameters.
        """
        return self.executor.execute_many(parse(sql), parameter_rows)
