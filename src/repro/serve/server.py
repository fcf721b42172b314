"""The ``ViewServer`` front-end: concurrent access to one classification view.

The server owns five moving parts and wires them together:

* a :class:`~repro.serve.sharding.ShardSet` — the entity space hash-partitioned
  into N shards, each with its own store, maintainer, water-band result cache
  and lock; an operation on a shard runs on the caller's thread under that
  lock, so serving runs one thread of its own, the maintenance worker's;
* a :class:`~repro.serve.batcher.ReadBatcher` — concurrent ``label_of`` calls
  coalesce into batched, per-shard ``read_many`` rounds, each run by one of
  the waiting readers on its own thread;
* a :class:`~repro.serve.maintenance.MaintenanceWorker` — writes are queued
  (bounded, backpressuring) and applied in batches by the view's one write
  side, a :class:`~repro.core.writes.ViewWriter` the server is *lent* while it
  serves, with training kept outside the lock readers take;
* one **published state** — an immutable
  :class:`~repro.persist.snapshot.PublishedState` (epoch, model, retained
  examples, per-shard epochs, applied WAL sequence number, the pickled
  feature function, the base-row hash of every stored entity) that
  :meth:`ViewServer.publish_epoch` swaps in with one assignment under the
  write lock.  A read's epoch tag and everything a checkpoint writes beside
  the shards' own exports are read from it: a checkpoint is a function of
  that one value, composed in :mod:`repro.persist.checkpoint`, and a warm
  restart resumes from the same value (:meth:`ViewServer.restore`);
* the :class:`~repro.serve.sync.ReadWriteLock` giving **snapshot
  consistency**: every read executes under the shared side of the lock, so it
  observes a fully applied epoch, and is tagged with that epoch; writes
  resolve to the epoch at which they became visible; a :class:`ClientSession`
  threads the two together into monotonic read-your-writes semantics.

The server and its sessions are two of a view's three **readers**
(:mod:`repro.core.reads`; the third is the unserved view's own maintainer),
each answering the same six reads, and both halves are written once:
:meth:`ViewServer.read` holds the closed check, the trace span, the shared
lock and the epoch capture and returns ``(answer, epoch)`` — the named reads
(``label_of``, ``all_members``, ...) are its untagged forms — and
:meth:`ClientSession._read` the wait-for-my-write before and the monotonic
check after.  The server also prices its reads for the planner (``estimate``).

A server serves one live :class:`~repro.core.engine.ClassificationView`
(``SERVE VIEW`` / ``HazyEngine.serve`` build it, :meth:`ViewServer.restore`
warm-starts it): it takes the view's entities, model and writer when it is
built, and from then until :meth:`ViewServer.close` the view's trigger body
hands every base-table write to :meth:`ViewServer.submit` (WAL append, then
enqueue), so ordinary ``INSERT``/``UPDATE``/``DELETE`` statements feed the
pipeline instead of retraining inline — the server's own ``insert_example``
and ``insert_entity`` are inserts into those tables too.  The server holds no
trigger, no trigger name and no table: it is the view that asks "am I
served?", so two served views over one base table never meet.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from collections.abc import Callable, Collection, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.maintainers.base import ViewMaintainer
from repro.core.reads import READS, read_estimate
from repro.core.stores.base import EntityStore
from repro.db.buffer_pool import IOStatistics, ledger_probe
from repro.db.types import KeyRange
from repro.exceptions import ConfigurationError, KeyNotFoundError, MaintenanceError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector
from repro.obs import Counter, current_trace
from repro.persist.checkpoint import CheckpointWriter, write_shard_state
from repro.persist.snapshot import LoadedCheckpoint, PublishedState, row_content_hash
from repro.persist.wal import WriteAheadLog
from repro.serve.batcher import ReadBatcher
from repro.serve.maintenance import MaintenanceWorker
from repro.serve.requests import WriteKind, WriteOp, WriteTicket
from repro.serve.sharding import ShardSet
from repro.serve.sync import ReadWriteLock

if TYPE_CHECKING:
    from repro.core.engine import ClassificationView

__all__ = ["ViewServer", "ClientSession"]


class ClientSession:
    """Per-client monotonic view of the server.

    Tracks the last epoch this client observed and the ticket of its last
    write; every read first waits for the pending write to become visible
    (read-your-writes) and then verifies the returned epoch never moves
    backwards (monotonic reads).

    It holds its server weakly, so a connection's sessions never keep a
    stopped server — its shards, stores and batcher — alive; a session whose
    server is gone answers as a closed server does.
    """

    def __init__(self, server: "ViewServer"):
        self._server = weakref.ref(server)
        self.last_epoch = 0
        self._pending: WriteTicket | None = None

    def _live(self) -> "ViewServer":
        server = self._server()
        if server is None:
            raise MaintenanceError("server is closed")
        return server

    def _read(self, operation: str, *args):
        """Every session read: wait for this session's pending write
        (read-your-writes), read, verify the epoch (monotonic reads)."""
        if self._pending is not None:
            # Clear the ticket before waiting: if the write failed, its error
            # surfaces on this read (read-your-writes of the failure) and the
            # session then recovers instead of re-raising forever.
            ticket, self._pending = self._pending, None
            self.last_epoch = max(self.last_epoch, ticket.wait())
        answer, epoch = self._live().read(operation, *args)
        if epoch < self.last_epoch:
            raise MaintenanceError(
                f"monotonic-read violation: session at epoch {self.last_epoch}, "
                f"server answered from epoch {epoch}"
            )
        self.last_epoch = epoch
        return answer

    def label_of(self, entity_id: object) -> int:
        """Single Entity read with session consistency."""
        return self._read("label_of", entity_id)

    def labels_of(self, entity_ids) -> dict[object, int]:
        """Batched point reads with session consistency (join probe path);
        unknown ids are simply absent from the result (inner-join semantics)."""
        return self._read("labels_of", entity_ids)

    def all_members(self, label: int = 1) -> list[object]:
        """All Members read with session consistency."""
        return self._read("all_members", label)

    def range_scan(self, label: int, key_range: KeyRange) -> list[object]:
        """Pushed-down key-range read with session consistency."""
        return self._read("range_scan", label, key_range)

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """Ranked read with session consistency."""
        return self._read("top_k", k, label)

    def contents(self) -> dict[object, int]:
        """Full-view read (one coherent epoch) with session consistency."""
        return self._read("contents")

    def insert_example(self, entity_id: object, label_value: object) -> WriteTicket:
        """Queue a training example; subsequent session reads see it applied."""
        ticket = self._live().insert_example(entity_id, label_value)
        self._pending = ticket
        return ticket

    def insert_entity(self, row) -> WriteTicket:
        """Queue a new entity; subsequent session reads see it applied."""
        ticket = self._live().insert_entity(row)
        self._pending = ticket
        return ticket

    def note_write(self, ticket: WriteTicket) -> None:
        """Register a write issued outside this session (e.g. a SQL INSERT
        executed on this session's connection) for read-your-writes."""
        self._pending = ticket


class ViewServer:
    """Concurrent serving front-end over one sharded classification view.

    Parameters
    ----------
    view:
        The view to serve.  The shards bulk-load its entities under its model
        (epoch 0), and its write side — feature function, trainer, retained
        examples, label conversion — is *lent* to the server: the maintenance
        worker runs every batch through it, and the view gets it back, as it
        then stands, on :meth:`close`.
    store_factory / maintainer_factory:
        Build one private store / maintainer per shard.
    shards ... wal:
        The serving options, each under its ``SERVE VIEW ... WITH (...)``
        name (``HazyEngine._SERVER_OPTIONS``, which validates them before a
        server is built).
    resume:
        Warm restart (see :meth:`restore`): a loaded checkpoint whose shard
        states are imported instead of bulk-loading the view's entities and
        whose published state the server resumes from.
    """

    def __init__(
        self,
        view: "ClassificationView",
        store_factory: Callable[[], EntityStore],
        maintainer_factory: Callable[[EntityStore], ViewMaintainer],
        shards: int = 4,
        wal: str | Path | None = None,
        resume: LoadedCheckpoint | None = None,
    ):
        writer = view.writer
        self._view = view
        per_shard = dict(store_factory=store_factory, maintainer_factory=maintainer_factory)
        if resume is not None:
            imports = [state.to_import() for state in resume.shard_states]
            self.shards = ShardSet.restore(imports, **per_shard)
            published = resume.published
        else:
            self.shards = ShardSet.build(
                view.entity_snapshot(), view.model, num_shards=shards, **per_shard
            )
            # The one scan of the base table: nothing is queued yet, so table
            # and shards agree; from here the hashes follow the writes.
            features, hashes = writer.pickled_feature_function(), self._base_row_hashes()
            published = PublishedState(
                0, view.model, tuple(writer.examples), (0,) * shards, 0, features, hashes
            )
        self.fanout = len(self.shards)
        self.writer = writer
        self.trainer = writer.trainer
        self.rw_lock = ReadWriteLock()
        #: The one published state.  Phase 1 of a batch moves the writer's
        #: examples, trainer and corpus statistics before the batch is visible;
        #: whatever must describe the *published* epoch — a read's tag, a
        #: checkpoint — reads this.  Replaced, never mutated, under the write lock.
        self.published = published
        self._train_stats = IOStatistics()
        self._cost_model = self.shards.shards[0].maintainer.store.cost_model
        self._ledgers = tuple(shard.maintainer.store.stats for shard in self.shards.shards)
        #: The last write to each entity id touched while serving — its
        #: features, None once removed — replayed against the source view on
        #: close.  Bounded by the distinct ids written, not by the write count.
        self._entity_writes: dict[object, SparseVector | None] = {}
        self._accepting = True
        self._closed = False
        self._ticket_local = threading.local()
        #: Observability counters (thread-safe; reported by ``stats()``, which
        #: the engine registers as the per-view metrics provider).
        self.epochs_published = Counter()
        self.trigger_diverts = Counter()
        #: Committed checkpoints, the bytes each wrote and the wall seconds
        #: each took — checkpoint I/O as ``system.metrics`` shows it.
        self.checkpoints = Counter()
        self.checkpoint_bytes = Counter()
        self.checkpoint_wall_seconds = Counter()
        #: Write-ahead log of diverted ops (optional).  A fresh serve wipes
        #: any stale segments — the base tables are authoritative for
        #: pre-serve state — while a warm restart continues the survivor.
        self._wal = WriteAheadLog(wal, fresh=resume is None) if wal is not None else None
        #: Where the last successful checkpoint landed — the default parent
        #: for ``checkpoint(..., incremental=True)``.
        self._last_checkpoint_path: Path | None = None
        self.worker = MaintenanceWorker(self)
        self.batcher = ReadBatcher(self._execute_read_batch, cost_probe=ledger_probe(self._ledgers))
        # Serving's one thread starts last, after everything that can raise.
        self.worker.start()
        # From here the view's trigger body hands its writes to ``submit``.
        view._server = self

    # ------------------------------------------------------------------ reads

    def _execute_read_batch(self, keys: Sequence[object]) -> dict[object, object]:
        """Batcher round: one coherent, epoch-tagged read across the shards.

        Unknown ids stay as their exception instance so the batcher fails only
        that key's waiters, not the whole round.
        """
        with self.rw_lock.read_locked():
            epoch = self.published.epoch
            labels = self.shards.read_batch(keys)
        return {
            key: value if isinstance(value, BaseException) else (value, epoch)
            for key, value in labels.items()
        }

    @contextmanager
    def _shard_span(self, operation: str):
        """Record a scatter/gather read as spans on the active trace.

        One parent span for the whole gather plus one child per shard, each
        carrying that shard's simulated-seconds delta, read off the shard
        store ledgers before and after the gather without their locks (a
        ledger only grows; a batcher round running beside the gather can
        add to a delta).  No-op when nothing is tracing.
        """
        trace = current_trace()
        if trace is None:
            yield
            return
        ledgers = self.ledgers()
        before = [ledger.simulated_seconds for ledger in ledgers]
        parent = trace.add_span(
            f"serve.{operation}",
            parent_id=trace.cross_thread_parent_id,
            detail=f"scatter/gather across {len(ledgers)} shards",
        )
        started = time.perf_counter()
        try:
            yield
        finally:
            parent.wall_seconds = time.perf_counter() - started
            after = [ledger.simulated_seconds for ledger in ledgers]
            parent.simulated_seconds = sum(after) - sum(before)
            for index, (earlier, later) in enumerate(zip(before, after)):
                trace.add_span(
                    f"shard[{index}]",
                    parent_id=parent.span_id,
                    simulated_seconds=later - earlier,
                )

    def read(self, operation: str, *args) -> tuple[object, int]:
        """The one read entry point: ``(answer, epoch)`` for one of the six
        :data:`~repro.core.reads.READS`, the epoch being the published epoch
        the answer reflects.

        Point reads go through the request batcher, whose rounds run under
        the shared side of the readers/writer lock
        (:meth:`_execute_read_batch`); every other read is a scatter/gather
        across the shards under that lock, with the epoch captured inside it.
        A read that passes the closed check while :meth:`close` runs answers
        from the last published epoch: closing leaves the shards readable.
        """
        if self._closed:
            raise MaintenanceError("server is closed")
        if operation == "label_of":
            return self.batcher.read(*args)
        if operation == "labels_of":
            return self._labels_of(*args)
        if operation not in READS:
            raise ConfigurationError(f"unknown read {operation!r}; known: {READS}")
        with self._shard_span(operation), self.rw_lock.read_locked():
            epoch = self.published.epoch
            answer = getattr(self.shards, operation)(*args)
        return answer, epoch

    def _labels_of(self, entity_ids) -> tuple[dict[object, int], int]:
        """Every distinct key is queued with the request batcher in one burst,
        so the whole batch coalesces into as few ``read_many`` rounds as
        ``MAX_READ_BATCH`` allows.  Unknown ids are dropped from the result; the
        epoch is the newest any round answered from — never older than the
        one published when the burst was queued."""
        epoch = self.published.epoch
        labels: dict[object, int] = {}
        for entity_id, answer in self.batcher.read_many(entity_ids).items():
            if isinstance(answer, KeyNotFoundError):
                continue
            if isinstance(answer, BaseException):
                raise answer
            label, tag = answer
            labels[entity_id] = label
            epoch = max(epoch, tag)
        return labels, epoch

    def label_of(self, entity_id: object) -> int:
        """Single Entity read: the entity's label in {-1, +1}."""
        return self.read("label_of", entity_id)[0]

    def labels_of(self, entity_ids) -> dict[object, int]:
        """Batched point reads; unknown ids are absent from the result."""
        return self.read("labels_of", entity_ids)[0]

    def all_members(self, label: int = 1) -> list[object]:
        """All Members read across every shard."""
        return self.read("all_members", label)[0]

    def range_scan(self, label: int, key_range: KeyRange) -> list[object]:
        """Pushed-down ``class = label AND key in range`` read: every shard
        scans its own eps-clustered store with the key filter applied before
        any classification work, under one coherent epoch."""
        return self.read("range_scan", label, key_range)[0]

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """The ``k`` entities deepest inside class ``label`` under the current model."""
        return self.read("top_k", k, label)[0]

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}`` under one coherent epoch."""
        return self.read("contents")[0]

    #: The reader protocol's planning half (see :mod:`repro.core.reads`), with
    #: ``fanout``, the number of shards a scatter/gather read fans out to.
    served = True

    def estimate(self, operation: str) -> float:
        """What the planner should expect ``operation`` to cost here."""
        return read_estimate(operation, [shard.maintainer.store for shard in self.shards.shards])

    def ledgers(self) -> tuple[IOStatistics, ...]:
        """The ledgers reads charge: each shard store's private one, in shard order."""
        return self._ledgers

    def session(self) -> ClientSession:
        """A new per-client session with monotonic read-your-writes semantics."""
        return ClientSession(self)

    @property
    def epoch(self) -> int:
        """The latest published epoch."""
        return self.published.epoch

    # ------------------------------------------------------------------ writes

    def _require_accepting(self) -> None:
        if not self._accepting:
            raise MaintenanceError("server is closed to writes")

    def insert_example(self, entity_id: object, label_value: object) -> WriteTicket:
        """Queue one training example; returns its visibility ticket.

        The row is inserted into the view's examples table (so SQL state stays
        authoritative) and the diverted trigger carries it into the queue.
        """
        self._require_accepting()
        row = {self.writer.examples_key: entity_id, self.writer.examples_label: label_value}
        return self._insert_via_table(self._view.definition.examples_table, row)

    def insert_entity(self, row) -> WriteTicket:
        """Queue one new entity: a row inserted into the view's entities table."""
        self._require_accepting()
        return self._insert_via_table(self._view.definition.entities_table, dict(row))

    def _enqueue_logged(
        self,
        kind: WriteKind,
        row: dict[str, object] | None,
        old_row: dict[str, object] | None,
    ) -> WriteTicket:
        """The single choke point every diverted op passes through:
        **log-before-enqueue**.  The WAL append flushes before the op enters
        the queue, so an op a client saw acknowledged is either published
        (epoch advanced) or replayable from the log — never silently lost to
        a crash of the in-memory pipeline."""
        wal_seq = None
        if self._wal is not None:
            wal_seq = self._wal.append(kind.value, row, old_row)
        return self.replay(kind, row, old_row, wal_seq)

    def replay(
        self, kind: WriteKind, row=None, old_row=None, wal_seq: int | None = None
    ) -> WriteTicket:
        """Enqueue a write **without** logging it — recovery's entry point: the
        op is already in the WAL (``wal_seq``) or derivable from the base tables."""
        return self.worker.enqueue(
            WriteOp(kind=kind, row=row, old_row=old_row, wal_seq=wal_seq)
        )

    def submit(self, kind: WriteKind, row, old_row) -> bool:
        """The view's trigger body hands over one base-table write.

        Returns False once the server is closing — the view then applies the
        write inline.  Otherwise the write is logged, enqueued, and its ticket
        parked for :meth:`take_session_ticket`.
        """
        if not self._accepting:
            return False
        self._ticket_local.ticket = self._enqueue_logged(kind, row, old_row)
        self.trigger_diverts.inc()
        return True

    def _insert_via_table(self, table_name: str, row: dict[str, object]) -> WriteTicket:
        self._ticket_local.ticket = None
        self._view.database.table(table_name).insert(row)
        ticket = self.take_session_ticket()
        if ticket is None:  # the trigger did not submit — should not happen while serving
            raise MaintenanceError("insert did not reach the maintenance queue")
        return ticket

    def flush(self, timeout: float | None = None) -> int:
        """Barrier: block until every previously queued write is visible."""
        return self.worker.flush(timeout=timeout)

    def take_session_ticket(self) -> WriteTicket | None:
        """Claim the ticket of the last diverted write issued on this thread.

        SQL DML against the view's base tables reaches the maintenance queue
        through :meth:`submit`, which parks the resulting ticket in a
        thread-local; the connection layer claims it here (exactly once) to
        give its per-connection session read-your-writes over plain SQL.
        """
        ticket = getattr(self._ticket_local, "ticket", None)
        self._ticket_local.ticket = None
        return ticket

    # ------------------------------------------- host protocol (maintenance worker)

    def charge_featurize(self, nonzeros: int) -> None:
        """Worker hook: account one featurization on the training ledger."""
        self._train_stats.charge(self._cost_model.featurize_cost(nonzeros), "featurize")

    def charge_training(self, steps: int) -> None:
        """Worker hook: account ``steps`` incremental training steps, one charge each."""
        for _ in range(steps):
            self._train_stats.charge(self._cost_model.model_update, "model_update")

    def publish_epoch(
        self,
        final_model: LinearModel | None,
        dirty_shards: Collection[int] = (),
        wal_seq: int | None = None,
        row_hashes: Mapping[object, str | None] | None = None,
        feature_function: bytes | Exception | None = None,
        entity_features: Mapping[object, SparseVector | None] | None = None,
    ) -> int:
        """Worker hook (under the write lock): swap in the next published state.

        ``dirty_shards`` are the shards the batch touched (their last-change
        epoch moves to the new epoch — the bookkeeping incremental
        checkpoints diff against) and ``wal_seq`` is the highest WAL
        sequence number the batch carried, now durable in published state.
        ``row_hashes`` holds the content hash of each base-table row the
        batch featurized (None: the entity is gone), ``feature_function`` the
        function re-pickled after it did; both default to "unchanged".
        ``entity_features`` holds the features each entity the batch wrote was
        last stored with (None: removed) — what :meth:`close` hands back.
        """
        last = self.published
        epoch = last.epoch + 1
        hashes = last.row_hashes
        if row_hashes:
            hashes = dict(hashes)
            for entity_id, digest in row_hashes.items():
                if digest is None:
                    hashes.pop(entity_id, None)
                else:
                    hashes[entity_id] = digest
        if entity_features:
            self._entity_writes.update(entity_features)
        self.published = PublishedState(
            epoch=epoch,
            model=final_model if final_model is not None else last.model,
            examples=tuple(self.writer.examples),
            shard_epochs=tuple(
                epoch if index in dirty_shards else value
                for index, value in enumerate(last.shard_epochs)
            ),
            wal_applied_seq=max(last.wal_applied_seq, wal_seq or 0),
            feature_function=feature_function or last.feature_function,
            row_hashes=hashes,
        )
        self.epochs_published.inc()
        return epoch

    def rotate_wal(self) -> None:
        """Worker hook (after publish, outside the lock): close the WAL
        segment so it aligns with the epoch boundary and pruning at the next
        checkpoint is whole-file unlink."""
        if self._wal is not None:
            self._wal.rotate()

    @property
    def wal(self) -> WriteAheadLog | None:
        """The server's write-ahead log, when one was configured."""
        return self._wal

    # ------------------------------------------------------------ checkpoint / recovery

    def _base_row_hashes(self) -> dict[object, str]:
        """Content hashes of the view's base-table entity rows.

        Kept per entity in the published state and stored per shard in a
        snapshot so warm-restart replay can detect content-only UPDATEs —
        churn an insert/delete diff cannot see."""
        table = self._view.database.table(self._view.definition.entities_table)
        key = self._view.definition.entities_key
        return {row[key]: row_content_hash(row) for row in table.scan()}

    def _manifest_identity(self) -> dict[str, object]:
        """The manifest fields naming the view and its engine configuration."""
        reference = self.shards.shards[0].maintainer
        return dict(
            view_name=self._view.definition.view_name,
            definition=dataclasses.asdict(self._view.definition),
            architecture=reference.store.architecture,
            strategy=reference.strategy_name,
            approach=reference.approach,
            positive_label=self.writer.positive_label,
        )

    def checkpoint(
        self,
        path: str | Path,
        incremental: bool = False,
        parent: str | Path | None = None,
    ) -> dict[str, object]:
        """Write a consistent snapshot of the whole serving state to ``path``.

        The cut is **quiesce-free**: under the *shared* side of the
        readers/writer lock — reads keep flowing, only the maintenance
        worker's short apply phase is excluded — the published state is read
        once and the shards export theirs, so the snapshot reflects one
        published epoch.  Nothing else is read: the writer, the feature
        function and the base table may all be ahead of that epoch already.
        Shard files are serialized and written on this thread, one after
        another, after the lock is released — the exports are detached
        copies, so the writes take no shard lock; the manifest is written
        last, as the commit point, and the WAL is pruned only after it.

        With ``incremental=True`` only shards whose epoch moved since
        ``parent`` (default: this server's last checkpoint) are rewritten;
        the directory format, incremental rules included, is
        :class:`~repro.persist.checkpoint.CheckpointWriter`'s.

        Returns a small info dict (``path``, ``epoch``, ``entities``,
        ``bytes``, ``shards_written``, ``shard_bytes``).
        """
        if self._closed:
            raise MaintenanceError("cannot checkpoint a closed server")
        started = time.perf_counter()
        writer = CheckpointWriter(
            path, len(self.shards), incremental, parent or self._last_checkpoint_path
        )
        with self.rw_lock.read_locked():
            published = self.published
            exported = self.shards.export_states(writer.stale_shards(published.shard_epochs))
        states = [
            writer.shard_state(index, state, published.row_hashes)
            for index, state in exported.items()
        ]
        written = [(state, *write_shard_state(writer.directory, state)) for state in states]
        info = writer.commit(published, written, **self._manifest_identity())
        if self._wal is not None and published.wal_applied_seq:
            # Everything at or below the manifest's applied seq is durable in
            # the snapshot; replay will never need those segments again.
            self._wal.prune(published.wal_applied_seq)
        self._last_checkpoint_path = writer.directory
        self.checkpoints.inc()
        self.checkpoint_bytes.inc(info["bytes"])
        self.checkpoint_wall_seconds.inc(time.perf_counter() - started)
        return info

    @classmethod
    def restore(
        cls,
        checkpoint: LoadedCheckpoint,
        view: "ClassificationView",
        store_factory: Callable[[], EntityStore],
        maintainer_factory: Callable[[EntityStore], ViewMaintainer],
        **options,
    ) -> "ViewServer":
        """Warm-start a server for ``view`` from a loaded checkpoint.

        Shard stores are rebuilt via ``import_state`` — no featurization, no
        dot products, no re-sort — the server resumes from the checkpoint's
        published state, and the view's writer is rewound to it: the trainer
        to the published model, the retained examples to the published ones.
        The shard count always comes from the snapshot (eps values are only
        meaningful on the shard that stored them); asking for a different
        ``shards`` is a :class:`~repro.exceptions.ConfigurationError`, not a
        silent override.
        """
        manifest = checkpoint.manifest
        requested_shards = options.pop("shards", None)
        if requested_shards is not None and int(requested_shards) != manifest.num_shards:
            raise ConfigurationError(
                f"checkpoint was written with {manifest.num_shards} shards; "
                f"cannot restore with shards={requested_shards} — per-entity eps "
                "values are only meaningful on the shard that stored them, so "
                "restore always preserves the snapshot's shard assignment"
            )
        published = checkpoint.published
        view.writer.trainer.load_state(published.model, manifest.trainer_steps)
        view.writer.examples[:] = published.examples
        return cls(view, store_factory, maintainer_factory, resume=checkpoint, **options)

    def replay_wal(self, flush: bool = True, observe: Callable | None = None) -> int:
        """Re-enqueue every WAL record not yet reflected in this server's state.

        Recovery's one replay loop — ``HazyEngine._replay_post_checkpoint``
        calls it with ``observe`` (shown each record's ``(kind, row,
        old_row)`` so it can reconcile the base tables afterwards): records
        above the restored ``wal_applied_seq`` re-enter the queue in arrival
        order, not logged again and carrying their original sequence numbers
        so the next publish and checkpoint account for them.  Individual ops that no longer apply (e.g. an
        example referencing an entity deleted by later history) fail their
        ticket without poisoning the rest.  Returns the number of records
        re-enqueued.
        """
        if self._wal is None:
            return 0
        records = self._wal.records_after(self.published.wal_applied_seq)
        for record in records:
            kind = WriteKind(record.kind)
            self.replay(kind, record.row, record.old_row, record.seq)
            if observe is not None:
                observe(kind, record.row, record.old_row)
        if flush and records:
            self.worker.flush()
        return len(records)

    # ------------------------------------------------------------------ lifecycle

    def close(self, timeout: float | None = None) -> None:
        """Quiesce the pipeline and hand the view back, consistent.

        Drains the write queue, stops the worker, then resyncs the
        source view's direct maintainer: entity churn is replayed and the final
        model applied once — sound because the cumulative band since the
        maintainer's last reorganization covers every model movement in
        between (Lemma 3.1).  Not safe to call concurrently with new writes.
        """
        if self._closed:
            return
        self._accepting = False
        self.worker.flush(timeout=timeout)
        self.worker.close(timeout=timeout)
        self._closed = True  # from here a read raises MaintenanceError
        try:
            maintainer = self._view.maintainer
            if not maintainer._loaded:
                # Warm-restored view: its direct maintainer was never
                # bulk-loaded (that is the whole point of the warm start).
                # Hand back a fresh load from the served shards' current
                # contents under the final model.
                entities = [
                    (entity_id, features)
                    for state in self.shards.export_states(range(len(self.shards))).values()
                    for entity_id, features, _eps, _label in state["records"]
                ]
                maintainer.bulk_load(entities, self.trainer.model)
            else:
                # Bring each entity written while serving to its last
                # state: one inserted and later deleted must end up
                # absent, not resurrected; one rewritten, replaced.
                for entity_id, features in self._entity_writes.items():
                    try:
                        maintainer.remove_entity(entity_id)
                    except KeyNotFoundError:
                        pass
                    if features is not None:
                        maintainer.add_entity(entity_id, features)
                maintainer.apply_model(self.trainer.model)
        finally:
            # Even if resync fails, never leave the view wired to a dead server.
            self._view._server = None
            if self._wal is not None:
                self._wal.close()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ accounting

    def simulated_seconds(self) -> float:
        """Total simulated seconds across shard ledgers and training."""
        shard_seconds = sum(ledger.simulated_seconds for ledger in self.ledgers())
        return shard_seconds + self._train_stats.simulated_seconds

    def simulated_read_seconds(self) -> float:
        """Simulated seconds spent serving reads."""
        return self.shards.simulated_read_seconds()

    def stats(self) -> dict[str, float]:
        """Every serving counter as one flat ``{dotted_name: number}`` dict.

        Taken under the shared side of the readers/writer lock so the
        snapshot is consistent: a maintenance batch mid-apply can never leak
        a new epoch paired with the old queue/cache numbers (or vice versa).
        The engine registers it unchanged as the ``serve.<view>`` provider.
        """
        with self.rw_lock.read_locked():
            flat: dict[str, float] = {
                "epoch": self.epoch,
                "entities": self.shards.count(),
                "num_shards": len(self.shards),
                "epochs_published_total": self.epochs_published.value,
                "trigger_diverts_total": self.trigger_diverts.value,
                "simulated_seconds_total": self.simulated_seconds(),
                "simulated_read_seconds_total": self.simulated_read_seconds(),
            }
            per_shard = self.shards.per_shard_stats()
            components = {
                "batcher": self.batcher.stats(),
                "maintenance": self.worker.stats(),
                "cache": {
                    key.removeprefix("cache_"): sum(shard[key] for shard in per_shard)
                    for key in per_shard[0]
                    if key.startswith("cache_")
                },
                "checkpoint": {
                    "total": self.checkpoints.value,
                    "bytes_total": self.checkpoint_bytes.value,
                    "wall_seconds_total": self.checkpoint_wall_seconds.value,
                },
            }
            if self._wal is not None:
                components["wal"] = self._wal.stats()
            for component, stats in components.items():
                for key, value in stats.items():
                    flat[f"{component}.{key}"] = value
            for index, shard_stats in enumerate(per_shard):
                for key, value in shard_stats.items():
                    flat[f"shard{index}.{key}"] = value
            return flat

