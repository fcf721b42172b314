"""The background maintenance pipeline.

A single worker thread drains a **bounded** queue of
:class:`~repro.serve.requests.WriteOp` values and applies them to the sharded
view in batches.  The batch lifecycle is built around one invariant: *reads
never block behind model retraining*.

Each drained batch goes through two phases:

1. **Prepare (no server lock held).**  The batch is handed, whole and in
   arrival order, to the view's :class:`~repro.core.writes.ViewWriter` — the
   same body an unserved view runs inline for a run of one.  It featurizes new
   entities, resolves training examples against entity features (each lookup
   under its shard's lock, for that lookup only) and trains:
   one gradient step per example, collecting the intermediate model
   snapshots, or the paper's footnote-2 full retrain when an example was
   deleted or replaced.  Readers keep streaming through the shards the whole
   time.
2. **Apply (writers' side of the server lock).**
   :func:`~repro.core.writes.apply_writes` lands entity removals and
   insertions on their owning shards, then hands the collected model run to
   every shard's
   :meth:`~repro.core.maintainers.base.ViewMaintainer.apply_model_batch` —
   the eager Hazy maintainer reclassifies only the cumulative water band,
   once, under the final model.  The server's next published state is then
   swapped in (:meth:`~repro.serve.server.ViewServer.publish_epoch`: the
   epoch, the model, and — for a batch that featurized rows — their content
   hashes and the feature function re-pickled *here*, on the thread that
   moved its statistics, before the lock is taken), and every ticket in the
   batch resolves to the new epoch.

**A write that cannot apply fails its own ticket and nothing else.**  The
writer validates each write before touching state and reports the refused
ones by position (an example for an entity that does not exist, a label with
no ±1 reading); their tickets fail with that error, ``last_error`` records
it, and every other ticket of the batch — a barrier included — resolves to
the published epoch.  A refused op is *consumed*: its WAL sequence number is
covered by the publish, so recovery never trips over it again.

**When a round starts.**  A burst of acknowledged writes is cheapest applied
as *one* round — one cumulative-band pass under the final model is what
``apply_model_batch`` exists for — and a round that starts on the first
``put`` of the burst both misses the rest of it and competes with the
producer for the interpreter while the burst is still being acknowledged.
So after taking the first op of a batch the worker parks on one event, and
the round starts when someone **demands** it or the batch cannot grow:

a. a :meth:`WriteTicket.wait() <repro.serve.requests.WriteTicket.wait>` on a
   ticket that is not resolved yet — a session's read-your-writes read,
   ``flush``, ``STOP SERVING``, ``close``, a restore's WAL replay — starts
   it immediately;
b. so does a ``BARRIER`` op;
c. so does the queue holding a full :data:`MAX_WRITE_BATCH` (or being full
   outright);
d. otherwise it starts :data:`ROUND_DEADLINE_S` (2 ms) after the first op was
   taken — the bound on how much later than the end of the previous round a
   *sessionless* reader can see an acknowledged write.

The event is cleared *before* the greedy drain and set *after* the enqueue,
so a waiter whose op missed this drain finds the event still set for the next
one: no lost wake-up.  Durability is unaffected — the WAL append happens
before ``enqueue``.

Backpressure is the queue bound, :data:`QUEUE_CAPACITY`: when maintenance
falls behind, producers (SQL triggers, ``insert_example`` callers) block in
``enqueue`` instead of growing an unbounded backlog.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Sequence

from repro.core.writes import apply_writes
from repro.persist.snapshot import row_content_hash
from repro.serve.requests import WriteKind, WriteOp, WriteTicket
from repro.serve.sharding import shard_index

__all__ = ["MaintenanceWorker", "ROUND_DEADLINE_S"]

_STOP = object()

#: How long a round waits for demand (module docstring, case d).  Longer than a
#: closed-loop client's enqueue round trip (0.05-0.13 ms on ``perf``'s
#: ``wire_reads``/``durable_writes``), so a burst is applied as one round;
#: shorter than one eager round was before band scoring moved to the kernel
#: (6 ms), so a sessionless reader sees a write no later than it did then.  A
#: timed ``queue.get`` linger would not do the same job: every ``put`` still
#: wakes the worker, which then competes with the producer for the interpreter.
ROUND_DEADLINE_S = 0.002

#: The most ops one round applies (module docstring, case c).
MAX_WRITE_BATCH = 64

#: The write queue's bound; a producer that finds it full blocks (backpressure).
QUEUE_CAPACITY = 4096


class MaintenanceWorker:
    """Drains the write queue and applies batches to the sharded view.

    ``host`` is the owning :class:`~repro.serve.server.ViewServer`; the worker
    drives it through a small protocol: the ``writer`` it was lent,
    ``charge_featurize(nnz)``, ``charge_training(steps)``,
    ``publish_epoch(final_model, dirty_shards, wal_seq, row_hashes,
    feature_function, entity_features)`` and ``rotate_wal()`` plus the
    ``shards``, ``rw_lock`` and ``epoch`` attributes.
    """

    def __init__(self, host):
        self._host = host
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
        self.batches_applied = 0
        self.ops_applied = 0
        self.backpressure_waits = 0
        self.last_error: BaseException | None = None
        #: Set to start the pending round now; only ever set and cleared
        #: without another lock held.
        self._demand = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="hazy-maintenance", daemon=True
        )
        self._started = False

    # -- producer side -----------------------------------------------------------------------

    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()

    def enqueue(self, op: WriteOp) -> WriteTicket:
        """Admit one write; blocks when the queue is full (backpressure)."""
        op.ticket.on_wait = self._demand.set
        try:
            self._queue.put_nowait(op)
        except queue.Full:
            # The bound is doing its job: count the stall, then block as before.
            self.backpressure_waits += 1
            self._demand.set()
            self._queue.put(op)
        if op.kind is WriteKind.BARRIER or self._batch_is_full():
            self._demand.set()
        return op.ticket

    def _batch_is_full(self) -> bool:
        """Whether the queue holds a whole batch behind the op the worker has taken."""
        return self._queue.qsize() >= MAX_WRITE_BATCH - 1

    def flush(self, timeout: float | None = None) -> int:
        """Barrier: returns once everything enqueued before it is visible."""
        ticket = self.enqueue(WriteOp(kind=WriteKind.BARRIER))
        return ticket.wait(timeout=timeout)

    def backlog(self) -> int:
        """Approximate number of queued, not-yet-applied writes."""
        return self._queue.qsize()

    def close(self, timeout: float | None = None) -> None:
        """Drain outstanding work, then stop the worker thread."""
        if not self._started:
            return
        self._queue.put(_STOP)
        self._demand.set()
        self._thread.join(timeout=timeout)

    # -- worker side --------------------------------------------------------------------------

    def _drain(self) -> tuple[list[WriteOp], bool]:
        """Block for the first op, park until the round is due, take up to
        :data:`MAX_WRITE_BATCH`."""
        first = self._queue.get()
        if first is _STOP:
            return [], True
        if not self._batch_is_full():
            self._demand.wait(ROUND_DEADLINE_S)
        self._demand.clear()
        ops = [first]
        stop = False
        while len(ops) < MAX_WRITE_BATCH:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                stop = True
                break
            ops.append(item)
        return ops, stop

    def _run(self) -> None:
        while True:
            ops, stop = self._drain()
            if ops:
                try:
                    self._apply_batch(ops)
                except BaseException as error:  # keep serving; surface via tickets
                    self.last_error = error
                    for op in ops:
                        if not op.ticket.done:
                            op.ticket.fail(error)
            if stop:
                break

    def _apply_batch(self, ops: Sequence[WriteOp]) -> None:
        host = self._host

        # ---- Phase 1: prepare, train — no server lock, readers unaffected ----------
        prepared = host.writer.prepare(
            [(op.kind, op.row, op.old_row) for op in ops],
            host.shards.stored_features,
            host.charge_featurize,
        )
        entity_ops, models, refused = prepared.entity_ops, prepared.models, prepared.refused
        host.charge_training(prepared.training_steps)

        # ---- Phase 2: apply — exclusive, but short (no training in here) -------------
        mutated = bool(entity_ops or models)
        if mutated:
            # Which shards this batch touches (the basis for incremental
            # checkpoints): a model run reclassifies *every* shard, entity
            # churn only the owning ones.  Also the highest WAL sequence
            # number the batch carries — publish records it so checkpoints
            # know where recovery's replay must start.
            num_shards = len(host.shards)
            if models:
                dirty_shards = frozenset(range(num_shards))
            else:
                dirty_shards = frozenset(
                    shard_index(
                        payload if action == "remove" else payload[0], num_shards
                    )
                    for action, payload in entity_ops
                )
            applied_seq = max(
                (op.wal_seq for op in ops if op.wal_seq is not None), default=None
            )
            # What else the batch moves in the published state, worked out
            # off the lock: the hash of each row it featurized, and — only
            # this thread moves the corpus statistics, and it is between
            # batches — the feature function as of exactly this epoch.
            row_hashes = {
                entity_id: row_content_hash(row) if row is not None else None
                for entity_id, row in prepared.entity_rows.items()
            }
            feature_function = None
            if any(row_hashes.values()):
                feature_function = host.writer.pickled_feature_function()
            with host.rw_lock.write_locked():
                apply_writes(host.shards, entity_ops, models)
                epoch = host.publish_epoch(
                    models[-1] if models else None,
                    dirty_shards=dirty_shards,
                    wal_seq=applied_seq,
                    row_hashes=row_hashes,
                    feature_function=feature_function,
                    entity_features=prepared.entity_features,
                )
            host.rotate_wal()
        else:
            epoch = host.epoch

        self.batches_applied += 1
        self.ops_applied += sum(1 for op in ops if op.kind is not WriteKind.BARRIER) - len(refused)
        for position, op in enumerate(ops):
            error = refused.get(position)
            if error is None:
                op.ticket.resolve(epoch)
            else:
                self.last_error = error
                op.ticket.fail(error)

    def stats(self) -> dict[str, float]:
        """Worker counters for dashboards and benchmarks (canonical
        ``_total``-suffixed keys only)."""
        return {
            "batches_applied_total": self.batches_applied,
            "ops_applied_total": self.ops_applied,
            "backpressure_waits_total": self.backpressure_waits,
            "avg_ops_per_batch": (
                self.ops_applied / self.batches_applied if self.batches_applied else 0.0
            ),
            "backlog": self.backlog(),
        }
