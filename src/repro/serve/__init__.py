"""``repro.serve`` — the concurrent serving subsystem.

The paper's promise is that classification views stay queryable at
interactive speed while entities and training examples stream in; this
package is the production-shaped realization of that promise for one process:
a front-end that many client threads can hammer concurrently while a
background pipeline keeps the view maintained.

Module map
----------

``server``
    :class:`~repro.serve.server.ViewServer` — the front-end of one live
    ``ClassificationView``, which lends it its
    :class:`~repro.core.writes.ViewWriter` and hands it every base-table
    write through ``submit``.  Reads (``label_of``, ``all_members``,
    ``top_k``, ``classify``) and writes (``insert_entity``,
    ``insert_example``), epoch-tagged snapshot reads (``read(operation,
    ...)`` — the one body every read runs through), per-client
    :class:`~repro.serve.server.ClientSession` monotonicity, and
    ``checkpoint(path)`` — a quiesce-free consistent snapshot of the whole
    serving state (see :mod:`repro.persist`); ``restore`` warm-starts a
    server from one.
``sharding``
    :class:`~repro.serve.sharding.ShardSet` — the entity space
    hash-partitioned into N shards, one store + maintainer + cache + lock per
    shard, each operation run on the caller's thread under the shard's lock;
    one scatter (a maintainer operation run on every shard in turn) and a
    per-read gather for ``ALL_MEMBERS``-style and top-k queries.
``batcher``
    :class:`~repro.serve.batcher.ReadBatcher` — coalesces concurrent Single
    Entity reads into batched per-shard ``read_many`` rounds, amortizing the
    per-statement overhead that caps read throughput in Figure 5.  It has no
    thread: each round is run by one of the waiting readers on its own.
``maintenance``
    :class:`~repro.serve.maintenance.MaintenanceWorker` — drains a bounded
    write queue in batches through the view's one write body
    (``ViewWriter.prepare``, the code an unserved view runs inline); training
    runs outside the lock readers take, so reads never block behind model
    retraining, and a write that cannot apply fails only its own ticket.
``cache``
    :class:`~repro.serve.cache.WaterBandResultCache` — serves repeat reads
    straight from cached ε values while the entity sits outside the low/high
    water band (Figure 8), invalidating only on reorganization.
``sync``
    :class:`~repro.serve.sync.ReadWriteLock` — the snapshot-consistency
    machinery: reads observe fully applied epochs (the epoch is part of the
    server's one published state), writes resolve to the epoch at which they
    became visible.
``requests``
    :class:`~repro.serve.requests.WriteOp` / ``WriteTicket`` — the normalized
    write operations flowing through the queue and the visibility handles
    handed back to producers.
"""

from repro.serve.batcher import AdaptiveBatchWindow, ReadBatcher
from repro.serve.cache import WaterBandResultCache
from repro.serve.maintenance import MaintenanceWorker
from repro.serve.requests import WriteKind, WriteOp, WriteTicket
from repro.serve.server import ClientSession, ViewServer
from repro.serve.sharding import Shard, ShardSet, shard_index
from repro.serve.sync import ReadWriteLock, SessionRegistry

__all__ = [
    "ViewServer",
    "ClientSession",
    "SessionRegistry",
    "ShardSet",
    "Shard",
    "shard_index",
    "ReadBatcher",
    "AdaptiveBatchWindow",
    "MaintenanceWorker",
    "WaterBandResultCache",
    "ReadWriteLock",
    "WriteKind",
    "WriteOp",
    "WriteTicket",
]
