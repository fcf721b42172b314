"""Per-view sharding of the entity space across N worker threads.

Every classification view served by a :class:`~repro.serve.server.ViewServer`
is split into ``num_shards`` hash partitions of its entity key space.  Each
:class:`Shard` bundles a private entity store, a private maintainer (same
strategy/approach as the source view), a private water-band result cache —
and, crucially, a **dedicated worker thread**: all access to a shard's state,
reads and writes alike, runs on that one thread.  That single rule makes the
whole structure free of data races without any per-record locking, keeps the
cost ledgers exact, and means a heavy read on one shard never stalls the
others.

Cross-shard operations (``ALL_MEMBERS``-style queries, ``top_k``, batched
reads spanning partitions) follow a **scatter/gather** path: work is split by
partition, submitted to every involved shard's worker concurrently, and the
partial answers are merged.  The scatter is written once —
:meth:`ShardSet._scatter` submits one *maintainer* operation to every shard
worker and returns the partials in shard order; each read keeps only its own
merge, and the bulk load and the snapshot import are the same scatter.  A
:class:`Shard` adds a method of its own only where the result cache is
involved (:meth:`Shard.read_batch_local`, :meth:`Shard.remove_entity_local`).
Coherence across shards (so a gather never mixes model epochs) is the
:class:`~repro.serve.server.ViewServer`'s job via its readers/writer lock;
this module only guarantees per-shard linearizability.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import chain

from repro.core.maintainers.base import ViewMaintainer
from repro.core.stores.base import EntityStore
from repro.exceptions import KeyNotFoundError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector
from repro.serve.cache import WaterBandResultCache

__all__ = ["Shard", "ShardSet", "shard_index"]


def shard_index(entity_id: object, num_shards: int) -> int:
    """The partition an entity key belongs to (stable **across** processes).

    Keyed on CRC-32 of the key's ``repr`` rather than ``hash()``: Python
    randomizes string hashes per process, and the checkpoint/recovery
    subsystem snapshots state *per shard* — a restored process must route
    every entity to the shard whose snapshot holds it.
    """
    return zlib.crc32(repr(entity_id).encode("utf-8")) % num_shards


class Shard:
    """One hash partition: store + maintainer + cache + its worker thread."""

    def __init__(self, index: int, maintainer: ViewMaintainer, cache_capacity: int = 100_000):
        self.index = index
        self.maintainer = maintainer
        self.cache = WaterBandResultCache(
            band_supplier=self._band,
            reorg_supplier=lambda: self.maintainer.stats.reorganizations,
            capacity=cache_capacity,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"hazy-shard-{index}"
        )

    def _band(self):
        tracker = getattr(self.maintainer, "tracker", None)
        return tracker.band() if tracker is not None else None

    # -- the worker-thread rule --------------------------------------------------------

    def submit(self, fn: Callable, *args) -> Future:
        """Run ``fn(*args)`` on this shard's worker thread."""
        return self._executor.submit(fn, *args)

    def call(self, fn: Callable, *args):
        """Run ``fn(*args)`` on the worker thread and wait for the result."""
        return self.submit(fn, *args).result()

    def shutdown(self) -> None:
        """Stop the worker thread (pending work completes first)."""
        self._executor.shutdown(wait=True)

    # -- shard-local operations (must run on the worker thread) ---------------------------

    def read_batch_local(self, entity_ids: Sequence[object]) -> dict[object, object]:
        """Cache-first batched Single Entity read over this partition.

        Unknown ids resolve to the :class:`~repro.exceptions.KeyNotFoundError`
        *instance* instead of raising, so one bad key cannot fail the whole
        coalesced round (the batcher re-raises per waiter).
        """
        results: dict[object, object] = {}
        misses: list[object] = []
        for entity_id in entity_ids:
            label = self.cache.lookup(entity_id)
            if label is not None:
                results[entity_id] = label
            else:
                misses.append(entity_id)
        if misses:
            try:
                results.update(self.maintainer.read_many(misses, on_record=self.cache.observe))
            except KeyNotFoundError:
                # Rare path: retry key-by-key so only the bad ids fail.
                for entity_id in misses:
                    try:
                        results[entity_id] = self.maintainer.read_many(
                            [entity_id], on_record=self.cache.observe
                        )[entity_id]
                    except KeyNotFoundError as error:
                        results[entity_id] = error
        return results

    def remove_entity_local(self, entity_id: object) -> None:
        """Delete an entity from this partition (and its cache entry)."""
        self.cache.evict(entity_id)
        self.maintainer.remove_entity(entity_id)


class ShardSet:
    """The full partitioning of one view plus its scatter/gather machinery."""

    def __init__(self, shards: Sequence[Shard]):
        if not shards:
            raise ValueError("a ShardSet needs at least one shard")
        self.shards = list(shards)

    @classmethod
    def build(
        cls,
        entities: Iterable[tuple[object, SparseVector]],
        model: LinearModel,
        store_factory: Callable[[], EntityStore],
        maintainer_factory: Callable[[EntityStore], ViewMaintainer],
        num_shards: int = 4,
        cache_capacity: int = 100_000,
    ) -> "ShardSet":
        """Partition ``entities`` by key hash and bulk-load every shard under ``model``."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        partitions: list[list[tuple[object, SparseVector]]] = [[] for _ in range(num_shards)]
        for entity_id, features in entities:
            partitions[shard_index(entity_id, num_shards)].append((entity_id, features))
        shards = [
            Shard(index, maintainer_factory(store_factory()), cache_capacity=cache_capacity)
            for index in range(num_shards)
        ]
        shard_set = cls(shards)
        # Bulk-load in parallel, one load per shard worker.
        shard_set._scatter("bulk_load", each=[(part, model) for part in partitions])
        return shard_set

    @classmethod
    def restore(
        cls,
        shard_states: Sequence[dict[str, object]],
        store_factory: Callable[[], EntityStore],
        maintainer_factory: Callable[[EntityStore], ViewMaintainer],
        cache_capacity: int = 100_000,
    ) -> "ShardSet":
        """Rebuild a sharded view from per-shard snapshot states (warm restart).

        ``shard_states[i]`` restores shard ``i`` — assignment is preserved
        from the snapshot because eps values are only comparable within the
        shard that stored them (each shard reorganizes independently), and
        :func:`shard_index` is process-stable so routing still agrees.
        Imports run concurrently, one per shard worker.
        """
        shards = [
            Shard(index, maintainer_factory(store_factory()), cache_capacity=cache_capacity)
            for index in range(len(shard_states))
        ]
        shard_set = cls(shards)
        shard_set._scatter("import_state", each=[(state,) for state in shard_states])
        return shard_set

    # -- routing --------------------------------------------------------------------------

    def shard_for(self, entity_id: object) -> Shard:
        """The shard owning ``entity_id``."""
        return self.shards[shard_index(entity_id, len(self.shards))]

    def partition_ids(self, entity_ids: Sequence[object]) -> dict[Shard, list[object]]:
        """Group a batch of entity keys by owning shard."""
        grouped: dict[Shard, list[object]] = {}
        for entity_id in entity_ids:
            grouped.setdefault(self.shard_for(entity_id), []).append(entity_id)
        return grouped

    # -- scatter/gather reads --------------------------------------------------------------

    def read_batch(self, entity_ids: Sequence[object]) -> dict[object, object]:
        """Scatter a batch of Single Entity reads, gather one id→label map.

        Unknown ids map to their ``KeyNotFoundError`` instance (per-key error
        isolation through the batcher); known ids map to their label.
        """
        futures = [
            shard.submit(shard.read_batch_local, ids)
            for shard, ids in self.partition_ids(entity_ids).items()
        ]
        results: dict[object, object] = {}
        for future in futures:
            results.update(future.result())
        return results

    def read_single(self, entity_id: object) -> int:
        """One Single Entity read routed to its owning shard."""
        shard = self.shard_for(entity_id)
        result = shard.call(shard.read_batch_local, [entity_id])[entity_id]
        if isinstance(result, BaseException):
            raise result
        return result

    def _scatter(self, operation: str, *args, each: Sequence[tuple] | None = None) -> list:
        """Run one maintainer operation on every shard's worker thread,
        concurrently — with ``args``, or with shard ``i``'s own ``each[i]`` —
        and return the partial answers in shard order."""
        futures = [
            shard.submit(getattr(shard.maintainer, operation), *(args if each is None else each[i]))
            for i, shard in enumerate(self.shards)
        ]
        return [future.result() for future in futures]

    def all_members(self, label: int = 1) -> list[object]:
        """Scatter an All Members read to every shard, gather the union."""
        return list(chain.from_iterable(self._scatter("read_all_members", label)))

    def range_scan(
        self,
        label: int = 1,
        low: object | None = None,
        high: object | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[object]:
        """Scatter a pushed-down ``class = label AND key in range`` read, gather the union.

        Each shard runs :meth:`~repro.core.maintainers.base.ViewMaintainer.read_range`
        over its own eps-clustered store — the key filter is applied *before*
        classification work, which is what makes this cheaper than gathering
        the full view and post-filtering.
        """
        partials = self._scatter("read_range", label, low, high, include_low, include_high)
        return list(chain.from_iterable(partials))

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """Global top-k by margin: per-shard top-k, then an n-way merge."""
        merged = list(chain.from_iterable(self._scatter("top_k", k, label)))
        sign_ = 1.0 if label == 1 else -1.0
        merged.sort(key=lambda pair: sign_ * pair[1], reverse=True)
        return merged[:k]

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}`` across every shard."""
        combined: dict[object, int] = {}
        for partial in self._scatter("contents"):
            combined.update(partial)
        return combined

    # -- writes (driven by the maintenance worker) ---------------------------------------

    def apply_model_batch(self, models: Sequence[LinearModel]) -> None:
        """Apply a batch of models to every shard concurrently; waits for all."""
        self._scatter("apply_model_batch", models)

    def add_entity(self, entity_id: object, features: SparseVector) -> int:
        """Insert a new entity on its owning shard."""
        shard = self.shard_for(entity_id)
        return shard.call(shard.maintainer.add_entity, entity_id, features)

    def remove_entity(self, entity_id: object) -> None:
        """Delete an entity from its owning shard."""
        shard = self.shard_for(entity_id)
        shard.call(shard.remove_entity_local, entity_id)

    # -- lifecycle / accounting --------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every shard worker."""
        for shard in self.shards:
            shard.shutdown()

    def count(self) -> int:
        """Total entities across shards."""
        return sum(shard.maintainer.store.count() for shard in self.shards)

    def simulated_seconds(self) -> float:
        """Sum of every shard ledger's simulated seconds."""
        return sum(shard.maintainer.store.stats.simulated_seconds for shard in self.shards)

    def simulated_read_seconds(self) -> float:
        """Simulated seconds spent on reads, summed across shards."""
        return sum(shard.maintainer.stats.simulated_read_seconds for shard in self.shards)

    def cache_stats(self) -> dict[str, int]:
        """Aggregated result-cache counters (summed over whatever keys shards report)."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.cache.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def per_shard_stats(self) -> list[dict[str, float]]:
        """Per-shard ledger and cache counters, indexed by shard position.

        This is the ground truth the aggregated registry metrics must
        reconcile against: summing any key over this list equals the
        corresponding total reported elsewhere.
        """
        rows: list[dict[str, float]] = []
        for shard in self.shards:
            cache = shard.cache.stats()
            rows.append(
                {
                    "entities": shard.maintainer.store.count(),
                    "simulated_seconds_total": shard.maintainer.store.stats.simulated_seconds,
                    "simulated_read_seconds_total": shard.maintainer.stats.simulated_read_seconds,
                    "cache_hits_total": cache["hits_total"],
                    "cache_misses_total": cache["misses_total"],
                    "cache_invalidations_total": cache["invalidations_total"],
                    "cache_entries": cache["entries"],
                }
            )
        return rows

    def __len__(self) -> int:
        return len(self.shards)
