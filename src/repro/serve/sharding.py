"""Per-view sharding of the entity space: N hash partitions, no threads.

Every classification view served by a :class:`~repro.serve.server.ViewServer`
is split into ``num_shards`` hash partitions of its entity key space.  Each
:class:`Shard` bundles a private entity store, a private maintainer (same
strategy/approach as the source view), a private water-band result cache and
**one lock**: whoever runs an operation on a shard — a reader running a
batcher round, a scatter/gather read, the maintenance worker, a checkpoint —
takes that lock
and runs the operation on its own thread.  Every operation takes it, reads
included: a lazy read records waste and may reorganize, and neither the
on-disk / hybrid buffer pool nor the result cache has a lock of its own.  That
one rule keeps each shard linearizable and its cost ledger exact.  A caller
never holds two shard locks at once, and takes the server's readers/writer
lock, when it needs it, first.

Cross-shard operations (``ALL_MEMBERS``-style queries, ``top_k``, batched
reads spanning partitions) follow a **scatter/gather** path: work is split by
partition, run on each involved shard in turn, and the partial answers are
merged.  The scatter is written once — :meth:`ShardSet._scatter` runs one
*maintainer* operation on every shard and returns the partials in shard
order; each read keeps only its own merge, and the bulk load and the snapshot
import are the same scatter.  :meth:`Shard.read_batch_local` is the one
operation a :class:`Shard` adds of its own, because it involves the result
cache.  Coherence across shards (so a gather never mixes model epochs) is the
:class:`~repro.serve.server.ViewServer`'s job via its readers/writer lock;
this module only guarantees per-shard linearizability.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable, Iterable, Sequence
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
    """One hash partition: store + maintainer + cache, and the lock every
    operation on them takes."""

    def __init__(self, index: int, maintainer: ViewMaintainer, cache_capacity: int = 100_000):
        self.index = index
        self.maintainer = maintainer
        self.cache = WaterBandResultCache(
            band_supplier=self._band,
            reorg_supplier=lambda: self.maintainer.stats.reorganizations,
            capacity=cache_capacity,
        )
        self.lock = threading.Lock()

    def _band(self):
        tracker = getattr(self.maintainer, "tracker", None)
        return tracker.band() if tracker is not None else None

    def read_batch_local(self, entity_ids: Sequence[object]) -> dict[object, object]:
        """Cache-first batched Single Entity read over this partition (the
        caller holds :attr:`lock`).

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
        results: dict[object, object] = {}
        for shard, ids in self.partition_ids(entity_ids).items():
            with shard.lock:
                results.update(shard.read_batch_local(ids))
        return results

    def _scatter(self, operation: str, *args, each: Sequence[tuple] | None = None) -> list:
        """Run one maintainer operation on every shard in turn, each under its
        lock — with ``args``, or with shard ``i``'s own ``each[i]`` — and
        return the partial answers in shard order."""
        partials = []
        for i, shard in enumerate(self.shards):
            with shard.lock:
                operate = getattr(shard.maintainer, operation)
                partials.append(operate(*(args if each is None else each[i])))
        return partials

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

    def stored_features(self, entity_id: object) -> SparseVector:
        """The features the owning shard stores for an entity."""
        shard = self.shard_for(entity_id)
        with shard.lock:
            return shard.maintainer.store.get(entity_id).features

    def export_states(self, indices: Iterable[int]) -> dict[int, dict[str, object]]:
        """``export_state()`` of each shard in ``indices``, by index — a
        detached copy, so nothing read from it later needs the shard's lock."""
        exported: dict[int, dict[str, object]] = {}
        for index in indices:
            shard = self.shards[index]
            with shard.lock:
                exported[index] = shard.maintainer.export_state()
        return exported

    # -- writes (driven by the maintenance worker) ---------------------------------------

    def apply_model_batch(self, models: Sequence[LinearModel]) -> None:
        """Apply a batch of models to every shard."""
        self._scatter("apply_model_batch", models)

    def add_entity(self, entity_id: object, features: SparseVector) -> int:
        """Insert a new entity on its owning shard."""
        shard = self.shard_for(entity_id)
        with shard.lock:
            return shard.maintainer.add_entity(entity_id, features)

    def remove_entity(self, entity_id: object) -> None:
        """Delete an entity (and its cache entry) from its owning shard."""
        shard = self.shard_for(entity_id)
        with shard.lock:
            shard.cache.evict(entity_id)
            shard.maintainer.remove_entity(entity_id)

    # -- accounting --------------------------------------------------------------------------

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
