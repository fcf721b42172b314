"""Water-band-aware result cache (paper Figure 8, lifted to the serving layer).

The key observation behind the hybrid architecture's ε-map is that an entity
whose stored margin lies *outside* the low/high-water band has a label that is
certain under the current model — no store access, no dot product.  The
serving subsystem applies the same trick above the store: every record a read
fetches deposits its stored ``eps`` here, and as long as the entity stays
outside the band, repeat reads are answered straight from this map without
touching the maintainer at all.

Two events bound the cache's validity:

* **model movement** widens the band, so an entry silently stops answering
  (the band check fails) — no invalidation needed, correctness is per-lookup;
* **reorganization** recomputes every stored ``eps`` under a new stored model,
  so all cached margins become meaningless — the cache watches the
  maintainer's reorganization counter and drops everything when it moves.

Entries are evicted FIFO beyond :data:`CACHE_CAPACITY`.  The cache is
manipulated only under its shard's lock, so it needs no locking of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.core.bounds import WaterBand
from repro.core.stores.base import EntityRecord

__all__ = ["WaterBandResultCache"]

#: The most cached ε entries one shard's cache holds (FIFO eviction beyond).
CACHE_CAPACITY = 100_000


class WaterBandResultCache:
    """Serve repeat Single Entity reads from cached ε values.

    On a store without an ε-map (main memory, on disk) a hit answers a repeat
    read with no maintainer call and no simulated charge, and
    ``benchmarks/bench_serving_throughput.py``'s served speedup tracks those
    hits: over 42 runs on a 2-CPU machine, 1,471 hits of 6,000 reads gave
    1.34x and 3,694 gave 2.64x, against the gate's 2x.  On the hybrid store
    it cannot hit: ``read_hint`` answers every out-of-band read from the ε-map
    before any record is fetched, so only in-band records reach
    :meth:`observe`, and an in-band ε stays in band until the reorganization
    that clears the cache (``serve.cache_hit_ratio`` is 0.0 on ``perf``'s
    ``hybrid_lazy``).

    Parameters
    ----------
    band_supplier:
        Returns the shard's current cumulative water band, or None when the
        strategy has no band (naive maintainers) — the cache then never hits.
    reorg_supplier:
        Returns the shard's reorganization count; any change invalidates.
    """

    def __init__(
        self,
        band_supplier: Callable[[], WaterBand | None],
        reorg_supplier: Callable[[], int],
    ):
        self._band_supplier = band_supplier
        self._reorg_supplier = reorg_supplier
        self._eps: OrderedDict[object, float] = OrderedDict()
        self._seen_reorgs = reorg_supplier()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _check_epoch(self) -> None:
        reorgs = self._reorg_supplier()
        if reorgs != self._seen_reorgs:
            self._seen_reorgs = reorgs
            if self._eps:
                self._eps.clear()
                self.invalidations += 1

    def lookup(self, entity_id: object) -> int | None:
        """The cached label when the entity is certain under the current band."""
        self._check_epoch()
        eps = self._eps.get(entity_id)
        if eps is not None:
            band = self._band_supplier()
            if band is not None:
                if band.certain_positive(eps):
                    self.hits += 1
                    return 1
                if band.certain_negative(eps):
                    self.hits += 1
                    return -1
        self.misses += 1
        return None

    def observe(self, record: EntityRecord) -> None:
        """Deposit the stored ε of a record some read just fetched."""
        self._check_epoch()
        self._eps[record.entity_id] = record.eps
        if len(self._eps) > CACHE_CAPACITY:
            self._eps.popitem(last=False)

    def evict(self, entity_id: object) -> None:
        """Drop one entity (entity update/delete)."""
        self._eps.pop(entity_id, None)

    def clear(self) -> None:
        """Drop everything."""
        self._eps.clear()

    def __len__(self) -> int:
        return len(self._eps)

    def stats(self) -> dict[str, int]:
        """Hit/miss/invalidation counters plus current size (canonical
        ``_total``-suffixed keys only)."""
        return {
            "hits_total": self.hits,
            "misses_total": self.misses,
            "invalidations_total": self.invalidations,
            "entries": len(self._eps),
        }
