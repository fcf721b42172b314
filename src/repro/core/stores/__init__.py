"""Physical architectures for the scratch table ``H`` (paper §3.2, §3.5).

A store holds, for every entity: its feature vector, its ``eps`` under the
*stored* model, and its current label.  The three implementations mirror the
paper's architectures:

* :class:`~repro.core.stores.mainmemory.InMemoryEntityStore` — Hazy-MM, the
  data clustered in memory;
* :class:`~repro.core.stores.ondisk.OnDiskEntityStore` — Hazy-OD, a heap file
  behind the buffer pool, rewritten in ``eps`` order at each reorganization
  with a clustered B+-tree on ``eps``;
* :class:`~repro.core.stores.hybrid.HybridEntityStore` — the hybrid design: the
  on-disk store plus an in-memory ε-map (id → eps) and a bounded buffer of the
  entities most likely to change label.

Each class carries its engine-facing ``architecture`` name; :data:`STORES` is
the one table from names to classes, and :data:`ARCHITECTURES` the names the
engine, the bench harness and the checkpoint manifest accept.
"""

from repro.core.stores.base import EntityRecord, EntityStore
from repro.core.stores.hybrid import HybridEntityStore
from repro.core.stores.mainmemory import InMemoryEntityStore
from repro.core.stores.ondisk import OnDiskEntityStore

#: The architecture axis of the matrix (§3.5): engine-facing name -> store class.
STORES: dict[str, type[EntityStore]] = {
    cls.architecture: cls for cls in (InMemoryEntityStore, OnDiskEntityStore, HybridEntityStore)
}
#: Valid architecture names.
ARCHITECTURES = tuple(STORES)

__all__ = [
    "ARCHITECTURES",
    "STORES",
    "EntityRecord",
    "EntityStore",
    "InMemoryEntityStore",
    "OnDiskEntityStore",
    "HybridEntityStore",
]
