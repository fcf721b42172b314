"""Hazy's core: incrementally maintained classification views.

This package implements the paper's primary contribution:

* :mod:`repro.core.bounds` — the Hölder-inequality low/high-water band of
  Lemma 3.1 and Equation 2.
* :mod:`repro.core.skiing` — the Skiing reorganization strategy (ski-rental
  style) and the offline-optimal schedule used to validate Theorem 3.3.
* :mod:`repro.core.stores` — the three physical architectures: on-disk,
  main-memory (Hazy-MM), and the hybrid ε-map + buffer design (§3.5); each
  exposes one heap scan and one clustered ``scan_eps(low, high)``, and answers
  each read of a run of tuples in one call (``score``, ``stored_members``,
  ``lazy_members``).
* :mod:`repro.core.maintainers` — the paper's operations (Single Entity read,
  All Members read, Update; §2.2) written once in ``ViewMaintainer``, and the
  four strategies — naive and Hazy, eager and lazy (§3.2, §3.4) — that supply
  only the read hint, the candidate run, the position band (from which the
  lazy reads, point and bulk, are built) and the Update.
* :mod:`repro.core.writes` — a view's one write side: ``ViewWriter`` turns a
  run of base-table writes into entity churn plus a run of models, inline for
  an unserved view and on the maintenance worker for a served one.
* :mod:`repro.core.engine` — the user-facing engine that wires a
  :class:`~repro.db.database.Database`, feature functions, an incremental
  trainer and a maintainer behind ``CREATE CLASSIFICATION VIEW``.

The strategy × approach × architecture matrix is declared once:
:data:`repro.core.maintainers.MAINTAINERS` (with ``build_maintainer``) and
:data:`repro.core.stores.STORES`; the engine, the bench harness and the
checkpoint manifest take their names from those tables.  Models are linear
throughout: a kernel classifier reaches a view through the random-feature
linearization in :mod:`repro.learn.random_features` (Appendix B.5).
"""

from repro.core.bounds import WaterBand, WaterBandTracker, holder_pair_for_norm
from repro.core.engine import ClassificationView, HazyEngine
from repro.core.maintainers import (
    HazyEagerMaintainer,
    HazyLazyMaintainer,
    NaiveEagerMaintainer,
    NaiveLazyMaintainer,
)
from repro.core.multiclass_view import MulticlassClassificationView
from repro.core.skiing import OfflineOptimalScheduler, SkiingStrategy
from repro.core.stats import MaintenanceStatistics
from repro.core.stores import (
    EntityRecord,
    EntityStore,
    HybridEntityStore,
    InMemoryEntityStore,
    OnDiskEntityStore,
)
from repro.core.view import ClassificationViewDefinition

__all__ = [
    "WaterBand",
    "WaterBandTracker",
    "holder_pair_for_norm",
    "SkiingStrategy",
    "OfflineOptimalScheduler",
    "MaintenanceStatistics",
    "ClassificationViewDefinition",
    "EntityRecord",
    "EntityStore",
    "InMemoryEntityStore",
    "OnDiskEntityStore",
    "HybridEntityStore",
    "NaiveEagerMaintainer",
    "NaiveLazyMaintainer",
    "HazyEagerMaintainer",
    "HazyLazyMaintainer",
    "HazyEngine",
    "ClassificationView",
    "MulticlassClassificationView",
]
