"""Experiment drivers shared by the benchmark modules.

Each driver assembles one point of the paper's experimental grid — an
architecture (on-disk, main-memory, hybrid), a strategy (naive, hazy) and an
approach (eager, lazy) — and replays a workload trace against it.  Throughput
is reported in two currencies:

* **simulated throughput** — operations per simulated second according to the
  deterministic cost model; this is what the figure reproductions compare,
  because it reflects the I/O asymmetries the paper's hardware had;
* **wall throughput** — operations per real second of this Python process,
  reported for completeness.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.maintainers import ViewMaintainer, build_maintainer
from repro.core.stores import (
    ARCHITECTURES,
    EntityStore,
    HybridEntityStore,
    InMemoryEntityStore,
    OnDiskEntityStore,
)
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import ConfigurationError
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.workloads.datasets import GeneratedDataset
from repro.workloads.trace import read_trace, update_trace

__all__ = [
    "MaintainedView",
    "ExperimentResult",
    "build_store",
    "build_maintained_view",
    "run_eager_update_experiment",
    "run_lazy_all_members_experiment",
    "run_single_entity_experiment",
]

#: The architecture/strategy grid of Figure 4, in the paper's presentation order.
FIGURE4_GRID: tuple[tuple[str, str], ...] = (
    ("ondisk", "naive"),
    ("ondisk", "hazy"),
    ("hybrid", "hazy"),
    ("mainmemory", "naive"),
    ("mainmemory", "hazy"),
)


#: Default buffer-pool size for the on-disk and hybrid architectures: small
#: enough that full scans of the scaled data sets spill to "disk", the regime
#: the paper's on-disk numbers come from.
DEFAULT_BUFFER_POOL_PAGES = 32


def build_store(
    architecture: str,
    feature_norm_q: float = 1.0,
    buffer_fraction: float = 0.01,
    buffer_pool_pages: int | None = DEFAULT_BUFFER_POOL_PAGES,
    cost_model: CostModel | None = None,
) -> EntityStore:
    """Build an entity store for the named architecture."""
    if architecture not in ARCHITECTURES:
        raise ConfigurationError(f"unknown architecture {architecture!r}")
    if architecture == "mainmemory":
        return InMemoryEntityStore(feature_norm_q=feature_norm_q)
    disk_cost_model = cost_model if cost_model is not None else CostModel()
    pool = BufferPool(disk_cost_model, capacity_pages=buffer_pool_pages, statistics=IOStatistics())
    if architecture == "ondisk":
        return OnDiskEntityStore(pool=pool, feature_norm_q=feature_norm_q)
    return HybridEntityStore(
        pool=pool, feature_norm_q=feature_norm_q, buffer_fraction=buffer_fraction
    )


@dataclass
class MaintainedView:
    """A (trainer, maintainer) bundle driven directly by a workload trace."""

    maintainer: ViewMaintainer
    trainer: SGDTrainer
    architecture: str
    strategy: str
    approach: str

    def absorb(self, example: TrainingExample) -> None:
        """One Update: incremental training step followed by view maintenance."""
        self.maintainer.store.charge_model_update()
        model = self.trainer.absorb(example)
        self.maintainer.apply_model(model)

    def absorb_many(self, examples: Sequence[TrainingExample]) -> None:
        """Absorb a sequence of examples."""
        for example in examples:
            self.absorb(example)

    @property
    def store(self) -> EntityStore:
        """The underlying entity store."""
        return self.maintainer.store


def build_maintained_view(
    dataset: GeneratedDataset,
    architecture: str,
    strategy: str,
    approach: str,
    alpha: float = 1.0,
    buffer_fraction: float = 0.01,
    buffer_pool_pages: int | None = DEFAULT_BUFFER_POOL_PAGES,
    loss: str = "svm",
    warm_examples: Sequence[TrainingExample] = (),
) -> MaintainedView:
    """Build and bulk-load a maintained view over ``dataset``.

    ``warm_examples`` are absorbed by the trainer *before* the bulk load, so
    the initial clustering reflects a warm model (the paper's default setup).
    """
    feature_norm_q = 2.0 if dataset.spec.kind == "dense" else 1.0
    store = build_store(
        architecture,
        feature_norm_q=feature_norm_q,
        buffer_fraction=buffer_fraction,
        buffer_pool_pages=buffer_pool_pages,
    )
    maintainer = build_maintainer(strategy, approach, store, alpha=alpha)
    trainer = SGDTrainer(loss=loss)
    maintainer.bulk_load(dataset.entities, trainer.absorb_many(warm_examples))
    return MaintainedView(
        maintainer=maintainer,
        trainer=trainer,
        architecture=architecture,
        strategy=strategy,
        approach=approach,
    )


@dataclass
class ExperimentResult:
    """Throughput and cost accounting for one experiment cell."""

    label: str
    operations: int
    wall_seconds: float
    simulated_seconds: float
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def simulated_ops_per_second(self) -> float:
        """Operations per simulated second (the figure-of-merit for comparisons)."""
        if self.simulated_seconds <= 0:
            return float("inf")
        return self.operations / self.simulated_seconds

    @property
    def wall_ops_per_second(self) -> float:
        """Operations per wall-clock second of this process."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.operations / self.wall_seconds


def run_eager_update_experiment(
    dataset: GeneratedDataset,
    architecture: str,
    strategy: str,
    warmup: int = 200,
    timed: int = 300,
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 4(A): average eager Update throughput after a warm-up phase."""
    trace = update_trace(dataset, warmup=warmup, timed=timed, seed=seed)
    view = build_maintained_view(
        dataset,
        architecture=architecture,
        strategy=strategy,
        approach="eager",
        alpha=alpha,
        warm_examples=trace.warm_examples(),
    )
    store = view.store
    start_sim = store.cost_snapshot()
    start_wall = time.perf_counter()
    view.absorb_many(trace.timed_examples())
    wall = time.perf_counter() - start_wall
    simulated = store.cost_snapshot() - start_sim
    stats = view.maintainer.stats
    return ExperimentResult(
        label=f"{architecture}/{strategy}",
        operations=len(trace.timed_examples()),
        wall_seconds=wall,
        simulated_seconds=simulated,
        detail={
            "reorganizations": float(stats.reorganizations),
            "tuples_reclassified": float(stats.tuples_reclassified),
            "avg_band_size": stats.average_band_size(),
        },
    )


def run_lazy_all_members_experiment(
    dataset: GeneratedDataset,
    architecture: str,
    strategy: str,
    warmup: int = 200,
    scans: int = 20,
    updates_between_scans: int = 5,
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 4(B): All Members throughput in the lazy approach.

    Updates keep arriving between scans (``updates_between_scans``) so the
    water band never collapses to nothing, matching the repeated-query setup.
    """
    trace = update_trace(dataset, warmup=warmup, timed=scans * updates_between_scans, seed=seed)
    view = build_maintained_view(
        dataset,
        architecture=architecture,
        strategy=strategy,
        approach="lazy",
        alpha=alpha,
        warm_examples=trace.warm_examples(),
    )
    store = view.store
    timed = list(trace.timed_examples())
    start_sim = store.cost_snapshot()
    start_wall = time.perf_counter()
    cursor = 0
    for _ in range(scans):
        for _ in range(updates_between_scans):
            view.absorb(timed[cursor])
            cursor += 1
        view.maintainer.read_all_members(1)
    wall = time.perf_counter() - start_wall
    simulated = store.cost_snapshot() - start_sim
    stats = view.maintainer.stats
    return ExperimentResult(
        label=f"{architecture}/{strategy}",
        operations=scans,
        wall_seconds=wall,
        simulated_seconds=simulated,
        detail={
            "tuples_scanned": float(stats.tuples_scanned_for_reads),
            "reorganizations": float(stats.reorganizations),
        },
    )


def run_single_entity_experiment(
    dataset: GeneratedDataset,
    architecture: str,
    strategy: str,
    approach: str,
    warmup: int = 200,
    reads: int = 2000,
    buffer_fraction: float = 0.01,
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 5 / 6(B): Single Entity read throughput."""
    trace = update_trace(dataset, warmup=warmup, timed=0, seed=seed)
    view = build_maintained_view(
        dataset,
        architecture=architecture,
        strategy=strategy,
        approach=approach,
        alpha=alpha,
        buffer_fraction=buffer_fraction,
        warm_examples=trace.warm_examples(),
    )
    ids = read_trace(dataset, reads, seed=seed + 1)
    store = view.store
    start_sim = store.cost_snapshot()
    start_wall = time.perf_counter()
    for entity_id in ids:
        view.maintainer.read_single(entity_id)
    wall = time.perf_counter() - start_wall
    simulated = store.cost_snapshot() - start_sim
    stats = view.maintainer.stats
    detail = {"epsmap_hits": float(stats.epsmap_hits)}
    if isinstance(store, HybridEntityStore):
        detail["buffer_served"] = float(store.buffer_served)
        detail["disk_served"] = float(store.disk_served)
    return ExperimentResult(
        label=f"{architecture}/{strategy}/{approach}",
        operations=reads,
        wall_seconds=wall,
        simulated_seconds=simulated,
        detail=detail,
    )
