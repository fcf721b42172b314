"""The Hazy engine: classification views behind an RDBMS facade.

:class:`HazyEngine` attaches to a :class:`~repro.db.database.Database` and
handles the ``CREATE CLASSIFICATION VIEW`` statement: it resolves the entity
and example tables, instantiates the declared feature function, trains the
initial model, bulk-loads a maintainer over the chosen architecture, and wires
triggers so that ordinary SQL ``INSERT``/``UPDATE``/``DELETE`` statements
against the entity and example tables keep the view maintained — exactly the
developer experience the paper describes in §2.1.  Every trigger runs one
body, :meth:`ClassificationView._on_write`, over the view's one write side
(:class:`~repro.core.writes.ViewWriter`) — inline, or via the server's queue.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import partial

from repro.core.maintainers import APPROACHES, STRATEGIES, ViewMaintainer, build_maintainer
from repro.core.reads import DirectReads
from repro.core.stores import (
    ARCHITECTURES,
    EntityStore,
    HybridEntityStore,
    InMemoryEntityStore,
    OnDiskEntityStore,
)
from repro.core.view import ClassificationViewDefinition
from repro.core.writes import ViewWriter, WriteKind, apply_writes
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.database import Database
from repro.db.sql.ast import (
    CheckpointView,
    CreateClassificationView,
    RestoreView,
    ServeView,
    Statement,
    StopServing,
)
from repro.db.sql.executor import ResultSet
from repro.db.triggers import Trigger, TriggerEvent
from repro.exceptions import (
    ConfigurationError,
    SnapshotCorruptionError,
    SnapshotMismatchError,
    ViewDefinitionError,
)
from repro.features import FeatureFunction, FeatureFunctionRegistry, default_registry
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector

__all__ = ["HazyEngine", "ClassificationView"]


class ClassificationView:
    """One maintained classification view: a write side, a read side, a maintainer.

    ``writer`` (feature function, trainer, retained examples, label
    conversion) is the view's one write side; :meth:`reader` hands out its one
    read side — whoever answers reads *now*; ``maintainer`` is what unserved
    reads are answered from and unserved writes applied to.  With
    ``restored=True`` the view comes from a checkpoint: nothing is featurized,
    trained or bulk-loaded — the serving state lives in the restored
    :class:`~repro.serve.server.ViewServer`'s shards, ``maintainer`` stays
    *unloaded* until the server hands the view back on close — but the
    definition is checked and the triggers attached exactly as on the cold
    path, so post-restore DML maintains the view as usual.
    """

    def __init__(
        self,
        definition: ClassificationViewDefinition,
        database: Database,
        maintainer: ViewMaintainer,
        writer: ViewWriter,
        restored: bool = False,
    ):
        self.definition = definition
        self.database = database
        self.maintainer = maintainer
        self.writer = writer
        self.feature_function = writer.feature_function
        self.trainer = writer.trainer
        #: When a serving front-end has taken over this view (see
        #: :meth:`HazyEngine.serve`), reads delegate to it and writes enqueue.
        self._server = None
        self._direct = DirectReads(maintainer)
        entities_table = database.table(definition.entities_table)
        examples_table = database.table(definition.examples_table)
        if not entities_table.schema.has_column(definition.entities_key):
            raise ViewDefinitionError(
                f"entities table {entities_table.name!r} has no column "
                f"{definition.entities_key!r}"
            )
        self._resolve_labels(restored)
        if not restored:
            self._cold_load(entities_table, examples_table)
        for table_name, name, event, kind in self._triggers():
            database.table(table_name).add_trigger(
                Trigger(name=name, event=event, callback=partial(self._on_write, kind))
            )

    # -- initialization -------------------------------------------------------------------

    def _cold_load(self, entities_table, examples_table) -> None:
        # Pass 1: corpus statistics for the feature function.
        self.feature_function.compute_stats(entities_table.scan())

        # Absorb any pre-existing training examples before the bulk load so the
        # initial clustering reflects the warm model.
        entity_features: dict[object, SparseVector] = {}
        for row in entities_table.scan():
            entity_id = row[self.definition.entities_key]
            features = self.feature_function.compute_feature(row)
            self.maintainer.store.charge_featurization(features.nnz())
            entity_features[entity_id] = features
        for row in examples_table.scan():
            entity_id = row[self.definition.examples_key]
            label = self.to_binary_label(row[self.definition.examples_label])
            if entity_id in entity_features:
                example = TrainingExample(entity_id, entity_features[entity_id], label)
                self.writer.examples.append(example)
                self.trainer.absorb(example)

        self.maintainer.bulk_load(entity_features.items(), self.trainer.model)

    def _resolve_labels(self, restored: bool) -> None:
        """The class values from the definition's LABELS table: its first row
        means +1 unless a positive label is already known (given, or restored),
        and when it lists exactly two distinct values, -1 shows as the other
        one (else as ``not_<positive>``, :meth:`from_binary_label`)."""
        self._negative_label = None
        if not self.definition.labels_table or not self.database.catalog.has_table(
            self.definition.labels_table
        ):
            return
        labels_table = self.database.table(self.definition.labels_table)
        column = self.definition.labels_column or labels_table.schema.column_names()[0]
        labels = list(dict.fromkeys(row.get(column) for row in labels_table.scan()))
        if self.positive_label is None and labels and not restored:
            self.writer.positive_label = labels[0]
        others = [label for label in labels if label != self.positive_label]
        if len(labels) == 2 and len(others) == 1:
            self._negative_label = others[0]

    def _triggers(self) -> tuple[tuple[str, str, TriggerEvent, WriteKind], ...]:
        """``(table, trigger name, event, kind)``: the six base-table events
        this view is maintained under, read by attach and detach alike."""
        entities, examples = self.definition.entities_table, self.definition.examples_table
        prefix = f"hazy_{self.definition.view_name}"
        on = TriggerEvent
        return (
            (entities, f"{prefix}_entities", on.AFTER_INSERT, WriteKind.ENTITY_INSERT),
            (entities, f"{prefix}_entities_update", on.AFTER_UPDATE, WriteKind.ENTITY_UPDATE),
            (entities, f"{prefix}_entities_delete", on.AFTER_DELETE, WriteKind.ENTITY_DELETE),
            (examples, f"{prefix}_examples", on.AFTER_INSERT, WriteKind.EXAMPLE_INSERT),
            (examples, f"{prefix}_examples_update", on.AFTER_UPDATE, WriteKind.EXAMPLE_UPDATE),
            (examples, f"{prefix}_examples_delete", on.AFTER_DELETE, WriteKind.EXAMPLE_DELETE),
        )

    def source_table_names(self) -> tuple[str, ...]:
        """Lower-cased names of the base tables feeding this view."""
        return (self.definition.entities_table.lower(), self.definition.examples_table.lower())

    def _detach_triggers(self) -> None:
        """Drop this view's maintenance triggers (engine rollback path)."""
        for table_name, name, _event, _kind in self._triggers():
            try:
                table = self.database.table(table_name)
            except Exception:
                continue
            table.drop_trigger(name)

    # -- the write side --------------------------------------------------------------------------

    @property
    def positive_label(self) -> object | None:
        """The user-facing label value that means +1, when one is known."""
        return self.writer.positive_label

    @property
    def _examples(self) -> list[TrainingExample]:
        """The retained examples (held by the writer)."""
        return self.writer.examples

    def to_binary_label(self, label_value: object) -> int:
        """Convert a user-facing label value to the internal {-1, +1} encoding."""
        return self.writer.to_binary_label(label_value)

    def from_binary_label(self, label: int) -> object:
        """Convert the internal label back to the user-facing value when one is known."""
        if self.positive_label is None:
            return label
        if label == 1:
            return self.positive_label
        if self._negative_label is not None:
            return self._negative_label
        return f"not_{self.positive_label}"

    def _on_write(self, kind: WriteKind, _table_name: str, new_row, old_row) -> None:
        """The one trigger body: a base-table write *is* the Update operation.

        Served, the write goes to the server's queue (and WAL); otherwise —
        or once the server is closing — it is applied here, as a run of one,
        and a write that cannot apply raises into the user's statement.
        Corpus statistics are append-only (as in the streaming setting the
        paper assumes), so an updated entity's new row folds in incrementally;
        training examples keep the feature snapshot they were absorbed with.
        """
        if self._server is not None and self._server.submit(kind, new_row, old_row):
            return
        store = self.maintainer.store
        prepared = self.writer.prepare(
            ((kind, new_row, old_row),),
            lambda entity_id: store.get(entity_id).features,
            store.charge_featurization,
        )
        if prepared.refused:
            raise prepared.refused[0]
        apply_writes(self.maintainer, prepared.entity_ops, prepared.models)

    # -- public operations ------------------------------------------------------------------------

    def retrain(self) -> None:
        """Retrain the model from the retained examples and rebuild the view."""
        self.maintainer.apply_model(self.writer.retrain())

    def insert_example(self, entity_id: object, label_value: object) -> None:
        """Insert a training example through the examples table (fires the trigger)."""
        table = self.database.table(self.definition.examples_table)
        table.insert(
            {
                self.definition.examples_key: entity_id,
                self.definition.examples_label: label_value,
            }
        )

    def reader(self, sessions=None):
        """The view's one read side: whoever answers the six reads *now*.

        The only place a read asks "am I served?": the view's own maintainer
        (:class:`~repro.core.reads.DirectReads`) while it is not, the server
        while it is — or, given a connection's session registry, that
        connection's read-your-writes session on it.  Ask again for every
        read: ``SERVE VIEW`` / ``STOP SERVING`` change who answers.
        """
        server = self._server
        if server is None:
            return self._direct
        if sessions is None:
            return server
        return sessions.session_for(self.definition.view_name, server)

    def label_of(self, entity_id: object) -> int:
        """Single Entity read: the entity's label in {-1, +1}."""
        return self.reader().label_of(entity_id)

    def members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity with the given binary label."""
        return self.reader().all_members(label)

    def count_members(self, label: int = 1) -> int:
        """Number of entities in the class."""
        return len(self.members(label))

    # -- serving hooks ------------------------------------------------------------------------

    def entity_snapshot(self) -> list[tuple[object, SparseVector]]:
        """Shard hook: materialized ``(id, features)`` pairs for partitioning."""
        return [
            (record.entity_id, record.features) for record in self.maintainer.store.scan_all()
        ]

    @property
    def server(self):
        """The attached :class:`~repro.serve.server.ViewServer`, if serving."""
        return self._server

    def insert_entity(self, row: Mapping[str, object]) -> None:
        """Insert an entity through the entities table (fires the trigger)."""
        self.database.table(self.definition.entities_table).insert(row)

    @property
    def model(self):
        """The current model ``(w, b)``."""
        return self.trainer.model

    @property
    def name(self) -> str:
        """The view's name."""
        return self.definition.view_name


def _definition_of(document, path) -> ClassificationViewDefinition:
    """A checkpoint's view definition; one with an unknown or missing key is corrupt."""
    if isinstance(document, dict) and document.get("options", {}) == {}:
        # Checkpoints written before the definition lost its never-filled
        # ``options`` field carry it, empty.
        document = {key: value for key, value in document.items() if key != "options"}
    try:
        return ClassificationViewDefinition(**document)
    except (AttributeError, TypeError, ViewDefinitionError) as error:
        raise SnapshotCorruptionError(
            f"checkpoint {path} manifest passed its CRC but holds a malformed view "
            f"definition: {error}"
        ) from None


class HazyEngine:
    """Factory and registry of classification views over one database.

    Parameters
    ----------
    database:
        The relational substrate holding the entity / example tables.
    architecture:
        ``"mainmemory"`` (Hazy-MM), ``"ondisk"`` (Hazy-OD) or ``"hybrid"``.
    strategy:
        ``"hazy"`` (incremental, water band + Skiing) or ``"naive"``.
    approach:
        ``"eager"`` or ``"lazy"``.

    Skiing's α and the hybrid store's buffer fraction are the maintainer's
    and the store's defaults; a view's trainer is an
    :class:`~repro.learn.sgd.SGDTrainer` with the loss its ``USING`` clause
    names.
    """

    def __init__(
        self,
        database: Database,
        registry: FeatureFunctionRegistry | None = None,
        architecture: str = "mainmemory",
        strategy: str = "hazy",
        approach: str = "eager",
    ):
        if architecture not in ARCHITECTURES:
            raise ConfigurationError(f"architecture must be one of {ARCHITECTURES}")
        if strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}")
        if approach not in APPROACHES:
            raise ConfigurationError(f"approach must be one of {APPROACHES}")
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.architecture = architecture
        self.strategy = strategy
        self.approach = approach
        self.views: dict[str, ClassificationView] = {}
        database.executor.set_classification_view_handler(self._handle_create_statement)
        database.executor.set_serving_handler(self._handle_serving_statement)
        # SELECTs against classification views need no reader hook: the
        # planner resolves the view object through the catalog and its plan
        # nodes read through ``ClassificationView.reader``.
        # Replace the database's placeholder system.served_views producer with
        # one that can actually see this engine's serving registry.
        database.catalog.register_system_table("system.served_views", self._served_views_rows)

    # -- factories ----------------------------------------------------------------------------

    def _build_store(self, feature_norm_q: float, pool: BufferPool | None = None) -> EntityStore:
        """Build an entity store; ``pool`` overrides the database's buffer pool."""
        if self.architecture == "mainmemory":
            return InMemoryEntityStore(feature_norm_q=feature_norm_q)
        pool = pool if pool is not None else self.database.pool
        if self.architecture == "ondisk":
            return OnDiskEntityStore(pool=pool, feature_norm_q=feature_norm_q)
        return HybridEntityStore(pool=pool, feature_norm_q=feature_norm_q)

    def _build_maintainer(self, store: EntityStore) -> ViewMaintainer:
        return build_maintainer(self.strategy, self.approach, store)

    def _build_view(
        self, definition, feature_function: FeatureFunction, positive_label, restored=False
    ) -> ClassificationView:
        """A view over a fresh writer and direct maintainer (cold, or restored)."""
        writer = ViewWriter(
            SGDTrainer(definition.loss_name() or "svm"),
            feature_function,
            positive_label,
            entities_key=definition.entities_key,
            examples_key=definition.examples_key,
            examples_label=definition.examples_label,
        )
        maintainer = self._build_maintainer(self._build_store(feature_function.norm_q))
        return ClassificationView(definition, self.database, maintainer, writer, restored)

    def _store_factory(self, view: ClassificationView) -> Callable[[], EntityStore]:
        """What builds each shard's store when ``view`` is served."""
        feature_norm_q = view.feature_function.norm_q

        def store_factory() -> EntityStore:
            # Each shard gets a private pool, so the shard's lock covers its
            # pages (the database's pool keeps serving the tables).
            pool = None
            if self.architecture != "mainmemory":
                pool = BufferPool(self.database.cost_model, None, IOStatistics())
            return self._build_store(feature_norm_q, pool=pool)

        return store_factory

    # -- view management ---------------------------------------------------------------------------

    def create_view(
        self,
        definition: ClassificationViewDefinition,
        positive_label: object | None = None,
    ) -> ClassificationView:
        """Create and register a classification view from its definition."""
        if definition.view_name.lower() in self.views:
            raise ViewDefinitionError(f"view {definition.view_name!r} already exists")
        feature_function = self.registry.create(definition.feature_function)
        view = self._build_view(definition, feature_function, positive_label)
        self.views[definition.view_name.lower()] = view
        self.database.catalog.register_classification_view(definition.view_name, view)
        return view

    def view(self, name: str) -> ClassificationView:
        """Look up a registered view by name."""
        view = self.views.get(name.lower())
        if view is None:
            raise ViewDefinitionError(f"no classification view named {name!r}")
        return view

    # -- serving: one front door for SQL and Python ------------------------------------------------

    #: The options ``SERVE VIEW`` / ``RESTORE VIEW ... WITH (...)``, ``serve``
    #: and ``restore`` accept — each the ``ViewServer`` keyword of that name —
    #: and those ``CHECKPOINT VIEW`` and ``checkpoint`` accept: the type each
    #: must have, how that type is worded in the error, and the least value a
    #: number may take (None: any).
    _SERVER_OPTIONS = {
        "shards": (int, "an integer", 1),
        "wal": (str, "a string", None),
    }
    _CHECKPOINT_OPTIONS = {
        "incremental": (bool, "true or false", None),
        "parent": (str, "a string path", None),
    }

    @staticmethod
    def _validated(
        options: Mapping[str, object], table: Mapping[str, tuple], what: str
    ) -> dict[str, object]:
        """The one options validator: every option checked against ``table``,
        returned under its lower-cased name."""
        validated: dict[str, object] = {}
        for name, value in options.items():
            if name.lower() not in table:
                raise ConfigurationError(f"unknown {what} option {name!r}; known: {sorted(table)}")
            kind, wording, least = table[name.lower()]
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigurationError(f"option {name!r} expects {wording}, got {value!r}")
            if least is not None and not value >= least:  # "not >=" also refuses NaN
                raise ConfigurationError(f"option {name!r} must be >= {least}, got {value!r}")
            if kind is str and not value:  # '' would name the process's working directory
                raise ConfigurationError(f"option {name!r} must not be empty")
            validated[name.lower()] = value
        return validated

    @staticmethod
    def _checkpoint_directory(path, clause: str):
        """A checkpoint directory as given, refused if empty: ``''`` would
        name the process's working directory."""
        if isinstance(path, str) and not path:
            raise ConfigurationError(f"{clause} needs a directory, got ''")
        return path

    def _serving_options(self, options: Mapping[str, object]) -> dict[str, object]:
        """``serve`` / ``restore`` options, validated."""
        return self._validated(options, self._SERVER_OPTIONS, "serving")

    def serve(self, name: str, /, **options):
        """``SERVE VIEW name [WITH (...)]``: put a view behind a
        :class:`~repro.serve.server.ViewServer`.

        The server shards the view's entity space into ``shards`` hash
        partitions (each shard runs this engine's architecture/strategy/approach),
        batches concurrent reads, and maintains the view from a background
        pipeline; the view lends the server its writer and its trigger body
        hands every write to the server's queue until ``server.close()`` hands
        the view back consistent.  ``options`` are the ``WITH`` options
        (:attr:`_SERVER_OPTIONS`).
        """
        # Composition-root seam: Engine.serve() constructs the layer above
        # it; the import stays lazy so `import repro.core` never pulls serve.
        from repro.serve.server import ViewServer  # repro: noqa(LAY001)

        options = self._serving_options(options)
        view = self.view(name)
        if view._server is not None:
            raise ViewDefinitionError(f"view {name!r} is already being served")
        server = ViewServer(view, self._store_factory(view), self._build_maintainer, **options)
        self._register_serving_metrics(view)
        return server

    def stop_serving(self, name: str) -> ClassificationView:
        """``STOP SERVING name``: quiesce the server, hand the view back consistent."""
        view = self.view(name)
        server = view.server
        if server is None:
            raise ViewDefinitionError(f"view {name!r} is not being served")
        server.close()
        self.database.obs.registry.remove_provider(f"serve.{view.name}")
        return view

    def checkpoint(self, name: str, path, /, **options) -> dict[str, object]:
        """``CHECKPOINT VIEW name TO path [WITH (...)]``: consistent snapshot of a served view.

        Options: ``incremental`` (bool — rewrite only shards whose epoch
        moved since the parent) and ``parent`` (string path; defaults to the
        server's last checkpoint when incremental).
        """
        view = self.view(name)
        server = view.server
        if server is None:
            raise ViewDefinitionError(
                f"view {name!r} is not being served; SERVE VIEW it before CHECKPOINT"
            )
        options = self._validated(options, self._CHECKPOINT_OPTIONS, "checkpoint")
        if "parent" in options and not options.get("incremental"):
            raise ConfigurationError("checkpoint option 'parent' requires incremental = true")
        path = self._checkpoint_directory(path, "CHECKPOINT VIEW ... TO")
        return server.checkpoint(path, **options)

    def served_views(self) -> list[ClassificationView]:
        """Every view currently behind a server (lifecycle management)."""
        return [view for view in self.views.values() if view.server is not None]

    def _served_views_rows(self) -> list[dict[str, object]]:
        """``system.served_views`` producer: one dashboard row per live server."""
        rows: list[dict[str, object]] = []
        for view in self.served_views():
            server = view.server
            stats = server.stats()
            rows.append(
                {
                    "view": view.name,
                    "epoch": stats["epoch"],
                    "entities": stats["entities"],
                    "num_shards": stats["num_shards"],
                    "epochs_published_total": stats["epochs_published_total"],
                    "trigger_diverts_total": stats["trigger_diverts_total"],
                    "queue_backlog": stats["maintenance.backlog"],
                    "batcher_requests_total": stats["batcher.requests_total"],
                    "batcher_avg_batch": stats["batcher.avg_batch"],
                    "cache_hits_total": stats["cache.hits_total"],
                    "simulated_seconds_total": stats["simulated_seconds_total"],
                }
            )
        return rows

    def _register_serving_metrics(self, view: ClassificationView) -> None:
        """Expose a live server's counters under ``serve.<view>.*`` in the registry.

        The provider closes over the *view*, not the server: once serving
        stops it reports nothing instead of poking a shut-down shard set.
        """

        def provider() -> dict[str, float]:
            server = view.server
            return server.stats() if server is not None else {}

        self.database.obs.registry.provider(f"serve.{view.name}", provider)

    def _handle_serving_statement(self, statement: Statement) -> ResultSet:
        """Executor hook: run one serving lifecycle statement, return its result row."""
        if isinstance(statement, ServeView):
            server = self.serve(statement.view, **statement.options)
            row = {
                "view": self.view(statement.view).name,
                "status": "serving",
                "shards": len(server.shards),
                "epoch": server.epoch,
            }
            return ResultSet(rows=[row], rowcount=1, statement_type="SERVE VIEW")
        if isinstance(statement, StopServing):
            view = self.stop_serving(statement.view)
            return ResultSet(
                rows=[{"view": view.name, "status": "stopped"}],
                rowcount=1,
                statement_type="STOP SERVING",
            )
        if isinstance(statement, CheckpointView):
            info = self.checkpoint(statement.view, statement.path, **statement.options)
            row = {"view": self.view(statement.view).name, **info}
            return ResultSet(rows=[row], rowcount=1, statement_type="CHECKPOINT VIEW")
        if isinstance(statement, RestoreView):
            server, manifest = self._restore(statement.view, statement.path, statement.options)
            row = {
                "view": self.view(statement.view).name,
                "status": "serving",
                "restored_from": statement.path,
                "shards": len(server.shards),
                "epoch": server.epoch,
                "checkpoint_epoch": manifest.epoch,
                "examples": len(manifest.examples),
            }
            return ResultSet(rows=[row], rowcount=1, statement_type="RESTORE VIEW")
        raise ConfigurationError(
            f"unsupported serving statement {type(statement).__name__}"
        )  # pragma: no cover - executor routes only the four statements

    # -- warm restart -------------------------------------------------------------------------------

    def restore(self, name: str, path, /, **options):
        """``RESTORE VIEW name FROM path [WITH (...)]``: warm-start serving from a checkpoint.

        The checkpoint is a directory written by
        :meth:`~repro.serve.server.ViewServer.checkpoint`.  The view itself is
        rebuilt from the snapshot (it must not have been created in this
        engine yet), shard stores are imported instead of bulk-loaded, and
        only the base-table churn that happened *after* the checkpoint is
        featurized and replayed — restart cost is the snapshot read plus the
        delta, not a full load.  ``options`` are :meth:`serve`'s; the
        snapshot's shard assignment is preserved, and a ``shards`` that
        disagrees with it is a :class:`~repro.exceptions.ConfigurationError`.
        """
        return self._restore(name, path, options)[0]

    def _restore(self, name: str, path, options: dict):
        """:meth:`restore`, also returning the manifest it read (the checkpoint is read once)."""
        from repro.persist.checkpoint import load_checkpoint
        # Composition-root seam: Engine.restore() constructs the layer above
        # it; the import stays lazy so `import repro.core` never pulls serve.
        from repro.serve.server import ViewServer  # repro: noqa(LAY001)

        options = self._serving_options(options)
        checkpoint = load_checkpoint(self._checkpoint_directory(path, "RESTORE VIEW ... FROM"))
        manifest = checkpoint.manifest
        if manifest.view_name.lower() != name.lower():
            raise SnapshotMismatchError(
                f"checkpoint {path} holds view {manifest.view_name!r}, not {name!r}"
            )
        if name.lower() in self.views:
            raise ViewDefinitionError(
                f"view {name!r} already exists; warm restart replaces the cold "
                "CREATE CLASSIFICATION VIEW, not a live view"
            )
        for attribute in ("architecture", "strategy", "approach"):
            recorded = getattr(manifest, attribute)
            configured = getattr(self, attribute)
            if recorded != configured:
                raise SnapshotMismatchError(
                    f"checkpoint {path} was written under {attribute}={recorded!r}; "
                    f"this engine is configured with {configured!r}"
                )
        definition = _definition_of(manifest.definition, path)
        view = self._build_view(
            definition, checkpoint.feature_function, manifest.positive_label, restored=True
        )

        # Register nothing until the server is fully built and the replay has
        # converged: a failure anywhere below must leave the engine exactly as
        # it was (no half-alive view with triggers wired to an unloaded
        # maintainer poisoning every subsequent insert and retry).
        key = definition.view_name.lower()
        server = None
        try:
            server = ViewServer.restore(
                checkpoint, view, self._store_factory(view), self._build_maintainer, **options
            )
            self.views[key] = view
            self.database.catalog.register_classification_view(definition.view_name, view)
            self._register_serving_metrics(view)
            self._replay_post_checkpoint(view, server, checkpoint)
        except BaseException:
            self.views.pop(key, None)
            self.database.catalog.unregister_classification_view(definition.view_name)
            view._detach_triggers()
            view._server = None
            if server is not None:
                try:
                    server.close(timeout=10)
                except Exception:
                    pass
            raise
        return server, manifest

    def _replay_post_checkpoint(self, view: ClassificationView, server, checkpoint) -> None:
        """Replay everything that happened after the checkpoint cut, in two passes.

        **Pass 1 — the WAL** (when the restored server has one): every logged
        op above the manifest's ``wal_applied_seq`` re-enters the maintenance
        queue in its original arrival order.  Order is the point: SGD takes
        one gradient step per training example, so the recovered model — not
        just the answer set — matches the pre-crash server exactly.

        **Pass 2 — the base-table diff**: churn the WAL did not capture
        (writes issued while no server was attached, or with no WAL
        configured).  New entity rows, vanished entities, and example-table
        churn go through the ordinary pipeline; existing rows whose stored
        content hash no longer matches the base table are re-featurized as
        updates — the fix for the warm-restart staleness bug where a
        content-only UPDATE between checkpoint and restore silently kept the
        stale features.  The row hashes name exactly the snapshot's entities,
        so the diff's expected entity set is their keys.
        """
        from collections import Counter

        from repro.persist.snapshot import row_content_hash

        definition = view.definition
        entities_key = definition.entities_key
        hashes = dict(checkpoint.published.row_hashes)

        example_key = view.writer.example_key
        retained = Counter(map(example_key, checkpoint.published.examples))

        # ---- Pass 1: WAL replay (bookkeeping keeps pass 2 from double-applying)
        def observe(kind: WriteKind, row, old_row) -> None:
            if kind in (WriteKind.ENTITY_UPDATE, WriteKind.ENTITY_DELETE):
                hashes.pop(old_row[entities_key], None)
            if kind in (WriteKind.ENTITY_INSERT, WriteKind.ENTITY_UPDATE):
                hashes[row[entities_key]] = row_content_hash(row)
            if kind in (WriteKind.EXAMPLE_UPDATE, WriteKind.EXAMPLE_DELETE):
                retained[example_key(old_row)] -= 1
            if kind in (WriteKind.EXAMPLE_INSERT, WriteKind.EXAMPLE_UPDATE):
                retained[example_key(row)] += 1

        server.replay_wal(flush=False, observe=observe)

        # ---- Pass 2: diff the (post-WAL) expected state against the base tables
        live_ids: set[object] = set()
        for row in self.database.table(definition.entities_table).scan():
            entity_id = row[entities_key]
            live_ids.add(entity_id)
            if entity_id not in hashes:
                server.replay(WriteKind.ENTITY_INSERT, dict(row))
            elif hashes[entity_id] != row_content_hash(row):
                server.replay(WriteKind.ENTITY_UPDATE, dict(row), {entities_key: entity_id})
        for entity_id in hashes.keys() - live_ids:
            server.replay(WriteKind.ENTITY_DELETE, None, {entities_key: entity_id})
        for row in self.database.table(definition.examples_table).scan():
            key = example_key(row)
            if retained[key] > 0:
                retained[key] -= 1
            else:
                server.replay(WriteKind.EXAMPLE_INSERT, dict(row))
        for (entity_id, label), count in retained.items():
            for _ in range(count):
                server.replay(
                    WriteKind.EXAMPLE_DELETE,
                    None,
                    {definition.examples_key: entity_id, definition.examples_label: label},
                )
        server.flush()

    # -- SQL integration ------------------------------------------------------------------------------

    def _handle_create_statement(self, statement: CreateClassificationView) -> None:
        definition = ClassificationViewDefinition(
            view_name=statement.view_name,
            view_key=statement.view_key,
            entities_table=statement.entities_table,
            entities_key=statement.entities_key,
            examples_table=statement.examples_table,
            examples_key=statement.examples_key,
            examples_label=statement.examples_label,
            feature_function=statement.feature_function,
            labels_table=statement.labels_table,
            labels_column=statement.labels_column,
            method=statement.method,
        )
        self.create_view(definition)
