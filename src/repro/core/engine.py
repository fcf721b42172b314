"""The Hazy engine: classification views behind an RDBMS facade.

:class:`HazyEngine` attaches to a :class:`~repro.db.database.Database` and
handles the ``CREATE CLASSIFICATION VIEW`` statement: it resolves the entity
and example tables, instantiates the declared feature function, trains the
initial model, bulk-loads a maintainer over the chosen architecture, and wires
triggers so that ordinary SQL ``INSERT`` statements against the entity and
example tables keep the view maintained — exactly the developer experience the
paper describes in §2.1.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.core.maintainers import APPROACHES, STRATEGIES, ViewMaintainer, build_maintainer
from repro.core.stores import (
    ARCHITECTURES,
    EntityStore,
    HybridEntityStore,
    InMemoryEntityStore,
    OnDiskEntityStore,
)
from repro.core.view import ClassificationViewDefinition
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
    SnapshotMismatchError,
    ViewDefinitionError,
)
from repro.features import FeatureFunction, FeatureFunctionRegistry, default_registry
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector

__all__ = ["HazyEngine", "ClassificationView"]


class ClassificationView:
    """One maintained classification view: feature function + trainer + maintainer."""

    def __init__(
        self,
        definition: ClassificationViewDefinition,
        database: Database,
        feature_function: FeatureFunction,
        maintainer: ViewMaintainer,
        trainer: SGDTrainer,
        positive_label: object | None = None,
    ):
        self.definition = definition
        self.database = database
        self.feature_function = feature_function
        self.maintainer = maintainer
        self.trainer = trainer
        self.positive_label = positive_label
        self._examples: list[TrainingExample] = []
        #: When a serving front-end has taken over this view (see
        #: :meth:`serve`), reads delegate to it and triggers enqueue.
        self._server = None
        self._initialize()

    # -- initialization -------------------------------------------------------------------

    @classmethod
    def restore(
        cls,
        definition: ClassificationViewDefinition,
        database: Database,
        feature_function: FeatureFunction,
        maintainer: ViewMaintainer,
        trainer: SGDTrainer,
        positive_label: object,
        examples: list[TrainingExample],
    ) -> "ClassificationView":
        """Rebuild a view from checkpointed state, skipping the cold initialization.

        Nothing is featurized, trained, or bulk-loaded here — the serving
        state lives in the restored :class:`~repro.serve.server.ViewServer`'s
        shards, and ``maintainer`` stays *unloaded* until the server hands the
        view back on close.  Triggers are attached exactly as in the cold
        path, so post-restore DML maintains the view as usual.
        """
        view = object.__new__(cls)
        view.definition = definition
        view.database = database
        view.feature_function = feature_function
        view.maintainer = maintainer
        view.trainer = trainer
        view.positive_label = positive_label
        view._examples = list(examples)
        view._server = None
        entities_table = database.table(definition.entities_table)
        examples_table = database.table(definition.examples_table)
        if not entities_table.schema.has_column(definition.entities_key):
            raise ViewDefinitionError(
                f"entities table {entities_table.name!r} has no column "
                f"{definition.entities_key!r}"
            )
        view._attach_triggers(entities_table, examples_table)
        return view

    def _initialize(self) -> None:
        entities_table = self.database.table(self.definition.entities_table)
        examples_table = self.database.table(self.definition.examples_table)
        if not entities_table.schema.has_column(self.definition.entities_key):
            raise ViewDefinitionError(
                f"entities table {entities_table.name!r} has no column "
                f"{self.definition.entities_key!r}"
            )
        self._resolve_positive_label()

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
            example = self._example_from_row(row, entity_features)
            if example is not None:
                self._examples.append(example)
                self.trainer.absorb(example)

        self.maintainer.bulk_load(entity_features.items(), self.trainer.model.copy())
        self._attach_triggers(entities_table, examples_table)

    def _resolve_positive_label(self) -> None:
        if self.positive_label is not None:
            return
        if self.definition.labels_table and self.database.catalog.has_table(
            self.definition.labels_table
        ):
            labels_table = self.database.table(self.definition.labels_table)
            column = self.definition.labels_column or labels_table.schema.column_names()[0]
            for row in labels_table.scan():
                self.positive_label = row.get(column)
                break

    def _attach_triggers(self, entities_table, examples_table) -> None:
        prefix = f"hazy_{self.definition.view_name}"
        entities_table.add_trigger(
            Trigger(
                name=f"{prefix}_entities",
                event=TriggerEvent.AFTER_INSERT,
                callback=lambda _table, new_row, _old: self._on_entity_insert(new_row),
            )
        )
        entities_table.add_trigger(
            Trigger(
                name=f"{prefix}_entities_update",
                event=TriggerEvent.AFTER_UPDATE,
                callback=lambda _table, new_row, old_row: self._on_entity_update(
                    new_row, old_row
                ),
            )
        )
        entities_table.add_trigger(
            Trigger(
                name=f"{prefix}_entities_delete",
                event=TriggerEvent.AFTER_DELETE,
                callback=lambda _table, _new, old_row: self._on_entity_delete(old_row),
            )
        )
        examples_table.add_trigger(
            Trigger(
                name=f"{prefix}_examples",
                event=TriggerEvent.AFTER_INSERT,
                callback=lambda _table, new_row, _old: self._on_example_insert(new_row),
            )
        )
        examples_table.add_trigger(
            Trigger(
                name=f"{prefix}_examples_update",
                event=TriggerEvent.AFTER_UPDATE,
                callback=lambda _table, new_row, old_row: self._on_example_update(
                    new_row, old_row
                ),
            )
        )
        examples_table.add_trigger(
            Trigger(
                name=f"{prefix}_examples_delete",
                event=TriggerEvent.AFTER_DELETE,
                callback=lambda _table, _new, old_row: self._on_example_delete(old_row),
            )
        )

    def _detach_triggers(self) -> None:
        """Drop this view's maintenance triggers (engine rollback path)."""
        prefix = f"hazy_{self.definition.view_name}"
        suffixes = (
            "_entities",
            "_entities_update",
            "_entities_delete",
            "_examples",
            "_examples_update",
            "_examples_delete",
        )
        for table_name in (self.definition.entities_table, self.definition.examples_table):
            try:
                table = self.database.table(table_name)
            except Exception:
                continue
            for suffix in suffixes:
                table.drop_trigger(f"{prefix}{suffix}")

    # -- label conversion ----------------------------------------------------------------------

    def to_binary_label(self, label_value: object) -> int:
        """Convert a user-facing label value to the internal {-1, +1} encoding."""
        if isinstance(label_value, bool):
            return 1 if label_value else -1
        if isinstance(label_value, (int, float)) and label_value in (-1, 1):
            return int(label_value)
        if self.positive_label is not None:
            return 1 if label_value == self.positive_label else -1
        raise ConfigurationError(
            f"cannot interpret label {label_value!r}: declare a LABELS table or use -1/+1"
        )

    def from_binary_label(self, label: int) -> object:
        """Convert the internal label back to the user-facing value when one is known."""
        if self.positive_label is None:
            return label
        if label == 1:
            return self.positive_label
        return f"not_{self.positive_label}"

    # -- trigger bodies --------------------------------------------------------------------------

    def _example_from_row(
        self, row: Mapping[str, object], feature_lookup: Mapping[object, SparseVector] | None = None
    ) -> TrainingExample | None:
        entity_id = row[self.definition.examples_key]
        label = self.to_binary_label(row[self.definition.examples_label])
        if feature_lookup is not None and entity_id in feature_lookup:
            features = feature_lookup[entity_id]
        else:
            try:
                features = self.maintainer.store.get(entity_id).features
            except Exception:
                return None
        return TrainingExample(entity_id=entity_id, features=features, label=label)

    def _on_entity_insert(self, row: Mapping[str, object] | None) -> None:
        if row is None:
            return
        self.feature_function.compute_stats_incremental(row)
        entity_id = row[self.definition.entities_key]
        features = self.feature_function.compute_feature(row)
        self.maintainer.store.charge_featurization(features.nnz())
        self.maintainer.add_entity(entity_id, features)

    def _on_entity_update(
        self, new_row: Mapping[str, object] | None, old_row: Mapping[str, object] | None
    ) -> None:
        """An entity row changed: refeaturize it and replace it in the view.

        Corpus statistics are append-only (as in the streaming setting the
        paper assumes), so the new row's stats are folded in incrementally;
        training examples keep the feature snapshot they were absorbed with.
        """
        if new_row is None or old_row is None:
            return
        old_id = old_row[self.definition.entities_key]
        self.maintainer.remove_entity(old_id)
        self._on_entity_insert(new_row)

    def _on_entity_delete(self, old_row: Mapping[str, object] | None) -> None:
        """An entity row was deleted: drop it from the view."""
        if old_row is None:
            return
        self.maintainer.remove_entity(old_row[self.definition.entities_key])

    def _on_example_insert(self, row: Mapping[str, object] | None) -> None:
        if row is None:
            return
        example = self._example_from_row(row)
        if example is None:
            raise ViewDefinitionError(
                f"training example references unknown entity {row[self.definition.examples_key]!r}"
            )
        self._examples.append(example)
        model = self.trainer.absorb(example)
        self.maintainer.apply_model(model)

    def _on_example_update(
        self, new_row: Mapping[str, object] | None, old_row: Mapping[str, object] | None
    ) -> None:
        """An example changed: forget the old one, retain the new, retrain once."""
        if new_row is None or old_row is None:
            return
        # Validate the replacement before touching state: a bad new row must
        # not leave the old example silently dropped without a retrain.
        new_example = self._example_from_row(new_row)
        if new_example is None:
            raise ViewDefinitionError(
                f"training example references unknown entity "
                f"{new_row[self.definition.examples_key]!r}"
            )
        old_id = old_row[self.definition.examples_key]
        old_label = self.to_binary_label(old_row[self.definition.examples_label])
        for index, example in enumerate(self._examples):
            if example.entity_id == old_id and example.label == old_label:
                del self._examples[index]
                break
        self._examples.append(new_example)
        self.retrain()

    def _on_example_delete(self, row: Mapping[str, object] | None) -> None:
        """Deletion of an example retrains the model from scratch (paper footnote 2)."""
        if row is None:
            return
        deleted_id = row[self.definition.examples_key]
        deleted_label = self.to_binary_label(row[self.definition.examples_label])
        for index, example in enumerate(self._examples):
            if example.entity_id == deleted_id and example.label == deleted_label:
                del self._examples[index]
                break
        self.retrain()

    # -- public operations ------------------------------------------------------------------------

    def retrain(self) -> None:
        """Retrain the model from the retained examples and rebuild the view."""
        self.trainer.reset()
        for example in self._examples:
            self.trainer.absorb(example)
        self.maintainer.apply_model(self.trainer.model.copy())

    def insert_example(self, entity_id: object, label_value: object) -> None:
        """Insert a training example through the examples table (fires the trigger)."""
        table = self.database.table(self.definition.examples_table)
        table.insert(
            {
                self.definition.examples_key: entity_id,
                self.definition.examples_label: label_value,
            }
        )

    def label_of(self, entity_id: object) -> int:
        """Single Entity read: the entity's label in {-1, +1}."""
        if self._server is not None:
            return self._server.label_of(entity_id)
        return self.maintainer.read_single(entity_id)

    def members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity with the given binary label."""
        if self._server is not None:
            return self._server.all_members(label)
        return self.maintainer.read_all_members(label)

    def count_members(self, label: int = 1) -> int:
        """Number of entities in the class."""
        return len(self.members(label))

    def rows(self) -> Iterator[dict[str, object]]:
        """The view's rows for SQL access: (key, class) per entity."""
        key_column = self.definition.view_key
        reader = self._server if self._server is not None else self.maintainer
        for entity_id, label in reader.contents().items():
            yield {key_column: entity_id, "class": self.from_binary_label(label)}

    # -- serving hooks ------------------------------------------------------------------------

    def model_snapshot(self):
        """Snapshot hook: ``(version, model copy)`` of the current model."""
        model = self.trainer.model.copy()
        return model.version, model

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
    alpha:
        The Skiing threshold multiplier (ignored by naive strategies).
    buffer_fraction:
        Hybrid-only: fraction of entities kept in the hot buffer.
    """

    def __init__(
        self,
        database: Database,
        registry: FeatureFunctionRegistry | None = None,
        architecture: str = "mainmemory",
        strategy: str = "hazy",
        approach: str = "eager",
        alpha: float = 1.0,
        buffer_fraction: float = 0.01,
        trainer_factory: Callable[[str], SGDTrainer] | None = None,
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
        self.alpha = alpha
        self.buffer_fraction = buffer_fraction
        self._trainer_factory = trainer_factory
        self.views: dict[str, ClassificationView] = {}
        database.executor.set_classification_view_handler(self._handle_create_statement)
        database.executor.set_serving_handler(self._handle_serving_statement)
        # SELECTs against classification views need no reader hook: the
        # planner resolves the view object through the catalog and its plan
        # nodes read the maintainer or the ViewServer directly.
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
        return HybridEntityStore(
            pool=pool,
            feature_norm_q=feature_norm_q,
            buffer_fraction=self.buffer_fraction,
        )

    def _build_maintainer(self, store: EntityStore) -> ViewMaintainer:
        return build_maintainer(self.strategy, self.approach, store, alpha=self.alpha)

    def _build_trainer(self, definition: ClassificationViewDefinition) -> SGDTrainer:
        loss = definition.loss_name() or "svm"
        if self._trainer_factory is not None:
            return self._trainer_factory(loss)
        return SGDTrainer(loss=loss)

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
        store = self._build_store(feature_function.norm_q)
        maintainer = self._build_maintainer(store)
        trainer = self._build_trainer(definition)
        view = ClassificationView(
            definition=definition,
            database=self.database,
            feature_function=feature_function,
            maintainer=maintainer,
            trainer=trainer,
            positive_label=positive_label,
        )
        self.views[definition.view_name.lower()] = view
        self.database.catalog.register_classification_view(definition.view_name, view)
        return view

    def view(self, name: str) -> ClassificationView:
        """Look up a registered view by name."""
        view = self.views.get(name.lower())
        if view is None:
            raise ViewDefinitionError(f"no classification view named {name!r}")
        return view

    def serve(
        self,
        name: str,
        num_shards: int | None = None,
        restore_from: str | None = None,
        **server_options,
    ):
        """Put a view behind a concurrent :class:`~repro.serve.server.ViewServer`.

        The server shards the view's entity space across ``num_shards`` worker
        threads (each shard runs this engine's architecture/strategy/approach),
        batches concurrent reads, and maintains the view from a background
        pipeline; the view's SQL triggers are diverted into the server's write
        queue until ``server.close()`` hands the view back consistent.

        With ``restore_from`` the server **warm-starts** from a checkpoint
        directory written by
        :meth:`~repro.serve.server.ViewServer.checkpoint`:
        the view itself is rebuilt from the snapshot (it must not have been
        created in this engine yet), shard stores are imported instead of
        bulk-loaded, and only the base-table churn that happened *after* the
        checkpoint is featurized and replayed — restart cost is the snapshot
        read plus the delta, not a full load.  On restore the snapshot's
        shard assignment is preserved; passing a ``num_shards`` that
        disagrees with it raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        # Composition-root seam: Engine.serve() constructs the layer above
        # it; the import stays lazy so `import repro.core` never pulls serve.
        from repro.serve.server import ViewServer  # repro: noqa(LAY001)

        if restore_from is not None:
            if num_shards is not None:
                server_options["num_shards"] = num_shards
            return self._serve_restored(name, restore_from, **server_options)
        if num_shards is None:
            num_shards = 4
        view = self.view(name)
        if view._server is not None:
            raise ViewDefinitionError(f"view {name!r} is already being served")
        feature_norm_q = view.feature_function.norm_q

        def store_factory() -> EntityStore:
            # Each shard gets a private pool so shard workers never contend
            # on page latches (the database's pool keeps serving the tables).
            pool = None
            if self.architecture != "mainmemory":
                pool = BufferPool(self.database.cost_model, None, IOStatistics())
            return self._build_store(feature_norm_q, pool=pool)

        _, model = view.model_snapshot()
        server = ViewServer(
            entities=view.entity_snapshot(),
            model=model,
            trainer=view.trainer,
            store_factory=store_factory,
            maintainer_factory=self._build_maintainer,
            feature_function=view.feature_function,
            label_to_binary=view.to_binary_label,
            entities_key=view.definition.entities_key,
            examples_key=view.definition.examples_key,
            examples_label=view.definition.examples_label,
            initial_examples=list(view._examples),
            num_shards=num_shards,
            **server_options,
        )
        server.attach_view(view)
        self._register_serving_metrics(view)
        return server

    # -- declarative serving surface (the SQL front door) -------------------------------------------

    #: ``WITH (...)`` option names accepted by SERVE VIEW / RESTORE VIEW and the
    #: ``ViewServer`` keyword each maps to.
    _INT_SERVER_OPTIONS = {
        "shards": "num_shards",
        "num_shards": "num_shards",
        "max_read_batch": "max_read_batch",
        "queue_capacity": "queue_capacity",
        "max_write_batch": "max_write_batch",
        "cache_capacity": "cache_capacity",
        "epoch_history": "epoch_history",
    }
    _FLOAT_SERVER_OPTIONS = {
        "max_wait_s": "read_batch_wait_s",
        "read_batch_wait_s": "read_batch_wait_s",
    }
    _STR_SERVER_OPTIONS = {
        "wal": "wal_dir",
        "wal_dir": "wal_dir",
    }

    def _server_options(self, options: Mapping[str, object]) -> dict[str, object]:
        """Map declarative ``WITH`` options onto ``ViewServer`` keyword arguments."""
        mapped: dict[str, object] = {}
        adaptive = False
        for name, value in options.items():
            key = name.lower()
            if key in self._INT_SERVER_OPTIONS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigurationError(f"option {name!r} expects an integer, got {value!r}")
                mapped[self._INT_SERVER_OPTIONS[key]] = value
            elif key in self._FLOAT_SERVER_OPTIONS:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigurationError(f"option {name!r} expects a number, got {value!r}")
                mapped[self._FLOAT_SERVER_OPTIONS[key]] = float(value)
            elif key in self._STR_SERVER_OPTIONS:
                if not isinstance(value, str):
                    raise ConfigurationError(f"option {name!r} expects a string, got {value!r}")
                mapped[self._STR_SERVER_OPTIONS[key]] = value
            elif key == "adaptive_batching":
                if not isinstance(value, bool):
                    raise ConfigurationError(
                        f"option {name!r} expects true or false, got {value!r}"
                    )
                if value:
                    adaptive = True
            else:
                known = sorted(
                    {
                        *self._INT_SERVER_OPTIONS,
                        *self._FLOAT_SERVER_OPTIONS,
                        *self._STR_SERVER_OPTIONS,
                        "adaptive_batching",
                    }
                )
                raise ConfigurationError(f"unknown serving option {name!r}; known: {known}")
        if adaptive:
            if "read_batch_wait_s" in mapped:
                raise ConfigurationError(
                    "adaptive_batching derives the batching window itself; "
                    "it cannot be combined with max_wait_s"
                )
            mapped["read_batch_wait_s"] = "adaptive"
        return mapped

    def serve_view(self, name: str, options: Mapping[str, object] | None = None):
        """``SERVE VIEW name WITH (...)``: start serving with declarative options."""
        return self.serve(name, **self._server_options(options or {}))

    def stop_serving(self, name: str) -> ClassificationView:
        """``STOP SERVING name``: quiesce the server, hand the view back consistent."""
        view = self.view(name)
        server = view.server
        if server is None:
            raise ViewDefinitionError(f"view {name!r} is not being served")
        server.close()
        self.database.obs.registry.remove_provider(f"serve.{view.name}")
        return view

    def checkpoint_view(
        self, name: str, path: str, options: Mapping[str, object] | None = None
    ) -> dict[str, object]:
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
        incremental = False
        parent = None
        for option, value in (options or {}).items():
            key = option.lower()
            if key == "incremental":
                if not isinstance(value, bool):
                    raise ConfigurationError(
                        f"option {option!r} expects true or false, got {value!r}"
                    )
                incremental = value
            elif key == "parent":
                if not isinstance(value, str):
                    raise ConfigurationError(
                        f"option {option!r} expects a string path, got {value!r}"
                    )
                parent = value
            else:
                raise ConfigurationError(
                    f"unknown checkpoint option {option!r}; known: ['incremental', 'parent']"
                )
        if parent is not None and not incremental:
            raise ConfigurationError(
                "checkpoint option 'parent' requires incremental = true"
            )
        return server.checkpoint(path, incremental=incremental, parent=parent)

    def restore_view(self, name: str, path: str, options: Mapping[str, object] | None = None):
        """``RESTORE VIEW name FROM path``: warm-start serving from a checkpoint.

        A ``shards =`` option that disagrees with the snapshot's shard count
        is a :class:`~repro.exceptions.ConfigurationError` — shard assignment
        always comes from the snapshot.
        """
        mapped = self._server_options(options or {})
        return self.serve(name, restore_from=path, **mapped)

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
                    "queue_backlog": stats["maintenance"]["backlog"],
                    "batcher_requests_total": stats["batcher"]["requests_total"],
                    "batcher_avg_batch": stats["batcher"]["avg_batch"],
                    "cache_hits_total": stats["cache"]["hits_total"],
                    "simulated_seconds_total": stats["simulated_seconds"],
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
            return server.metrics() if server is not None else {}

        self.database.obs.registry.provider(f"serve.{view.name}", provider)

    def _handle_serving_statement(self, statement: Statement) -> ResultSet:
        """Executor hook: run one serving lifecycle statement, return its result row."""
        if isinstance(statement, ServeView):
            server = self.serve_view(statement.view, statement.options)
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
            info = self.checkpoint_view(statement.view, statement.path, statement.options)
            row = {"view": self.view(statement.view).name, **info}
            return ResultSet(rows=[row], rowcount=1, statement_type="CHECKPOINT VIEW")
        if isinstance(statement, RestoreView):
            from repro.persist.checkpoint import describe_checkpoint

            server = self.restore_view(statement.view, statement.path, statement.options)
            summary = describe_checkpoint(statement.path)
            row = {
                "view": self.view(statement.view).name,
                "status": "serving",
                "restored_from": statement.path,
                "shards": len(server.shards),
                "epoch": server.epoch,
                "checkpoint_epoch": summary["epoch"],
                "examples": summary["examples"],
            }
            return ResultSet(rows=[row], rowcount=1, statement_type="RESTORE VIEW")
        raise ConfigurationError(
            f"unsupported serving statement {type(statement).__name__}"
        )  # pragma: no cover - executor routes only the four statements

    # -- warm restart -------------------------------------------------------------------------------

    def _serve_restored(self, name: str, path: str, **server_options):
        """The ``serve(restore_from=...)`` path: rebuild view + server from a checkpoint."""
        from repro.persist.checkpoint import load_checkpoint
        # Composition-root seam: Engine.serve() constructs the layer above
        # it; the import stays lazy so `import repro.core` never pulls serve.
        from repro.serve.server import ViewServer  # repro: noqa(LAY001)

        checkpoint = load_checkpoint(path)
        manifest = checkpoint.manifest
        if manifest.definition is None or manifest.view_name is None:
            raise SnapshotMismatchError(
                f"checkpoint {path} was written from a standalone server; "
                "it cannot restore an engine view"
            )
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
            if recorded is not None and recorded != configured:
                raise SnapshotMismatchError(
                    f"checkpoint {path} was written under {attribute}={recorded!r}; "
                    f"this engine is configured with {configured!r}"
                )
        definition = ClassificationViewDefinition(**manifest.definition)
        feature_function = checkpoint.feature_function
        if feature_function is None:
            # Degenerate checkpoint without a pickled feature function: build a
            # fresh one and pay a stats pass over the entities table.
            feature_function = self.registry.create(definition.feature_function)
            feature_function.compute_stats(self.database.table(definition.entities_table).scan())
        trainer = self._build_trainer(definition)
        direct_maintainer = self._build_maintainer(self._build_store(feature_function.norm_q))
        view = ClassificationView.restore(
            definition=definition,
            database=self.database,
            feature_function=feature_function,
            maintainer=direct_maintainer,
            trainer=trainer,
            positive_label=manifest.positive_label,
            examples=list(manifest.examples),
        )

        feature_norm_q = feature_function.norm_q

        def store_factory() -> EntityStore:
            pool = None
            if self.architecture != "mainmemory":
                pool = BufferPool(self.database.cost_model, None, IOStatistics())
            return self._build_store(feature_norm_q, pool=pool)

        # Register nothing until the server is fully built and the replay has
        # converged: a failure anywhere below must leave the engine exactly as
        # it was (no half-alive view with triggers wired to an unloaded
        # maintainer poisoning every subsequent insert and retry).
        key = definition.view_name.lower()
        server = None
        try:
            server = ViewServer.restore(
                checkpoint,
                trainer=trainer,
                store_factory=store_factory,
                maintainer_factory=self._build_maintainer,
                feature_function=feature_function,
                label_to_binary=view.to_binary_label,
                entities_key=definition.entities_key,
                examples_key=definition.examples_key,
                examples_label=definition.examples_label,
                **server_options,
            )
            self.views[key] = view
            self.database.catalog.register_classification_view(definition.view_name, view)
            server.attach_view(view)
            self._register_serving_metrics(view)
            self._replay_post_checkpoint(view, server, checkpoint)
        except BaseException:
            self.views.pop(key, None)
            self.database.catalog.unregister_classification_view(definition.view_name)
            view._detach_triggers()
            view._server = None
            if server is not None:
                # Skip the hand-back resync (the view was never live); close()
                # still clears the diverted dispatchers and stops the workers.
                server._view = None
                try:
                    server.close(timeout=10)
                except Exception:
                    pass
            raise
        return server

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
        stale features.  Snapshots without stored hashes (standalone-written
        or pre-hash) keep the old insert/delete-only contract.
        """
        from collections import Counter

        from repro.persist.snapshot import row_content_hash
        # Composition-root seam: Engine.serve() constructs the layer above
        # it; the import stays lazy so `import repro.core` never pulls serve.
        from repro.serve.requests import WriteKind, WriteOp  # repro: noqa(LAY001)

        definition = view.definition
        entities_table = self.database.table(definition.entities_table)
        examples_table = self.database.table(definition.examples_table)
        snapshot_ids = set(checkpoint.entity_ids)
        hashes: dict[object, str] = {}
        for state in checkpoint.shard_states:
            for entity_id, digest in state.row_hashes or ():
                hashes[entity_id] = digest
        retained = Counter(
            (example.entity_id, example.label) for example in checkpoint.manifest.examples
        )

        # ---- Pass 1: WAL replay (bookkeeping keeps pass 2 from double-applying)
        if server.wal is not None:
            for record in server.wal.records_after(checkpoint.manifest.wal_applied_seq):
                kind = WriteKind(record.kind)
                server.worker.enqueue(
                    WriteOp(
                        kind=kind,
                        row=record.row,
                        old_row=record.old_row,
                        wal_seq=record.seq,
                    )
                )
                if kind in (WriteKind.ENTITY_INSERT, WriteKind.ENTITY_UPDATE):
                    entity_id = record.row[definition.entities_key]
                    snapshot_ids.add(entity_id)
                    hashes[entity_id] = row_content_hash(record.row)
                elif kind is WriteKind.ENTITY_DELETE:
                    entity_id = record.old_row[definition.entities_key]
                    snapshot_ids.discard(entity_id)
                    hashes.pop(entity_id, None)
                elif kind in (WriteKind.EXAMPLE_INSERT, WriteKind.EXAMPLE_UPDATE):
                    if kind is WriteKind.EXAMPLE_UPDATE:
                        retained[
                            (
                                record.old_row[definition.examples_key],
                                view.to_binary_label(
                                    record.old_row[definition.examples_label]
                                ),
                            )
                        ] -= 1
                    retained[
                        (
                            record.row[definition.examples_key],
                            view.to_binary_label(record.row[definition.examples_label]),
                        )
                    ] += 1
                elif kind is WriteKind.EXAMPLE_DELETE:
                    retained[
                        (
                            record.old_row[definition.examples_key],
                            view.to_binary_label(record.old_row[definition.examples_label]),
                        )
                    ] -= 1

        # ---- Pass 2: diff the (post-WAL) expected state against the base tables
        live_ids: set[object] = set()
        for row in entities_table.scan():
            entity_id = row[definition.entities_key]
            live_ids.add(entity_id)
            if entity_id not in snapshot_ids:
                server.worker.enqueue(WriteOp(kind=WriteKind.ENTITY_INSERT, row=dict(row)))
                continue
            stored = hashes.get(entity_id)
            if stored is not None and stored != row_content_hash(row):
                server.worker.enqueue(
                    WriteOp(
                        kind=WriteKind.ENTITY_UPDATE,
                        row=dict(row),
                        old_row={definition.entities_key: entity_id},
                    )
                )
        for entity_id in snapshot_ids - live_ids:
            server.worker.enqueue(
                WriteOp(
                    kind=WriteKind.ENTITY_DELETE,
                    old_row={definition.entities_key: entity_id},
                )
            )
        for row in examples_table.scan():
            key = (
                row[definition.examples_key],
                view.to_binary_label(row[definition.examples_label]),
            )
            if retained[key] > 0:
                retained[key] -= 1
            else:
                server.worker.enqueue(WriteOp(kind=WriteKind.EXAMPLE_INSERT, row=dict(row)))
        for (entity_id, label), count in retained.items():
            for _ in range(count):
                server.worker.enqueue(
                    WriteOp(
                        kind=WriteKind.EXAMPLE_DELETE,
                        old_row={
                            definition.examples_key: entity_id,
                            definition.examples_label: label,
                        },
                    )
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
            options=dict(statement.options),
        )
        self.create_view(definition)
