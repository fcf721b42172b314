"""A classification view's one write side.

The paper's developer interface (§2.1) is that Hazy "monitors the relevant
views for updates using standard triggers": an ``INSERT``/``UPDATE``/``DELETE``
on the entity or the example table *is* the Update operation (footnote 2: a
deleted example retrains from scratch).  :class:`ViewWriter` is where that
operation is written — once.  It owns what a write needs and nothing else:
the feature function and the lock that serializes it, the incremental
trainer, the retained examples and the label conversion.

:meth:`ViewWriter.prepare` turns a run of ``(kind, row, old_row)`` writes —
the rows always the base-table rows a trigger saw, an entity's featurized by
the view's feature function — into what a maintainer has to do (ordered
entity churn plus the run of models training produced), and :func:`apply_writes` does it, to a
:class:`~repro.core.maintainers.base.ViewMaintainer` or to a
:class:`~repro.serve.sharding.ShardSet` (they share the three calls it
makes).  The same two steps run

* **inline**, from :class:`~repro.core.engine.ClassificationView`'s trigger
  body: a run of one, applied to the view's own maintainer, a refused write
  re-raised into the user's statement; and
* **on the maintenance worker** of a served view, to which the writer is
  *lent* (nothing is copied at ``SERVE VIEW`` nor copied back at ``STOP
  SERVING``): a drained batch, applied to the shards under the server's write
  lock, a refused write failing only its own ticket.

Every write is validated before it touches any state, so a write that cannot
apply (an example for an entity that does not exist, a label with no ±1
reading) is reported under its own position in the run and leaves no trace:
the writes around it apply as if it had never been issued.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from repro.exceptions import ConfigurationError, HazyError, KeyNotFoundError, MaintenanceError
from repro.features import FeatureFunction
from repro.learn.model import LinearModel
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector
from repro.persist.checkpoint import pickle_feature_function

__all__ = ["WriteKind", "ViewWriter", "PreparedWrites", "apply_writes"]


class WriteKind(enum.Enum):
    """The kinds of maintenance work a base-table write can ask for."""

    ENTITY_INSERT = "entity_insert"
    ENTITY_UPDATE = "entity_update"
    ENTITY_DELETE = "entity_delete"
    EXAMPLE_INSERT = "example_insert"
    EXAMPLE_UPDATE = "example_update"
    EXAMPLE_DELETE = "example_delete"
    #: A no-op used by the serving tier's ``flush``: its ticket resolves once
    #: everything enqueued before it has been applied.
    BARRIER = "barrier"


class PreparedWrites(NamedTuple):
    """What a run of writes asks of a maintainer (:meth:`ViewWriter.prepare`)."""

    #: ``("add", (id, features))`` / ``("remove", id)`` in arrival order: an
    #: insert+delete of one entity inside a run replayed otherwise corrupts the store.
    entity_ops: list[tuple[str, object]]
    #: The models training produced, oldest first; empty when none moved.
    models: list[LinearModel]
    #: Gradient steps taken (what a served view charges as ``model_update``).
    training_steps: int
    #: Position in the run -> why that write was refused.
    refused: dict[int, HazyError]
    #: The base-table row each entity written in this run was last featurized
    #: from — None once removed.  What a served view's published row hashes follow.
    entity_rows: dict[object, object]
    #: The features each entity written in this run was last stored with —
    #: None once removed.  What a served view hands back to its source on close.
    entity_features: dict[object, SparseVector | None]


class ViewWriter:
    """The state a view's writes go through, and the one body that applies them.

    Parameters
    ----------
    trainer:
        The view's incremental trainer.
    feature_function:
        Featurizes entity rows.
    positive_label:
        The user-facing value that means +1 (None: labels are ±1 / bools).
    entities_key / examples_key / examples_label:
        Column names of the entity key and of an example row's key and label.
    """

    def __init__(
        self,
        trainer: SGDTrainer,
        feature_function: FeatureFunction,
        positive_label: object | None = None,
        entities_key: str = "id",
        examples_key: str = "id",
        examples_label: str = "label",
    ):
        self.trainer = trainer
        self.feature_function = feature_function
        #: Serializes stats update + featurize for stateful featurizers; also
        #: taken by anyone else who runs the feature function, and by
        #: :meth:`pickled_feature_function`.
        self.feature_lock = threading.RLock()
        self.positive_label = positive_label
        self.entities_key = entities_key
        self.examples_key = examples_key
        self.examples_label = examples_label
        #: The retained examples, in absorption order (the retrain input).
        self.examples: list[TrainingExample] = []

    # -- label conversion -------------------------------------------------------------------

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

    def example_key(self, row) -> tuple[object, int]:
        """``(entity id, ±1 label)`` of an example row (or of a retained example)."""
        if isinstance(row, TrainingExample):
            return row.entity_id, row.label
        return row[self.examples_key], self.to_binary_label(row[self.examples_label])

    def pickled_feature_function(self) -> bytes | Exception:
        """The feature function as a checkpoint stores it, corpus statistics as
        they stand *now* — so call it at an epoch boundary: at construction, or
        on the thread that featurized, between a batch's prepare and its
        publish.  One that does not pickle still serves: the exception is
        returned, for a checkpoint to raise, not raised into the publisher."""
        with self.feature_lock:
            try:
                return pickle_feature_function(self.feature_function)
            except Exception as error:
                return error

    # -- the one body -------------------------------------------------------------------------

    def prepare(
        self,
        writes: Iterable[tuple[WriteKind, object, object]],
        features_of: Callable[[object], SparseVector],
        charge_featurize: Callable[[int], object],
    ) -> PreparedWrites:
        """Absorb a run of ``(kind, row, old_row)`` writes, in arrival order.

        ``features_of(id)`` returns the stored features of an entity (raising
        :class:`~repro.exceptions.KeyNotFoundError` for an unknown one) and
        ``charge_featurize(nnz)`` accounts one featurization on the caller's
        ledger.  Entity writes are featurized and recorded as ordered churn;
        an example write resolves its new example first — against entities
        written earlier in the same run, else ``features_of`` — then forgets
        the old example (update), then retains the new one; an example delete
        forgets.  A write that raises a :class:`~repro.exceptions.HazyError`
        is refused under its position before anything was mutated for it;
        nothing else is swallowed.

        Training comes after the walk: a full retrain from the retained
        examples (footnote 2) iff an example was actually forgotten, else one
        gradient step per new example.  A ``BARRIER`` asks for nothing.
        """
        entity_ops: list[tuple[str, object]] = []
        #: Entities written earlier in this run: their features, None once removed.
        pending: dict[object, SparseVector | None] = {}
        entity_rows: dict[object, object] = {}
        new_examples: list[TrainingExample] = []
        refused: dict[int, HazyError] = {}
        forgot = False
        for position, (kind, row, old_row) in enumerate(writes):
            try:
                if kind in (WriteKind.ENTITY_INSERT, WriteKind.ENTITY_UPDATE):
                    entity_id, features = self._featurize(row, charge_featurize)
                    if kind is WriteKind.ENTITY_UPDATE:
                        old_id = old_row[self.entities_key]
                        entity_ops.append(("remove", old_id))
                        pending[old_id] = entity_rows[old_id] = None
                    entity_ops.append(("add", (entity_id, features)))
                    pending[entity_id] = features
                    entity_rows[entity_id] = row
                elif kind is WriteKind.ENTITY_DELETE:
                    entity_id = old_row[self.entities_key]
                    entity_ops.append(("remove", entity_id))
                    pending[entity_id] = entity_rows[entity_id] = None
                elif kind in (WriteKind.EXAMPLE_INSERT, WriteKind.EXAMPLE_UPDATE):
                    example = self._resolve(row, pending, features_of)
                    if kind is WriteKind.EXAMPLE_UPDATE and self._forget(old_row):
                        forgot = True
                    self.examples.append(example)
                    new_examples.append(example)
                elif kind is WriteKind.EXAMPLE_DELETE:
                    if self._forget(old_row):
                        forgot = True
            except HazyError as error:
                refused[position] = error

        if forgot:
            # Footnote 2: a deletion invalidates the incremental trajectory.
            models = [self.retrain()]
            steps = len(self.examples)
        else:
            models = [self.trainer.absorb(example) for example in new_examples]
            steps = len(models)
        return PreparedWrites(entity_ops, models, steps, refused, entity_rows, pending)

    def retrain(self) -> LinearModel:
        """Retrain from scratch over the retained examples; returns the model."""
        self.trainer.reset()
        return self.trainer.absorb_many(self.examples)

    # -- per-write steps ------------------------------------------------------------------------

    def _featurize(self, row, charge_featurize: Callable) -> tuple[object, SparseVector]:
        """``(id, features)`` of an entity row."""
        with self.feature_lock:
            self.feature_function.compute_stats_incremental(row)
            # Stats update + featurize must be atomic with respect to other
            # featurizing threads — this lock IS the serialization point.
            features = self.feature_function.compute_feature(row)  # repro: noqa(LOCK002)
        charge_featurize(features.nnz())
        return row[self.entities_key], features

    def _resolve(self, row, pending: dict, features_of: Callable) -> TrainingExample:
        """The training example an example row stands for."""
        entity_id, label = self.example_key(row)
        if entity_id in pending:
            features = pending[entity_id]
        else:
            try:
                features = features_of(entity_id)
            except KeyNotFoundError:
                features = None
        if features is None:
            raise MaintenanceError(f"training example references unknown entity {entity_id!r}")
        return TrainingExample(entity_id=entity_id, features=features, label=label)

    def _forget(self, old_row) -> bool:
        """Drop the retained example an old example row stands for; False if none was."""
        entity_id, label = self.example_key(old_row)
        for index, example in enumerate(self.examples):
            if example.entity_id == entity_id and example.label == label:
                del self.examples[index]
                return True
        return False


def apply_writes(target, entity_ops: Sequence[tuple], models: Sequence[LinearModel]) -> None:
    """Do what :meth:`ViewWriter.prepare` asked for, on a maintainer or a shard set."""
    for action, payload in entity_ops:
        if action == "remove":
            target.remove_entity(payload)
        else:
            target.add_entity(*payload)
    if models:
        target.apply_model_batch(models)
