"""In-memory snapshot state and its JSON codecs.

The layers below the serving subsystem export their state as plain Python
structures holding live objects (:class:`~repro.learn.model.LinearModel`,
:class:`~repro.linalg.SparseVector`); this module turns those into
JSON-serializable documents and back.  Floats round-trip exactly (``json``
emits shortest-round-trip ``repr`` forms), so a restored model answers reads
bit-identically to the one that was checkpointed.

Two values carry everything a checkpoint says.  :class:`PublishedState` is
what a served view last *published* — the one value its server swaps in per
epoch, a checkpoint is a function of, and a warm restart resumes from.
:class:`ShardState` *is* the dict ``ViewMaintainer.export_state`` returns,
with the shard's index and its rows' content hashes beside it: the field
names are that dict's keys, so ``ShardState(index=i, row_hashes=h, **state)``
is the mapping one way and :meth:`ShardState.to_import` the other.

A retained example's vector is a shared value — usually the very object its
entity's stored record holds — so the manifest writes each vector once
(:func:`reference_examples`): by reference to the record a shard file of the
same checkpoint writes, by the index of an earlier example holding the same
object, or inline.  :func:`resolve_examples` restores that sharing.

Entity ids must be JSON-native scalars (str, int, float, bool) — the same
values the SQL substrate stores as keys.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, SnapshotCorruptionError, SnapshotError
from repro.learn.model import LinearModel
from repro.learn.sgd import TrainingExample
from repro.learn.weights import Weights
from repro.linalg import SparseVector

__all__ = [
    "PublishedState",
    "ShardState",
    "CheckpointManifest",
    "LoadedCheckpoint",
    "encode_model",
    "decode_model",
    "encode_vector",
    "decode_vector",
    "encode_records",
    "decode_records",
    "ExampleRow",
    "record_vectors",
    "reference_examples",
    "resolve_examples",
    "encode_examples",
    "decode_examples",
    "row_content_hash",
]


def row_content_hash(row: Mapping[str, object]) -> str:
    """A short, stable digest of one base-table row's content.

    Checkpoints store this per entity so warm-restart replay can detect
    content-only UPDATEs — rows whose id survived but whose feature columns
    changed — which an insert/delete diff is blind to.  The digest is over
    the canonical JSON form (sorted keys, compact separators); JSON emits
    shortest-round-trip floats, so equal SQL values hash equal across
    processes.
    """
    canonical = json.dumps(dict(row), sort_keys=True, separators=(",", ":"), default=_hashable)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def _hashable(value: object) -> object:
    """A vector as all its pairs (its ``repr`` abbreviates), anything else as its ``repr``."""
    if isinstance(value, SparseVector):
        return list(value.items())
    return repr(value)


_SCALAR_TYPES = (str, int, float, bool)


def _typed(*kinds: type) -> Callable[[object], object]:
    """A decoder passing only a value whose type is one of ``kinds`` (a bool is no int)."""

    def decode(value: object) -> object:
        if type(value) not in kinds:
            raise TypeError(f"{type(value).__name__} is not {'/'.join(k.__name__ for k in kinds)}")
        return value

    return decode


_int = _typed(int)
_str = _typed(str)
_dict = _typed(dict)
_list = _typed(list)
_number = _typed(int, float)


def _optional(decode: Callable[[object], object]) -> Callable[[object], object]:
    return lambda value: None if value is None else decode(value)


def _list_of(decode: Callable[[object], object]) -> Callable[[object], list]:
    return lambda value: [decode(item) for item in _list(value)]


def _field(document: object, key: str, decode: Callable[[object], object]) -> object:
    """``decode(document[key])``; a missing key or a failed decode is a ``ValueError``."""
    fields = _dict(document)
    try:
        return decode(fields[key])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, SnapshotError) as error:
        raise ValueError(f"{key!r}: {type(error).__name__}: {error}") from None


def _object(**schema: Callable[[object], object]) -> Callable[[object], dict[str, object]]:
    """A decoder of a JSON object: each key of ``schema``, decoded by its decoder."""
    return lambda document: {key: _field(document, key, decode) for key, decode in schema.items()}


def _check_id(entity_id: object) -> object:
    if entity_id is not None and not isinstance(entity_id, _SCALAR_TYPES):
        raise SnapshotError(
            f"entity id {entity_id!r} of type {type(entity_id).__name__} cannot be "
            "snapshotted: ids must be JSON-native scalars"
        )
    return entity_id


def encode_vector(vector: SparseVector | Weights) -> dict[str, float]:
    """A sparse vector, or a model's non-zero weights, as ``{index: value}`` (string keys)."""
    return {str(index): value for index, value in vector.items()}


def decode_vector(document: dict[str, float]) -> SparseVector:
    """The vector :func:`encode_vector` wrote: digit-string keys, int / float values;
    anything else raises :class:`SnapshotCorruptionError` (a frame's CRC vouches
    only for its bytes), where the constructor would drop or convert it."""
    try:
        if not isinstance(document, dict):
            raise TypeError(f"expected an object, got {type(document).__name__}")
        if document:
            digits = "".join(document)
            if "" in document or not (digits.isascii() and digits.isdigit()):
                raise ValueError("an index is not a decimal integer")
            if not set(map(type, document.values())) <= {int, float}:
                raise TypeError("a value is not a number")
        return SparseVector(document)
    except (TypeError, ValueError, OverflowError, ConfigurationError) as error:
        raise SnapshotCorruptionError(
            f"snapshot holds a malformed feature vector {document!r:.80}: {error}"
        ) from error


def encode_model(model: LinearModel) -> dict[str, object]:
    """A linear model as ``{weights, bias, version}``."""
    return {
        "weights": encode_vector(model.weights),
        "bias": model.bias,
        "version": model.version,
    }


def decode_model(document: dict[str, object]) -> LinearModel:
    return LinearModel(
        weights=Weights.of(_field(document, "weights", decode_vector)),
        bias=_field(document, "bias", _number),
        version=_field(document, "version", _int),
    )


def encode_records(records: list[tuple[object, SparseVector, float, int]]) -> list[list]:
    """Entity records as ``[id, features, eps, label]`` rows (clustering order)."""
    return [
        [_check_id(entity_id), encode_vector(features), eps, label]
        for entity_id, features, eps, label in records
    ]


def decode_records(rows: list[list]) -> list[tuple[object, SparseVector, float, int]]:
    return [
        (entity_id, decode_vector(features), float(eps), int(label))
        for entity_id, features, eps, label in _list(rows)
    ]


#: One retained example as a manifest holds it: ``(entity id, slot, label)``.
#: The slot is the feature vector itself, ``None`` for the vector of the
#: entity's stored record, or the position of an earlier example whose
#: vector it shares.
ExampleRow = tuple[object, SparseVector | int | None, int]


def record_vectors(states: Iterable[ShardState]) -> dict[object, SparseVector]:
    """Entity id -> the vector object of the record ``states`` hold for it:
    what an example's ``None`` slot names."""
    return {
        entity_id: features for state in states for entity_id, features, _, _ in state.records
    }


def reference_examples(
    examples: Sequence[TrainingExample], records: Mapping[object, SparseVector]
) -> list[ExampleRow]:
    """The rows a checkpoint writes for ``examples``: each vector once.

    ``records`` maps an entity id to the vector of the record this checkpoint
    writes for it (:func:`record_vectors` of the shard states it writes).  An
    example whose features *are* that vector (``is``) refers to it; one that
    shares its vector object with an earlier example refers to the first such
    example; any other carries its vector inline.
    """
    first: dict[int, int] = {}  # id(vector) -> position of its first holder
    rows: list[ExampleRow] = []
    for position, example in enumerate(examples):
        features = example.features
        earlier = first.setdefault(id(features), position)
        if records.get(example.entity_id) is features:
            slot = None
        elif earlier < position:
            slot = earlier
        else:
            slot = features
        rows.append((example.entity_id, slot, example.label))
    return rows


def resolve_examples(
    rows: Sequence[ExampleRow], records: Mapping[object, SparseVector]
) -> tuple[TrainingExample, ...]:
    """The examples :func:`reference_examples` wrote ``rows`` for, every slot
    resolved against the decoded ``records``: a restored example holds its
    record's vector, and examples that shared a vector share one again."""
    examples: list[TrainingExample] = []
    for position, (entity_id, slot, label) in enumerate(rows):
        if slot is None:
            slot = records.get(entity_id)
            if slot is None:
                raise ValueError(
                    f"'examples': example {position} refers to the record of entity "
                    f"{entity_id!r}, which no shard of the checkpoint stores"
                )
        elif type(slot) is int:
            slot = examples[slot].features
        examples.append(TrainingExample(entity_id=entity_id, features=slot, label=label))
    return tuple(examples)


def encode_examples(rows: Sequence[ExampleRow]) -> list[list]:
    """Example rows as ``[id, slot, label]``: an inline vector as
    :func:`encode_vector` writes it, a reference as ``null`` or an index."""
    return [
        [_check_id(entity_id), _encode_slot(slot), label] for entity_id, slot, label in rows
    ]


def _encode_slot(slot: SparseVector | int | None) -> object:
    return slot if slot is None or type(slot) is int else encode_vector(slot)


def decode_examples(document: object) -> list[ExampleRow]:
    """The rows :func:`encode_examples` wrote.  A version-1 manifest is the
    case with every vector inline.  An index must name an earlier example, and
    an id must be a JSON scalar; anything else raises a ``ValueError``."""
    rows: list[ExampleRow] = []
    for position, row in enumerate(_list(document)):
        if type(row) is not list or len(row) != 3:
            raise ValueError(f"example {position} is not an [id, features, label] row")
        entity_id, slot, label = row
        if entity_id is not None and type(entity_id) not in _SCALAR_TYPES:
            raise ValueError(f"example {position} has an id of type {type(entity_id).__name__}")
        if type(slot) is int:
            if not 0 <= slot < position:
                raise ValueError(f"example {position} refers to example {slot}, not an earlier one")
        elif slot is not None:
            slot = decode_vector(slot)
        rows.append((entity_id, slot, _int(label)))
    return rows


def _decode_row_hashes(rows: list[list]) -> list[list[object]]:
    # Checked in place: a copy of every pair would double the peak of a restore.
    if not all(type(row) is list and len(row) == 2 and type(row[1]) is str for row in _list(rows)):
        raise ValueError("a row is not an [entity id, digest string] pair")
    return rows


@dataclass(frozen=True)
class PublishedState:
    """What a served view last published: one immutable value per epoch.

    The paper's view is "a pure function of the entities and training
    examples" (§3.5.1) — and of the feature function's corpus statistics
    (§2.1) — so this, plus each shard's clustering, is exactly what must
    cross a crash.  The server swaps the next value in with one assignment
    under its write lock; a checkpoint reads one and nothing behind it.
    """

    epoch: int
    #: Shared, never mutated: the server, its readers and every checkpoint
    #: hold this same object.
    model: LinearModel
    #: The retained examples (the retrain input), in absorption order.
    examples: tuple[TrainingExample, ...]
    #: Per-shard epoch of last change — what an incremental checkpoint diffs.
    shard_epochs: tuple[int, ...]
    #: Highest WAL sequence number whose op this state reflects.
    wal_applied_seq: int
    #: The pickled feature function, corpus statistics as of this epoch
    #: (see :func:`~repro.persist.checkpoint.pickle_feature_function`) — or
    #: the exception pickling raised, which a checkpoint re-raises.
    feature_function: bytes | Exception
    #: ``{entity id: row_content_hash(base-table row)}`` of the row each
    #: stored entity's features were computed from: one entry per entity.
    row_hashes: Mapping[object, str]


_SHARD_FIELDS = _object(
    index=_int,
    strategy=_str,
    approach=_str,
    records=decode_records,
    current_model=decode_model,
    row_hashes=_decode_row_hashes,
    max_feature_norm=_number,
    band_low=_number,
    band_high=_number,
    skiing=_optional(
        _object(
            reorganization_cost=_number,
            accumulated_cost=_number,
            rounds=_int,
            reorganizations=_int,
            incremental_cost_total=_number,
        )
    ),
)


@dataclass
class ShardState:
    """One shard's exported state, as produced by ``ViewMaintainer.export_state``.

    ``records`` carry the eps each entity was stored under *on that shard* —
    shards reorganize independently, so eps values are only comparable within
    a shard, which is why restore preserves the snapshot's shard assignment.
    """

    index: int
    strategy: str
    approach: str
    records: list[tuple[object, SparseVector, float, int]]
    current_model: LinearModel
    #: ``[entity_id, row_content_hash(base-table row)]``, one per record.
    row_hashes: list[list[object]]
    max_feature_norm: float = 0.0
    #: Hazy-only: the stored model the shard is clustered under and the
    #: cumulative water band accumulated since its last reorganization.
    stored_model: LinearModel | None = None
    band_low: float = 0.0
    band_high: float = 0.0
    #: Hazy-only: Skiing accounting so the reorganization rhythm resumes
    #: mid-stream instead of restarting from the bulk-load estimate.
    skiing: dict[str, float] | None = None
    #: Bytes of the frame this state was read from (restore charges its
    #: sequential read against the shard's ledger); 0 when freshly exported.
    payload_bytes: int = 0

    def to_import(self) -> dict[str, object]:
        """``ViewMaintainer.import_state``'s input: the exported dict back,
        with ``payload_bytes`` for the restore's read charge."""
        state = dict(vars(self))
        del state["index"], state["row_hashes"]
        return state

    def to_document(self) -> dict[str, object]:
        document: dict[str, object] = {
            "index": self.index,
            "strategy": self.strategy,
            "approach": self.approach,
            "records": encode_records(self.records),
            "current_model": encode_model(self.current_model),
            "max_feature_norm": self.max_feature_norm,
            "band_low": self.band_low,
            "band_high": self.band_high,
            "skiing": self.skiing,
        }
        if self.stored_model is not None:
            document["stored_model"] = encode_model(self.stored_model)
        document["row_hashes"] = [[_check_id(i), h] for i, h in self.row_hashes]
        return document

    @classmethod
    def from_document(cls, document: dict[str, object], payload_bytes: int = 0) -> "ShardState":
        """The state :meth:`to_document` wrote; any other shape (hashes not one
        per record included) raises a ``ValueError`` naming the key."""
        fields = _SHARD_FIELDS(document)
        if "stored_model" in document:
            fields["stored_model"] = _field(document, "stored_model", decode_model)
        records = fields["records"]
        hashed = {entity_id for entity_id, _ in fields["row_hashes"]}
        if len(hashed) != len(records) or hashed != {record[0] for record in records}:
            raise ValueError("'row_hashes' do not hash the shard's records one for one")
        return cls(**fields, payload_bytes=payload_bytes)


_MANIFEST_FIELDS = _object(
    view_name=_str,
    epoch=_int,
    model=decode_model,
    trainer_steps=_int,
    num_shards=_int,
    shard_files=_list_of(_str),
    examples=decode_examples,
    architecture=_str,
    strategy=_str,
    approach=_str,
    definition=_dict,
    positive_label=lambda label: label,
    has_feature_function=_typed(bool),
    wal_applied_seq=_int,
    shard_epochs=_list_of(_int),
    shard_shas=_list_of(_str),
    shard_sources=_optional(_list_of(_optional(_str))),
    shard_entities=_list_of(_int),
    parent=_optional(_str),
)


@dataclass
class CheckpointManifest:
    """The checkpoint's commit record: global state plus the shard directory.

    Written last (atomically): a checkpoint without a readable manifest is
    treated as absent, so a crash mid-checkpoint can never produce a
    half-restorable state.
    """

    view_name: str
    epoch: int
    model: LinearModel
    trainer_steps: int
    num_shards: int
    shard_files: list[str]
    #: The retained examples, each vector written once: rows resolved
    #: against the shards' records by :func:`resolve_examples`.
    examples: list[ExampleRow]
    architecture: str
    strategy: str
    approach: str
    #: The ``CREATE CLASSIFICATION VIEW`` definition of the checkpointed
    #: view, as a plain dict.
    definition: dict[str, object]
    positive_label: object
    #: The highest WAL sequence number whose op is reflected in this
    #: snapshot; recovery replays only records above it.  0 when the server
    #: ran without a WAL.
    wal_applied_seq: int
    #: Per-shard epoch of last change, captured at checkpoint time; the
    #: basis for incremental checkpoints (a shard whose epoch did not move
    #: past the parent's is not rewritten).
    shard_epochs: list[int]
    #: Per-shard content digest of the shard *file* bytes, verified on load
    #: (an incremental child references a parent shard by path).
    shard_shas: list[str]
    #: Per-shard record counts, so describing an incremental checkpoint
    #: does not need to open parent shard files.
    shard_entities: list[int]
    #: Per-shard source path for shards this (incremental) checkpoint did
    #: not rewrite: an absolute path into the parent checkpoint (chains are
    #: flattened at write time, so a source never points at another
    #: incremental reference).  None entries mean "this directory".
    shard_sources: list[str | None] | None = None
    #: The parent checkpoint path when this one was written incrementally.
    parent: str | None = None

    def to_document(self) -> dict[str, object]:
        return {
            "view_name": self.view_name,
            "epoch": self.epoch,
            "model": encode_model(self.model),
            "trainer_steps": self.trainer_steps,
            "num_shards": self.num_shards,
            "shard_files": list(self.shard_files),
            "examples": encode_examples(self.examples),
            "architecture": self.architecture,
            "strategy": self.strategy,
            "approach": self.approach,
            "definition": self.definition,
            "positive_label": self.positive_label,
            "has_feature_function": True,
            "wal_applied_seq": self.wal_applied_seq,
            "shard_epochs": self.shard_epochs,
            "shard_shas": self.shard_shas,
            "shard_sources": self.shard_sources,
            "shard_entities": self.shard_entities,
            "parent": self.parent,
        }

    @classmethod
    def from_document(cls, document: dict[str, object]) -> "CheckpointManifest":
        """The manifest :meth:`to_document` wrote; any other shape (a per-shard
        list without one entry per shard included) raises a ``ValueError``."""
        fields = _MANIFEST_FIELDS(document)
        if not fields.pop("has_feature_function"):
            raise ValueError("'has_feature_function' is false: the corpus statistics are lost")
        shards = fields["num_shards"]
        if shards < 1:
            raise ValueError(f"'num_shards' is {shards}: a view has at least one shard")
        for key in ("shard_files", "shard_epochs", "shard_shas", "shard_sources", "shard_entities"):
            if fields[key] is not None and len(fields[key]) != shards:
                raise ValueError(f"{key!r} has {len(fields[key])} entries for {shards} shards")
        return cls(**fields)


@dataclass
class LoadedCheckpoint:
    """Everything :func:`~repro.persist.checkpoint.load_checkpoint` read back."""

    manifest: CheckpointManifest
    shard_states: list[ShardState]
    #: The published state the manifest and the shards' hashes spell — what a
    #: warm-restarted server resumes from.
    published: PublishedState
    feature_function: object
