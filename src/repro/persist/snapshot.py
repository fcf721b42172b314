"""In-memory snapshot state and its codecs.

The layers below the serving subsystem export their state as plain Python
structures holding live objects (:class:`~repro.learn.model.LinearModel`,
:class:`~repro.linalg.SparseVector`); this module turns those into payloads
and back.  A manifest is a JSON document; a shard file, from format version
3, is binary columns (:meth:`ShardState.to_document`, laid out by
:mod:`repro.persist.columns`), and a version-1 or -2 shard file's JSON
document still reads (:meth:`ShardState.from_document`).  Floats round-trip
exactly either way (columns hold their bits, ``json`` emits
shortest-round-trip ``repr`` forms), so a restored model answers reads
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

import numpy as np

from repro.exceptions import ConfigurationError, SnapshotCorruptionError, SnapshotError
from repro.learn.model import LinearModel
from repro.learn.sgd import TrainingExample
from repro.learn.weights import Weights
from repro.linalg import SparseVector
from repro.linalg.kernels import flatten
from repro.persist.columns import pack_columns, unpack_columns

__all__ = [
    "PublishedState",
    "ShardState",
    "CheckpointManifest",
    "LoadedCheckpoint",
    "encode_model",
    "decode_model",
    "encode_vector",
    "decode_vector",
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


def decode_records(rows: list[list]) -> list[tuple[object, SparseVector, float, int]]:
    """A version-1 or -2 shard document's ``[id, features, eps, label]`` rows."""
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


_SKIING = _optional(
    _object(
        reorganization_cost=_number,
        accumulated_cost=_number,
        rounds=_int,
        reorganizations=_int,
        incremental_cost_total=_number,
    )
)

#: A version-1 or -2 shard file's JSON document (``stored_model`` is read
#: only when present: a naive shard has none).
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
    skiing=_SKIING,
)


def _entity_ids(value: object) -> list[object]:
    ids = _list(value)
    if not all(entity_id is None or type(entity_id) in _SCALAR_TYPES for entity_id in ids):
        raise TypeError("an id is not a JSON scalar")
    return ids


_MODEL_HEAD = _object(bias=_number, version=_int)

#: A version-3 shard payload's head (:mod:`repro.persist.columns`): the scalars,
#: the entity ids in record order, and each model's bias and version
#: (``stored_model`` null for a naive shard).
_SHARD_HEAD = _object(
    index=_int,
    strategy=_str,
    approach=_str,
    ids=_entity_ids,
    max_feature_norm=_number,
    band_low=_number,
    band_high=_number,
    skiing=_SKIING,
    current_model=_MODEL_HEAD,
    stored_model=_optional(_MODEL_HEAD),
)

#: A version-3 shard payload's sections, in file order, with their dtypes.
#: ``nnz`` holds each record's entry count, ``indices`` / ``values`` every
#: record's entries end to end, each vector's in its stored order, and
#: ``digests`` each record's row digest as its 8 raw bytes.  A model's
#: section is its weight array as the model holds it: a length the tiling
#: check bounds, where a largest index would size the array unchecked.
_SHARD_SECTIONS = {
    "nnz": np.dtype("<i4"),
    "indices": np.dtype("<i4"),
    "values": np.dtype("<f8"),
    "eps": np.dtype("<f8"),
    "labels": np.dtype("i1"),
    "digests": np.dtype("V8"),
    "current_model.weights": np.dtype("<f8"),
    "stored_model.weights": np.dtype("<f8"),
}
_DIGEST_HEX = 2 * _SHARD_SECTIONS["digests"].itemsize
_NO_WEIGHTS = np.zeros(0)


def _entry_columns(vectors: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nnz, indices, values)`` of ``vectors``: every vector's arrays end to
    end.  An entry whose value is zero (a :meth:`SparseVector.scale` that
    underflowed) is left out, as the JSON decoder dropped it."""
    indptr, indices, values = flatten(vectors, np.int32)
    nnz = np.diff(indptr)
    kept = values != 0.0
    if not kept.all():
        nnz = np.bincount(np.repeat(np.arange(len(vectors)), nnz)[kept], minlength=len(vectors))
        indices, values = indices[kept], values[kept]
    return nnz, indices, values


def _digest_column(row_hashes: Sequence[Sequence[object]], ids: Sequence[object]) -> np.ndarray:
    """The row digest of each of ``ids``, in order, as 8 raw bytes apiece."""
    hashes = dict(row_hashes)
    if len(hashes) != len(row_hashes) or len(hashes) != len(ids):
        raise SnapshotError("'row_hashes' do not hash the shard's records one for one")
    try:
        digests = [hashes[entity_id] for entity_id in ids]
    except KeyError as error:
        raise SnapshotError(f"'row_hashes' hold no digest of record {error}") from None
    if not all(type(digest) is str and len(digest) == _DIGEST_HEX for digest in digests):
        raise SnapshotError(f"'row_hashes' hold a digest that is not {_DIGEST_HEX} hex digits")
    return np.frombuffer(bytes.fromhex("".join(digests)), _SHARD_SECTIONS["digests"])


def _record_vectors(columns: Mapping[str, np.ndarray]) -> list[SparseVector]:
    """Each record's vector, a slice of the ``indices`` / ``values`` columns,
    once the columns hold only what the writer writes."""
    nnz, indices, values = columns["nnz"], columns["indices"], columns["values"]
    if len(nnz) and int(nnz.min()) < 0:
        raise ValueError(f"'nnz': a negative entry count {int(nnz.min())}")
    total = int(nnz.sum(dtype=np.int64))
    if total != len(indices):
        raise ValueError(f"'nnz': the counts sum to {total}, 'indices' holds {len(indices)}")
    if len(values) != len(indices):
        raise ValueError(f"'values': {len(values)} values for {len(indices)} indices")
    if len(indices) and int(indices.min()) < 0:
        raise ValueError(f"'indices': a negative index {int(indices.min())}")
    if not values.all():
        raise ValueError("'values': a zero value, which no vector stores")
    # (record, index) as one int64 each: a repeat within a record sorts adjacent.
    keys = np.repeat(np.arange(len(nnz), dtype=np.int64) << 31, nnz) | indices
    keys.sort()
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        raise ValueError(f"'indices': record {int(keys[repeated[0]] >> 31)} holds an index twice")
    return SparseVector._runs(indices, values, nnz)


def _decode_model(
    columns: Mapping[str, np.ndarray], name: str, head: Mapping[str, object] | None
) -> LinearModel | None:
    weights = columns[f"{name}.weights"]
    if head is None:
        if len(weights):
            raise ValueError(f"'{name}.weights': weights of a model the head does not hold")
        return None
    return LinearModel(weights=Weights(weights), bias=head["bias"], version=head["version"])


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

    def to_document(self) -> bytes:
        """This state as a version-3 shard payload: the head, then columns.

        The records' vectors are concatenated as the arrays they hold, in
        stored order (a margin's fold order), never sorted; the row digests
        follow the records' order.  An id that is not a JSON scalar, a label
        other than ``±1`` or digests that are not one per record raise
        :class:`SnapshotError`.
        """
        records = self.records
        ids = [_check_id(entity_id) for entity_id, _, _, _ in records]
        labels = np.array([label for _, _, _, label in records], dtype=np.int64)
        if not ((labels == 1) | (labels == -1)).all():
            raise SnapshotError("a shard record's label is not +1 or -1: it cannot be snapshotted")
        models = {"current_model": self.current_model, "stored_model": self.stored_model}
        head = {
            "index": self.index,
            "strategy": self.strategy,
            "approach": self.approach,
            "ids": ids,
            "max_feature_norm": self.max_feature_norm,
            "band_low": self.band_low,
            "band_high": self.band_high,
            "skiing": self.skiing,
            **{
                name: None if model is None else {"bias": model.bias, "version": model.version}
                for name, model in models.items()
            },
        }
        columns = [
            *_entry_columns([features for _, features, _, _ in records]),
            np.array([eps for _, _, eps, _ in records], dtype=np.float64),
            labels,
            _digest_column(self.row_hashes, ids),
            *(_NO_WEIGHTS if model is None else model.weights.array for model in models.values()),
        ]
        return pack_columns(head, columns, _SHARD_SECTIONS)

    @classmethod
    def from_payload(cls, payload: bytes | memoryview, payload_bytes: int = 0) -> "ShardState":
        """The state :meth:`to_document` wrote, every check vectorized; any
        other payload raises a ``ValueError`` naming the section or field."""
        head, columns = unpack_columns(payload, _SHARD_SECTIONS)
        fields = _SHARD_HEAD(head)
        ids = fields.pop("ids")
        records = len(columns["nnz"])
        for name, count in (
            ("ids", len(ids)),
            ("eps", len(columns["eps"])),
            ("labels", len(columns["labels"])),
            ("digests", len(columns["digests"])),
        ):
            if count != records:
                raise ValueError(f"{name!r}: {count} entries for {records} records")
        if len(set(ids)) != records:
            raise ValueError("'ids': an entity id twice")
        labels = columns["labels"]
        if not ((labels == 1) | (labels == -1)).all():
            raise ValueError("'labels': a label other than +1 or -1")
        vectors = _record_vectors(columns)
        for name in ("current_model", "stored_model"):
            fields[name] = _decode_model(columns, name, fields[name])
        digests = columns["digests"].tobytes().hex()
        fields["records"] = list(zip(ids, vectors, columns["eps"].tolist(), labels.tolist()))
        fields["row_hashes"] = [
            [entity_id, digests[start : start + _DIGEST_HEX]]
            for entity_id, start in zip(ids, range(0, len(digests), _DIGEST_HEX))
        ]
        return cls(**fields, payload_bytes=payload_bytes)

    @classmethod
    def from_document(cls, document: dict[str, object], payload_bytes: int = 0) -> "ShardState":
        """The state a version-1 or -2 shard file's JSON document holds; any
        other shape (hashes not one per record included) raises a
        ``ValueError`` naming the key."""
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
