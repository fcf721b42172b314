"""The checkpoint directory layout, both directions.

A checkpoint is a directory::

    <path>/
        shard-0000.hzs ... shard-NNNN.hzs   one frame per shard
        features.hzs                        pickled feature function
        MANIFEST.hzs                        global state — written LAST, atomically

The manifest is the commit point: :func:`load_checkpoint` starts from it, so
a checkpoint interrupted before the manifest rename simply does not exist.
Every file is CRC-checked and version-checked (see
:mod:`repro.persist.format`), and every shard file against its manifest's
digest; a truncated, corrupted or malformed file (a field of the writer's
missing or mistyped) surfaces as :class:`~repro.exceptions.SnapshotCorruptionError`
naming the file and the field, before any state is imported.

Both directions are a function of one value — the
:class:`~repro.persist.snapshot.PublishedState` a served view last published —
plus its shards' exported state.  :class:`CheckpointWriter`, the write side,
is handed that value and those exports, never a shard, a lock or a table, and
owns every rule of the format: when a parent may anchor an **incremental**
checkpoint, which shards one rewrites, how an unchanged shard is referenced,
and the manifest, written last.  Its caller keeps what is not format: the
consistent cut and the thread the per-shard files are written from
(:meth:`repro.serve.server.ViewServer.checkpoint`).  :func:`load_checkpoint`
maps the directory back onto the same value.

The feature function is serialized with :mod:`pickle` inside a CRC frame —
only restore checkpoints you wrote yourself (the usual pickle trust model).
"""

from __future__ import annotations

import hashlib
import pickle
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.exceptions import ConfigurationError, SnapshotCorruptionError, SnapshotError
from repro.persist.format import (
    decode_frame,
    decode_json,
    encode_frame,
    encode_json,
    read_file,
    read_frame,
    read_json_frame,
    write_file,
    write_frame,
    write_json_frame,
)
from repro.persist.snapshot import (
    CheckpointManifest,
    LoadedCheckpoint,
    PublishedState,
    ShardState,
    record_vectors,
    reference_examples,
    resolve_examples,
)

__all__ = [
    "MANIFEST_NAME",
    "FEATURES_NAME",
    "shard_file_name",
    "shard_sha",
    "shard_file_sha",
    "write_shard_state",
    "write_manifest",
    "pickle_feature_function",
    "CheckpointWriter",
    "load_checkpoint",
]

MANIFEST_NAME = "MANIFEST.hzs"
FEATURES_NAME = "features.hzs"


def shard_file_name(index: int) -> str:
    """The file name of shard ``index``'s snapshot."""
    return f"shard-{index:04d}.hzs"


def shard_sha(raw: bytes) -> str:
    """Content digest of a shard file's raw bytes (frame header included).

    The manifest records it for every shard, an incremental checkpoint's
    parent-shard references included, so a restore can prove no file was
    rewritten."""
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def shard_file_sha(path: Path | str) -> str:
    """:func:`shard_sha` of the file at ``path``, hashed as it streams in: a
    parent shard is checked without holding its bytes."""
    try:
        with Path(path).open("rb") as file:
            return hashlib.file_digest(file, lambda: hashlib.blake2b(digest_size=16)).hexdigest()
    except FileNotFoundError as error:
        raise SnapshotCorruptionError(f"snapshot file {path} is missing") from error


def write_shard_state(directory: Path | str, state: ShardState) -> tuple[int, str]:
    """Write one shard's state; returns the size (for read pricing) and the
    :func:`shard_sha` of the frame written, hashed from the bytes in hand."""
    raw = encode_frame(encode_json(state.to_document()))
    write_file(Path(directory) / shard_file_name(state.index), raw)
    return len(raw), shard_sha(raw)


def write_manifest(directory: Path | str, manifest: CheckpointManifest) -> int:
    """Write the manifest — the checkpoint's atomic commit point."""
    return write_json_frame(Path(directory) / MANIFEST_NAME, manifest.to_document())


def pickle_feature_function(feature_function: object) -> bytes:
    """The feature function (corpus statistics included) as ``features.hzs``'s payload."""
    return pickle.dumps(feature_function, protocol=pickle.HIGHEST_PROTOCOL)


class CheckpointWriter:
    """One checkpoint directory being written: what to rewrite, then the commit.

    ``parent`` is the checkpoint an incremental one builds on.  Between
    construction and :meth:`commit` the caller writes the files of
    :meth:`stale_shards` with :func:`write_shard_state`.
    """

    def __init__(
        self,
        path: Path | str,
        num_shards: int,
        incremental: bool = False,
        parent: Path | str | None = None,
    ):
        self.directory = Path(path)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.num_shards = num_shards
        self.parent_dir: Path | None = None
        self.parent: CheckpointManifest | None = None
        if not incremental:
            return
        if parent is None:
            raise ConfigurationError(
                "incremental checkpoint needs a parent: no full checkpoint was "
                "written by this server and no parent path was given"
            )
        parent_dir = Path(parent).resolve()
        if parent_dir == self.directory.resolve():
            raise ConfigurationError(
                f"incremental checkpoint cannot use itself ({self.directory}) as parent"
            )
        _, manifest = _read_manifest(parent_dir)
        if manifest.num_shards != num_shards:
            raise ConfigurationError(
                f"parent checkpoint {parent_dir} holds {manifest.num_shards} shards, "
                f"this server runs {num_shards}"
            )
        self.parent_dir, self.parent = parent_dir, manifest

    def stale_shards(self, shard_epochs: Sequence[int]) -> list[int]:
        """The shards this checkpoint rewrites: all of them, or, incrementally,
        those whose epoch of last change moved since the parent's cut."""
        if self.parent is None:
            return list(range(self.num_shards))
        return [
            index
            for index in range(self.num_shards)
            if shard_epochs[index] != self.parent.shard_epochs[index]
        ]

    @staticmethod
    def shard_state(
        index: int, exported: dict[str, object], row_hashes: Mapping[object, str]
    ) -> ShardState:
        """Shard ``index``'s file content: its ``export_state()`` dict plus
        the published hashes of the rows it stores."""
        hashes = [[entity_id, row_hashes[entity_id]] for entity_id, _, _, _ in exported["records"]]
        return ShardState(index=index, row_hashes=hashes, **exported)

    def commit(
        self,
        published: PublishedState,
        written: Sequence[tuple[ShardState, int, str]],
        **identity: object,
    ) -> dict[str, object]:
        """Write the feature function and then the manifest — the commit point.

        ``written`` holds each shard state whose file now exists in the
        directory with the size and digest :func:`write_shard_state` returned
        for it, ``identity`` the manifest fields naming the view and its
        engine configuration.  A retained example whose features are the
        record one of those states holds for its entity is written by
        reference (a carried parent shard's entities have no record here,
        so theirs go inline).  A parent shard carried forward is checked
        against the digest its manifest recorded first: a rewritten or
        corrupted one raises :class:`SnapshotCorruptionError`, and no
        manifest is written.  Returns the info row ``CHECKPOINT VIEW``
        answers with.
        """
        fresh = {state.index: (len(state.records), sha) for state, _, sha in written}
        shard_bytes = sum(size for _, size, _ in written)
        shard_shas: list[str] = []
        shard_sources: list[str | None] = []
        shard_entities: list[int] = []
        for index in range(self.num_shards):
            if index in fresh:
                records, sha = fresh[index]
                shard_shas.append(sha)
                shard_sources.append(None)
                shard_entities.append(records)
                continue
            # Unchanged since the parent cut: reference the parent's file
            # (flattening chains — a source never points at another
            # reference) and carry its digest and record count forward.
            parent = self.parent
            source = parent.shard_sources[index] if parent.shard_sources is not None else None
            resolved = Path(source) if source else self.parent_dir / parent.shard_files[index]
            if shard_file_sha(resolved) != parent.shard_shas[index]:
                raise SnapshotCorruptionError(
                    f"parent checkpoint {self.parent_dir} shard file {resolved} does not match "
                    "the content digest its manifest recorded: the file was rewritten or corrupted"
                )
            shard_shas.append(parent.shard_shas[index])
            shard_sources.append(str(resolved))
            shard_entities.append(parent.shard_entities[index])

        pickled = published.feature_function
        if isinstance(pickled, Exception):
            raise pickled
        total_bytes = shard_bytes + write_frame(self.directory / FEATURES_NAME, pickled)
        manifest = CheckpointManifest(
            epoch=published.epoch,
            model=published.model,
            trainer_steps=published.model.version,
            num_shards=self.num_shards,
            shard_files=[shard_file_name(index) for index in range(self.num_shards)],
            examples=reference_examples(
                published.examples, record_vectors(state for state, _, _ in written)
            ),
            wal_applied_seq=published.wal_applied_seq,
            shard_epochs=list(published.shard_epochs),
            shard_shas=shard_shas,
            shard_sources=shard_sources if self.parent is not None else None,
            shard_entities=shard_entities,
            parent=str(self.parent_dir) if self.parent_dir is not None else None,
            **identity,
        )
        total_bytes += write_manifest(self.directory, manifest)
        return {
            "path": str(self.directory),
            "epoch": published.epoch,
            "entities": sum(shard_entities),
            "bytes": total_bytes,
            "shards_written": len(fresh),
            "shard_bytes": shard_bytes,
        }


def _decoded(what: str, document: object, from_document, **keywords):
    """``from_document`` of a JSON frame's ``document``; a frame whose CRC
    holds but whose fields do not decode is corrupt."""
    try:
        return from_document(document, **keywords)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"{what} passed its CRC but holds a malformed field: {error}"
        ) from None


def _read_manifest(path: Path | str) -> tuple[Path, CheckpointManifest]:
    """A checkpoint directory and its decoded manifest."""
    directory = Path(path)
    if not directory.is_dir():
        raise SnapshotError(f"checkpoint directory {directory} does not exist")
    what = f"checkpoint {directory} manifest"
    document = read_json_frame(directory / MANIFEST_NAME)  # its bytes freed before the parse
    return directory, _decoded(what, document, CheckpointManifest.from_document)


def _read_shard(directory: Path, manifest: CheckpointManifest, index: int) -> ShardState:
    """Shard ``index`` of a checkpoint: its file read once, for the digest, the
    size and the decode, and released with the document when this returns."""
    source = manifest.shard_sources[index] if manifest.shard_sources else None
    file_path = Path(source) if source else directory / manifest.shard_files[index]
    if not file_path.is_file():
        where = "references parent shard file" if source else "lists shard file"
        raise SnapshotCorruptionError(
            f"checkpoint {directory} manifest {where} {file_path} but it is missing"
        )
    raw = read_file(file_path)
    if shard_sha(raw) != manifest.shard_shas[index]:
        raise SnapshotCorruptionError(
            f"checkpoint {directory} shard file {file_path} does not match the "
            "content digest its manifest recorded: the file was rewritten or corrupted"
        )
    what = f"checkpoint {directory} shard file {file_path}"
    document = decode_json(decode_frame(raw, file_path), file_path)
    state = _decoded(what, document, ShardState.from_document, payload_bytes=len(raw))
    if state.index != index:  # reads route by index: a shard out of place answers nothing
        raise SnapshotCorruptionError(f"{what} holds shard {state.index}, not shard {index}")
    return state


def load_checkpoint(path: Path | str) -> LoadedCheckpoint:
    """Read a whole checkpoint directory back into memory, validating every
    frame; each retained example is resolved against the decoded records."""
    directory, manifest = _read_manifest(path)
    shard_states = [_read_shard(directory, manifest, index) for index in range(manifest.num_shards)]
    pickled = read_frame(directory / FEATURES_NAME)
    try:
        feature_function = pickle.loads(pickled)
    except Exception as error:
        raise SnapshotCorruptionError(
            f"checkpoint {directory} has an unreadable feature function: {error}"
        ) from error
    examples = _decoded(
        f"checkpoint {directory} manifest",
        manifest.examples,
        resolve_examples,
        records=record_vectors(shard_states),
    )
    published = PublishedState(
        epoch=manifest.epoch,
        model=manifest.model,
        examples=examples,
        shard_epochs=tuple(manifest.shard_epochs),
        wal_applied_seq=manifest.wal_applied_seq,
        feature_function=pickled,
        row_hashes={
            entity_id: digest for state in shard_states for entity_id, digest in state.row_hashes
        },
    )
    return LoadedCheckpoint(
        manifest=manifest,
        shard_states=shard_states,
        published=published,
        feature_function=feature_function,
    )
