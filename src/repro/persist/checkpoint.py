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
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.exceptions import ConfigurationError, SnapshotCorruptionError, SnapshotError
from repro.persist.format import read_frame, read_json_frame, write_frame, write_json_frame
from repro.persist.snapshot import (
    CheckpointManifest,
    LoadedCheckpoint,
    PublishedState,
    ShardState,
)

__all__ = [
    "MANIFEST_NAME",
    "FEATURES_NAME",
    "shard_file_name",
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


def shard_file_sha(path: Path | str) -> str:
    """Content digest of a shard file's raw bytes (frame header included).

    Incremental checkpoints record this next to a parent-shard reference so
    a later restore can prove the referenced file was not rewritten."""
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=16).hexdigest()


def write_shard_state(directory: Path | str, state: ShardState) -> int:
    """Write one shard's state; returns the bytes written (for read pricing)."""
    return write_json_frame(Path(directory) / shard_file_name(state.index), state.to_document())


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
        written: Iterable[ShardState],
        shard_bytes: int,
        **identity: object,
    ) -> dict[str, object]:
        """Write the feature function and then the manifest — the commit point.

        ``written`` are the shard states whose files now exist in the
        directory (``shard_bytes`` in total), ``identity`` the manifest fields
        naming the view and its engine configuration.  Returns the info row
        ``CHECKPOINT VIEW`` answers with.
        """
        records = {state.index: len(state.records) for state in written}
        shard_shas: list[str] = []
        shard_sources: list[str | None] = []
        shard_entities: list[int] = []
        for index in range(self.num_shards):
            if index in records:
                shard_shas.append(shard_file_sha(self.directory / shard_file_name(index)))
                shard_sources.append(None)
                shard_entities.append(records[index])
                continue
            # Unchanged since the parent cut: reference the parent's file
            # (flattening chains — a source never points at another
            # reference) and carry its digest and record count forward.
            parent = self.parent
            source = parent.shard_sources[index] if parent.shard_sources is not None else None
            resolved = Path(source) if source else self.parent_dir / parent.shard_files[index]
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
            examples=list(published.examples),
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
            "shards_written": len(records),
            "shard_bytes": shard_bytes,
        }


def _decoded(what: str, file_path: Path, from_document, **keywords):
    """``from_document`` of the JSON frame at ``file_path``; a frame whose CRC
    holds but whose fields do not decode is corrupt."""
    document = read_json_frame(file_path)
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
    return directory, _decoded(what, directory / MANIFEST_NAME, CheckpointManifest.from_document)


def load_checkpoint(path: Path | str) -> LoadedCheckpoint:
    """Read a whole checkpoint directory back into memory, validating every frame."""
    directory, manifest = _read_manifest(path)
    shard_states: list[ShardState] = []
    for index, name in enumerate(manifest.shard_files):
        source = manifest.shard_sources[index] if manifest.shard_sources else None
        file_path = Path(source) if source else directory / name
        if not file_path.is_file():
            where = "references parent shard file" if source else "lists shard file"
            raise SnapshotCorruptionError(
                f"checkpoint {directory} manifest {where} {file_path} "
                "but it is missing"
            )
        if shard_file_sha(file_path) != manifest.shard_shas[index]:
            raise SnapshotCorruptionError(
                f"checkpoint {directory} shard file {file_path} does not match the "
                "content digest its manifest recorded: the file was rewritten or corrupted"
            )
        what, size = f"checkpoint {directory} shard file {file_path}", file_path.stat().st_size
        state = _decoded(what, file_path, ShardState.from_document, payload_bytes=size)
        if state.index != index:  # reads route by index: a shard out of place answers nothing
            raise SnapshotCorruptionError(f"{what} holds shard {state.index}, not shard {index}")
        shard_states.append(state)
    pickled = read_frame(directory / FEATURES_NAME)
    try:
        feature_function = pickle.loads(pickled)
    except Exception as error:
        raise SnapshotCorruptionError(
            f"checkpoint {directory} has an unreadable feature function: {error}"
        ) from error
    published = PublishedState(
        epoch=manifest.epoch,
        model=manifest.model,
        examples=tuple(manifest.examples),
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
