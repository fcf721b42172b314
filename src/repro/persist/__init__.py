"""Checkpoint & warm-restart subsystem.

The paper's observation that a classification view's state *is itself
relational data* — per-entity ε values, labels, and the water-band bounds of
Lemma 3.1 — means the whole serving state can be written out and read back
without re-featurizing or re-classifying a single entity.  This package holds
the pieces:

* :mod:`repro.persist.format` — the versioned, CRC-checked frame every
  snapshot file is wrapped in;
* :mod:`repro.persist.snapshot` — the exported state types and their
  codecs: a JSON manifest, and a shard file as binary columns laid out by
  :mod:`repro.persist.columns` (floats round-trip exactly either way, so
  restored reads are bit-identical);
* :mod:`repro.persist.checkpoint` — the checkpoint directory layout, with the
  manifest as the atomic commit point, and :func:`load_checkpoint`;
* :mod:`repro.persist.wal` — the append-only write-ahead log of diverted
  trigger ops, replayed on warm restart so queued-but-unpublished writes
  survive a crash.

The write side is composed by
:class:`~repro.persist.checkpoint.CheckpointWriter` from the one
:class:`~repro.persist.snapshot.PublishedState` a served view last published;
:meth:`repro.serve.server.ViewServer.checkpoint` owns only the cut (per-shard
concurrent export under the *shared* side of the server's readers/writer
lock, so readers stay live); the warm-restart path is
``RESTORE VIEW name FROM path`` (``HazyEngine.restore``), which imports shard states and
replays only the base-table churn that happened after the checkpoint.
"""

from repro.persist.checkpoint import (
    FEATURES_NAME,
    CheckpointWriter,
    MANIFEST_NAME,
    load_checkpoint,
    shard_file_name,
    shard_file_sha,
    write_manifest,
    write_shard_state,
)
from repro.persist.format import (
    FORMAT_VERSION,
    MAGIC,
    read_frame,
    read_json_frame,
    write_frame,
    write_json_frame,
)
from repro.persist.snapshot import (
    CheckpointManifest,
    LoadedCheckpoint,
    PublishedState,
    ShardState,
    row_content_hash,
)
from repro.persist.wal import WalRecord, WriteAheadLog

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "read_frame",
    "read_json_frame",
    "write_frame",
    "write_json_frame",
    "CheckpointManifest",
    "LoadedCheckpoint",
    "ShardState",
    "PublishedState",
    "CheckpointWriter",
    "MANIFEST_NAME",
    "FEATURES_NAME",
    "shard_file_name",
    "shard_file_sha",
    "load_checkpoint",
    "write_shard_state",
    "write_manifest",
    "row_content_hash",
    "WalRecord",
    "WriteAheadLog",
]
