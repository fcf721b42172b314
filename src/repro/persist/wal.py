"""Write-ahead log for the diverted trigger-op stream.

A served view's trigger body hands every base-table write to an in-memory
maintenance queue (``ViewServer.submit``); a crash between a client's write
returning and the next epoch publish would silently drop those queued ops.
:class:`WriteAheadLog` closes that window the standard ARIES way, applied to
the view-maintenance stream instead of page writes:

* **log-before-enqueue** — the server appends each diverted op here (one
  CRC-framed JSON record, flushed) *before* handing it to the maintenance
  worker, so every acknowledged write is on disk;
* **rotation at publish** — when the worker publishes an epoch the current
  segment is closed and a fresh one started, so segments align with the
  publish boundary and pruning is whole-file unlink;
* **replay** — recovery reads every record with a sequence number above the
  checkpoint manifest's ``wal_applied_seq`` and re-enqueues it in arrival
  order.  Order matters beyond the answer set: SGD takes one gradient step
  per training example, so the model state is a function of example
  *arrival order*, which no base-table diff can reconstruct.

Crash tolerance follows the frame layer's contract
(:func:`repro.persist.format.scan_wal_records`): a torn tail in the *newest*
segment — the one a crash mid-append tears — is expected, and replay stops
at the last complete record; torn bytes anywhere else mean the log device
lied and raise :class:`~repro.exceptions.SnapshotCorruptionError`.

A record is ``{"seq", "kind", "row", "old_row"}``: every key present, ``seq``
an int, ``kind`` one of :data:`LOGGED_KINDS`, each row the trigger's
base-table row as ``{"row": {column: value}}`` or null.  One that passes its
CRC but does not have that shape raises the same error, naming its segment
and the field (the checkpoint's exact-type schema, ``persist.snapshot``).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.exceptions import SnapshotCorruptionError
from repro.persist.format import pack_wal_record, scan_wal_records, wal_header
from repro.persist.snapshot import _dict, _field, _int, _object, _str

__all__ = ["WalRecord", "WriteAheadLog", "SEGMENT_SUFFIX", "LOGGED_KINDS"]

SEGMENT_SUFFIX = ".hzl"
_SEGMENT_PREFIX = "wal-"


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:016d}{SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(stem)


def _encode_row(row: object) -> object:
    """One op row as JSON: a base-table row, or None."""
    return None if row is None else {"row": dict(row)}


#: The write kinds a record may carry: ``repro.core.writes.WriteKind``'s values
#: but ``barrier``, which is never logged (``persist`` may not import ``core``).
LOGGED_KINDS = frozenset(
    {
        "entity_insert",
        "entity_update",
        "entity_delete",
        "example_insert",
        "example_update",
        "example_delete",
    }
)


def _decode_kind(value: object) -> object:
    if _str(value) not in LOGGED_KINDS:
        raise ValueError(f"{value!r} is not a logged write kind")
    return value


def _decode_row(document: object) -> object:
    return None if document is None else _field(document, "row", _dict)


_RECORD_FIELDS = _object(seq=_int, kind=_decode_kind, row=_decode_row, old_row=_decode_row)


@dataclass(frozen=True)
class WalRecord:
    """One logged diverted op: sequence number, op kind, and the trigger rows."""

    seq: int
    kind: str
    row: dict[str, object] | None
    old_row: dict[str, object] | None

    def to_payload(self) -> bytes:
        document = {
            "seq": self.seq,
            "kind": self.kind,
            "row": _encode_row(self.row),
            "old_row": _encode_row(self.old_row),
        }
        return json.dumps(document, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes, path: Path) -> "WalRecord":
        try:
            document = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
            raise SnapshotCorruptionError(
                f"WAL segment {path} record passed its CRC but holds unparseable JSON: {error}"
            ) from error
        try:
            return cls(**_RECORD_FIELDS(document))
        except (TypeError, ValueError) as error:
            raise SnapshotCorruptionError(
                f"WAL segment {path} record passed its CRC but is not a WAL record: {error}"
            ) from error


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated log of diverted ops.

    Thread-safe: client sessions append concurrently while the maintenance
    worker rotates at publish and checkpoints prune — all serialized on one
    internal lock.  Appends flush before returning, so a record handed back
    with a sequence number has reached the OS's file layer.
    """

    #: Lock discipline (see repro.analysis passes): every mutable field
    #: below is read and written only while holding ``_lock``.
    _GUARDED_BY = {
        "_next_seq": "_lock",
        "_handle": "_lock",
        "_segment_path": "_lock",
        "_segment_records": "_lock",
        "_appends": "_lock",
        "_appended_bytes": "_lock",
        "_rotations": "_lock",
        "_pruned_segments": "_lock",
    }

    def __init__(self, directory: Path | str, fresh: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle: BinaryIO | None = None
        self._segment_path: Path | None = None
        self._segment_records = 0
        self._appends = 0
        self._appended_bytes = 0
        self._rotations = 0
        self._pruned_segments = 0
        if fresh:
            for path in self._segments():
                path.unlink()
            self._next_seq = 1
        else:
            last_seq = 0
            segments = self._segments()
            if segments:
                records, torn = self._read_segment(segments[-1])
                if torn:
                    # Repair the log tip: drop the torn tail the crash left
                    # so the segment reads clean once it is no longer the
                    # newest one.  Nothing before the tear is touched.
                    newest = segments[-1]
                    keep = newest.stat().st_size - torn
                    if keep < len(wal_header()):
                        newest.unlink()
                    else:
                        with open(newest, "r+b") as handle:
                            handle.truncate(keep)
                if records:
                    last_seq = records[-1].seq
                else:
                    # An empty or fully-torn newest segment still reserves
                    # its first sequence number: never reuse a seq that a
                    # torn record may have carried.
                    last_seq = _segment_first_seq(segments[-1])
            self._next_seq = last_seq + 1

    # -- write side -------------------------------------------------------

    def append(self, kind: str, row: object, old_row: object) -> int:
        """Log one diverted op; returns its sequence number after flushing."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = WalRecord(seq=seq, kind=kind, row=row, old_row=old_row)
            framed = pack_wal_record(record.to_payload())
            if self._handle is None:
                self._segment_path = self.directory / _segment_name(seq)
                self._handle = open(self._segment_path, "ab")
                if self._handle.tell() == 0:
                    self._handle.write(wal_header())
                self._segment_records = 0
            self._handle.write(framed)
            self._handle.flush()
            self._segment_records += 1
            self._appends += 1
            self._appended_bytes += len(framed)
            return seq

    def rotate(self) -> bool:
        """Close the current segment (if it holds records) so the next append
        opens a new one.  Called at epoch publish; returns True if rotated."""
        with self._lock:
            if self._handle is None or self._segment_records == 0:
                return False
            self._handle.close()
            self._handle = None
            self._segment_path = None
            self._segment_records = 0
            self._rotations += 1
            return True

    def prune(self, up_to_seq: int) -> int:
        """Unlink closed segments whose every record has seq <= ``up_to_seq``.

        Called after a checkpoint commits ``wal_applied_seq``: those records
        are durable in the snapshot and need never replay.  The active (or
        newest) segment is never unlinked.  Returns the number removed.
        """
        removed = 0
        with self._lock:
            segments = self._segments()
            for index, path in enumerate(segments):
                is_newest = index == len(segments) - 1
                if is_newest or path == self._segment_path:
                    continue
                # Every record in this segment precedes the next segment's
                # first sequence number, so the name comparison is exact.
                next_first = _segment_first_seq(segments[index + 1])
                if next_first - 1 <= up_to_seq:
                    path.unlink()
                    removed += 1
            self._pruned_segments += removed
        return removed

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._segment_path = None
                self._segment_records = 0

    # -- read side --------------------------------------------------------

    def records_after(self, seq: int) -> list[WalRecord]:
        """Every logged record with sequence number strictly above ``seq``,
        in arrival order, replaying through any torn tail on the newest
        segment (the crash shape) and raising on torn bytes anywhere else."""
        records: list[WalRecord] = []
        with self._lock:
            segments = self._segments()
            for index, path in enumerate(segments):
                is_newest = index == len(segments) - 1
                segment_records, torn = self._read_segment(path)
                if torn and not is_newest:
                    raise SnapshotCorruptionError(
                        f"WAL segment {path} holds {torn} torn trailing bytes but is "
                        "not the newest segment: only the segment being appended at "
                        "the crash may be torn"
                    )
                records.extend(record for record in segment_records if record.seq > seq)
        return records

    def stats(self) -> dict[str, int]:
        """Log counters, reported as ``wal.*`` in the server's ``stats()``."""
        with self._lock:
            return {
                "appends_total": self._appends,
                "appended_bytes": self._appended_bytes,
                "rotations_total": self._rotations,
                "pruned_segments_total": self._pruned_segments,
                "segments": len(self._segments()),
                "next_seq": self._next_seq,
            }

    # -- internals --------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(
            (
                path
                for path in self.directory.glob(f"{_SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
                if path.is_file()
            ),
            key=_segment_first_seq,
        )

    @staticmethod
    def _read_segment(path: Path) -> tuple[list[WalRecord], int]:
        raw = path.read_bytes()
        if len(raw) < len(wal_header()):
            # A crash during segment creation can leave a partial header;
            # the whole file is one torn tail with no complete records.
            return [], len(raw)
        payloads, torn = scan_wal_records(raw, path)
        return [WalRecord.from_payload(payload, path) for payload in payloads], torn
