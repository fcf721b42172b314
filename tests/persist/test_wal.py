"""Unit tests for the diverted-op write-ahead log (repro.persist.wal)."""

from __future__ import annotations

import pytest

from repro.exceptions import SnapshotCorruptionError, SnapshotVersionError
from repro.persist.format import WAL_VERSION, pack_wal_record, wal_header
from repro.persist.wal import SEGMENT_SUFFIX, WriteAheadLog

from tests.serve.conftest import build_corpus_server


def segments_of(directory):
    return sorted(directory.glob(f"wal-*{SEGMENT_SUFFIX}"))


class TestAppendReplay:
    def test_round_trip_preserves_rows_and_order(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("entity_insert", {"id": 7, "title": "a row"}, None)
        log.append("entity_delete", None, {"id": 42, "score": 0.5})
        log.append(
            "entity_update",
            {"id": 7, "title": "changed"},
            {"id": 7, "title": "a row"},
        )
        log.close()

        records = WriteAheadLog(tmp_path, fresh=False).records_after(0)
        assert [record.seq for record in records] == [1, 2, 3]
        assert records[0].kind == "entity_insert"
        assert records[0].row == {"id": 7, "title": "a row"}
        assert records[0].old_row is None
        assert records[1].row is None
        assert records[1].old_row == {"id": 42, "score": 0.5}
        assert records[2].old_row == {"id": 7, "title": "a row"}

    def test_records_after_filters_applied_prefix(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        for index in range(5):
            log.append("example_insert", {"id": index, "label": True}, None)
        assert [record.seq for record in log.records_after(3)] == [4, 5]
        assert log.records_after(5) == []

    def test_fresh_open_wipes_stale_segments(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.close()
        assert segments_of(tmp_path)

        wiped = WriteAheadLog(tmp_path, fresh=True)
        assert segments_of(tmp_path) == []
        assert wiped.append("example_insert", {"id": 2, "label": True}, None) == 1

    def test_reopen_continues_the_sequence(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        for index in range(3):
            log.append("example_insert", {"id": index, "label": True}, None)
        log.close()

        survivor = WriteAheadLog(tmp_path, fresh=False)
        assert survivor.append("example_insert", {"id": 99, "label": False}, None) == 4


class TestRotationPruning:
    def test_rotate_closes_the_segment(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        assert not log.rotate()  # nothing written yet
        log.append("example_insert", {"id": 1, "label": True}, None)
        assert log.rotate()
        assert not log.rotate()  # already closed, nothing new
        log.append("example_insert", {"id": 2, "label": True}, None)
        assert len(segments_of(tmp_path)) == 2
        # Records span both segments; replay walks them in order.
        assert [record.seq for record in log.records_after(0)] == [1, 2]

    def test_prune_unlinks_only_fully_applied_closed_segments(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.append("example_insert", {"id": 2, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 3, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 4, "label": True}, None)
        assert len(segments_of(tmp_path)) == 3

        assert log.prune(1) == 0  # first segment still holds seq 2
        assert log.prune(2) == 1  # now fully covered
        # The newest (active) segment is never pruned, however high the seq.
        assert log.prune(100) == 1
        assert len(segments_of(tmp_path)) == 1
        assert [record.seq for record in log.records_after(0)] == [4]

    def test_stats_counters(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 2, "label": True}, None)
        stats = log.stats()
        assert stats["appends_total"] == 2
        assert stats["appended_bytes"] > 0
        assert stats["rotations_total"] == 1
        assert stats["pruned_segments_total"] == 0
        assert stats["segments"] == 2
        assert stats["next_seq"] == 3


class TestTornTails:
    def _torn_log(self, tmp_path, cut: int) -> None:
        log = WriteAheadLog(tmp_path)
        for index in range(3):
            log.append("example_insert", {"id": index, "label": True}, None)
        log.close()
        segment = segments_of(tmp_path)[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) - cut])

    def test_torn_tail_replays_to_last_complete_record(self, tmp_path):
        self._torn_log(tmp_path, cut=5)
        log = WriteAheadLog(tmp_path, fresh=False)
        assert [record.seq for record in log.records_after(0)] == [1, 2]

    def test_torn_tail_never_reuses_a_sequence_number(self, tmp_path):
        # The torn record may have carried seq 3 to a client before the
        # crash; the repaired log must not hand that number out again.
        self._torn_log(tmp_path, cut=5)
        log = WriteAheadLog(tmp_path, fresh=False)
        assert log.append("example_insert", {"id": 9, "label": True}, None) == 3

    def test_open_repairs_the_tip_so_rotation_keeps_it_readable(self, tmp_path):
        # Once repaired and rotated past, the segment is no longer the
        # newest — replay must still read it cleanly.
        self._torn_log(tmp_path, cut=5)
        log = WriteAheadLog(tmp_path, fresh=False)
        log.append("example_insert", {"id": 9, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 10, "label": True}, None)
        assert [record.seq for record in log.records_after(0)] == [1, 2, 3, 4]

    def test_partial_header_counts_as_fully_torn(self, tmp_path):
        # A crash during segment creation can leave fewer bytes than the
        # 8-byte header; the file is one torn tail and gets unlinked, but
        # its reserved first sequence number is still skipped.
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 2, "label": True}, None)
        log.close()
        newest = segments_of(tmp_path)[-1]
        newest.write_bytes(newest.read_bytes()[:3])

        survivor = WriteAheadLog(tmp_path, fresh=False)
        assert [record.seq for record in survivor.records_after(0)] == [1]
        assert survivor.append("example_insert", {"id": 3, "label": True}, None) == 3

    def test_torn_bytes_in_an_older_segment_raise(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.rotate()
        log.append("example_insert", {"id": 2, "label": True}, None)
        log.close()
        oldest = segments_of(tmp_path)[0]
        raw = oldest.read_bytes()
        oldest.write_bytes(raw[: len(raw) - 4])

        survivor = WriteAheadLog(tmp_path, fresh=False)
        with pytest.raises(SnapshotCorruptionError, match="not the newest"):
            survivor.records_after(0)

    def test_version_skew_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.close()
        segment = segments_of(tmp_path)[0]
        raw = segment.read_bytes()
        body = raw[len(wal_header()) :]
        segment.write_bytes(wal_header(WAL_VERSION + 3) + body)
        with pytest.raises(SnapshotVersionError, match="format version"):
            WriteAheadLog(tmp_path, fresh=False).records_after(0)

    def test_bit_flip_inside_a_record_is_a_torn_tail(self, tmp_path):
        # A CRC failure truncates replay at that record, exactly like a
        # short write — recovery keeps the prefix.
        log = WriteAheadLog(tmp_path)
        log.append("example_insert", {"id": 1, "label": True}, None)
        log.append("example_insert", {"id": 2, "label": True}, None)
        log.close()
        segment = segments_of(tmp_path)[0]
        raw = bytearray(segment.read_bytes())
        first_record = pack_wal_record(b"")  # just for sizing the fixed parts
        flip_at = len(raw) - 2
        assert flip_at > len(wal_header()) + len(first_record)
        raw[flip_at] ^= 0xFF
        segment.write_bytes(bytes(raw))
        log = WriteAheadLog(tmp_path, fresh=False)
        assert [record.seq for record in log.records_after(0)] == [1]


class TestMalformedRecords:
    """A record whose CRC holds but whose JSON is not a WAL record is corruption."""

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"seq":1,"kind":"entity_insert","row":{"x":1}}',
            b'{"kind":"entity_insert","row":null}',
            b'[1,"entity_insert",null,null]',
            b'{"seq":"one","kind":"entity_insert"}',
            b'{"seq":1,"kind":"entity_insert","row":{"row":[1,2,3]}}',
        ],
        ids=["row-not-wrapped", "no-seq", "list", "seq-not-a-number", "row-not-a-mapping"],
    )
    def test_a_record_that_passes_its_crc_but_is_malformed_names_its_segment(
        self, tmp_path, payload
    ):
        segment = tmp_path / f"wal-{1:016d}{SEGMENT_SUFFIX}"
        segment.write_bytes(wal_header() + pack_wal_record(payload))
        with pytest.raises(SnapshotCorruptionError, match="is not a WAL record") as excinfo:
            WriteAheadLog(tmp_path, fresh=False)
        assert segment.name in str(excinfo.value)

    def test_a_record_nested_too_deep_is_corruption_at_replay(self, tmp_path):
        # An older segment, so opening the log (which reads only the newest)
        # succeeds and replay is the first to parse the record.
        deep = b'{"seq":1,"kind":"entity_insert","row":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        older = tmp_path / f"wal-{1:016d}{SEGMENT_SUFFIX}"
        older.write_bytes(wal_header() + pack_wal_record(deep))
        newest = tmp_path / f"wal-{2:016d}{SEGMENT_SUFFIX}"
        newest.write_bytes(wal_header())
        log = WriteAheadLog(tmp_path, fresh=False)
        with pytest.raises(SnapshotCorruptionError, match="unparseable JSON") as excinfo:
            log.records_after(0)
        assert older.name in str(excinfo.value)


class TestServerSurfaces:
    def test_stats_and_metrics_expose_wal_counters(self, corpus, tmp_path):
        server = build_corpus_server(corpus[:40], wal=tmp_path / "wal")
        try:
            session = server.session()
            for doc in corpus[:5]:
                session.insert_example(doc.entity_id, doc.label)
            server.flush()
            stats = server.stats()
            assert stats["wal.appends_total"] == 5
            assert stats["wal.appended_bytes"] > 0
            assert "wal.segments" in stats
            assert "wal.rotations_total" in stats
        finally:
            server.close()

    def test_no_wal_means_no_wal_stats(self, corpus):
        server = build_corpus_server(corpus[:40])
        try:
            assert server.wal is None
            assert not any(key.startswith("wal") for key in server.stats())
        finally:
            server.close()
