"""The pushed-down shard range operator and the batched join-lookup read."""

from __future__ import annotations

import pytest

from repro.db.types import KeyRange
from repro.exceptions import MaintenanceError

from tests.conftest import net_of_statements
from tests.serve.conftest import build_corpus_server, entity_row


def in_range(key, key_range):
    """The expected membership, spelled out without ``KeyRange.contains``."""
    low, high = key_range.low, key_range.high
    if low is not None and (key < low or (key == low and not key_range.include_low)):
        return False
    if high is not None and (key > high or (key == high and not key_range.include_high)):
        return False
    return True


class TestRangeScan:
    def test_matches_post_filtered_all_members(self, corpus_server):
        members = set(corpus_server.all_members(1))
        assert members  # the fixture trains a model that splits the corpus
        ids = sorted(members)
        low, high = ids[len(ids) // 4], ids[3 * len(ids) // 4]
        for key_range in (
            KeyRange(low=low),
            KeyRange(high=high),
            KeyRange(low=low, high=high),
            KeyRange(low=low, include_low=False),
            KeyRange(low=low, high=high, include_high=False),
        ):
            got = corpus_server.range_scan(1, key_range)
            assert sorted(got) == sorted(
                m for m in members if in_range(m, key_range)
            ), key_range

    def test_negative_class_and_empty_range(self, corpus_server):
        negatives = set(corpus_server.all_members(-1))
        got = corpus_server.range_scan(-1, KeyRange(low=0))
        assert sorted(got) == sorted(m for m in negatives if m >= 0)
        assert corpus_server.range_scan(1, KeyRange(low=10, high=5)) == []

    def test_session_range_scan_waits_for_writes(self, serve_corpus):
        server = build_corpus_server(serve_corpus[:120], shards=2)
        try:
            session = server.session()
            doc = serve_corpus[121]
            session.insert_entity(entity_row(doc.entity_id, doc.features))
            session.insert_example(doc.entity_id, doc.label)
            members = session.range_scan(
                doc.label, KeyRange(low=doc.entity_id, high=doc.entity_id)
            )
            # Read-your-writes: the freshly inserted entity is classified and,
            # if it landed in the class, visible to the range read.
            assert session.last_epoch >= 1
            assert members in ([doc.entity_id], [])
            if server.label_of(doc.entity_id) == doc.label:
                assert members == [doc.entity_id]
        finally:
            server.close(timeout=30)

    def test_range_scan_cheaper_than_contents(self, corpus_server):
        """Net of statement dispatch, which both reads pay once per shard."""
        ids = sorted(corpus_server.all_members(1))
        low = ids[len(ids) // 2]
        start = net_of_statements(corpus_server)
        corpus_server.range_scan(1, KeyRange(low=low))
        pushed = net_of_statements(corpus_server) - start
        start = net_of_statements(corpus_server)
        corpus_server.contents()
        materialized = net_of_statements(corpus_server) - start
        assert pushed * 2 <= materialized


class TestLabelsOf:
    def test_batched_lookup_drops_unknown_ids(self, corpus_server):
        known = [doc_id for doc_id, _ in list(corpus_server.contents().items())[:40]]
        labels = corpus_server.labels_of(known + ["nope", "missing"])
        assert set(labels) == set(known)
        contents = corpus_server.contents()
        assert all(labels[key] == contents[key] for key in known)

    def test_session_labels_of_is_monotonic(self, serve_corpus):
        server = build_corpus_server(serve_corpus[:120], shards=2)
        try:
            session = server.session()
            doc = serve_corpus[121]
            session.insert_entity(entity_row(doc.entity_id, doc.features))
            labels = session.labels_of([doc.entity_id, serve_corpus[0].entity_id])
            assert doc.entity_id in labels  # waited for the pending write
            watermark = session.last_epoch
            assert watermark >= 1
            session.labels_of([serve_corpus[1].entity_id])
            assert session.last_epoch >= watermark
        finally:
            server.close(timeout=30)

    def test_all_unknown_ids_leave_the_session_watermark_alone(self, corpus_server):
        session = corpus_server.session()
        session.label_of(next(iter(corpus_server.contents())))
        watermark = session.last_epoch
        assert session.labels_of(["ghost-1", "ghost-2"]) == {}
        assert session.last_epoch == watermark  # epoch 0 result must not regress it


class TestMaintainerReadRange:
    def test_requires_loaded(self):
        from repro.core.maintainers import HazyEagerMaintainer
        from repro.core.stores import InMemoryEntityStore

        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        with pytest.raises(MaintenanceError):
            maintainer.read_range(1, KeyRange(low=0))

    def test_lazy_range_read_prunes_by_band(self, serve_corpus):
        """The lazy strategy answers range reads from the band-pruned scan."""
        from repro.core.maintainers import HazyLazyMaintainer
        from repro.core.stores import InMemoryEntityStore
        from tests.serve.conftest import warm_trainer_for

        corpus = serve_corpus[:150]
        trainer = warm_trainer_for(corpus)
        maintainer = HazyLazyMaintainer(InMemoryEntityStore(feature_norm_q=1.0))
        maintainer.bulk_load(
            [(doc.entity_id, doc.features) for doc in corpus], trainer.model
        )
        members = set(maintainer.read_all_members(1))
        ids = sorted(members)
        low = ids[len(ids) // 3]
        got = maintainer.read_range(1, KeyRange(low=low))
        assert sorted(got) == sorted(m for m in members if m >= low)
        assert maintainer.stats.range_reads == 1
