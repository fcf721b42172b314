"""Every reader x every read: the conformance table for "one read path".

``ClassificationView.reader()`` hands out one of three readers —
:class:`~repro.core.reads.DirectReads` (unserved), the
:class:`~repro.serve.server.ViewServer`, or a connection's
:class:`~repro.serve.server.ClientSession` on it — and the plan nodes call the
six :data:`~repro.core.reads.READS` on whichever they get.  So each reader must
answer each read, with one signature, and agree with ``view_contents`` computed
from scratch; and each reader the *planner* can be handed must price every
name in :data:`~repro.core.reads.ESTIMATES`.  A closed server refuses all six
with the documented error, on the server handle and on a session alike.

The charge table holds every read to one rule, in every cell of the matrix,
unserved and on 2 shards: one ``statement`` charge per store it touches, and
what it charges net of dot products (which no estimate prices) at most its
estimate — exactly its estimate on main memory wherever no band can narrow
the read (the naive strategies, point reads).
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.core.maintainers import MAINTAINERS
from repro.core.reads import ESTIMATES, READS, DirectReads
from repro.core.stores import STORES
from repro.core.view import view_contents
from repro.db.buffer_pool import IOStatistics
from repro.db.types import KeyRange
from repro.exceptions import HazyError, MaintenanceError
from repro.net.protocol import decode_error, encode_error
from repro.serve import ClientSession, SessionRegistry, ViewServer
from repro.serve.sharding import shard_index

from tests.serve.test_read_path_differential import ENTITIES, build, corpus

READERS = ("DirectReads", "ViewServer", "ClientSession")


def portal(**engine_options):
    """The differential's fixed corpus: both classes, distinct margins, unserved."""
    return build(corpus(random.Random(0)), None, **engine_options)


@pytest.fixture(params=["mainmemory/eager", "hybrid/lazy"])
def conn(request):
    architecture, approach = request.param.split("/")
    conn = portal(architecture=architecture, strategy="hazy", approach=approach)
    yield conn
    conn.close()


@pytest.fixture
def plain():
    """The default engine (Hazy-MM eager), unserved."""
    conn = portal()
    yield conn
    conn.close()


def reader_of(conn, name: str):
    """The reader called ``name``, handed out by the view itself."""
    view = conn.engine.view("labeled")
    if name != "DirectReads":
        conn.execute("SERVE VIEW labeled WITH (shards = 2)")
    reader = view.reader(SessionRegistry() if name == "ClientSession" else None)
    assert type(reader).__name__ == name
    return reader


def test_the_reader_classes_are_the_three_the_view_hands_out():
    for cls in (DirectReads, ViewServer, ClientSession):
        assert cls.__name__ in READERS
        for read in READS:
            assert callable(getattr(cls, read)), f"{cls.__name__}.{read}"
    # One signature per read, whoever answers it.
    for read in READS:
        signatures = {
            tuple(
                (parameter.name, parameter.default)
                for parameter in inspect.signature(getattr(cls, read)).parameters.values()
            )
            for cls in (DirectReads, ViewServer, ClientSession)
        }
        assert len(signatures) == 1, (read, signatures)


@pytest.mark.parametrize("name", READERS)
def test_every_reader_answers_every_read_like_view_contents(conn, name):
    view = conn.engine.view("labeled")
    entities = view.entity_snapshot()
    truth = view_contents(entities, view.model)
    assert set(truth.values()) == {1, -1}, "fixture must split into both classes"
    margins = {entity_id: view.model.margin(features) for entity_id, features in entities}
    reader = reader_of(conn, name)

    answered = {
        "label_of": {entity_id: reader.label_of(entity_id) for entity_id in truth},
        "labels_of": reader.labels_of([*truth, "ghost", ENTITIES + 1]),
        "contents": reader.contents(),
    }
    assert answered == dict.fromkeys(answered, truth)
    for label in (1, -1):
        members = sorted(entity_id for entity_id, got in truth.items() if got == label)
        assert sorted(reader.all_members(label)) == members
        assert sorted(reader.range_scan(label, KeyRange(5, 20, True, False))) == [
            entity_id for entity_id in members if 5 <= entity_id < 20
        ]
        assert sorted(reader.range_scan(label, KeyRange(low=30))) == [
            i for i in members if i >= 30
        ]
        ranked = sorted(margins.items(), key=lambda pair: pair[1], reverse=label == 1)[:5]
        assert reader.top_k(5, label) == ranked
        assert reader.top_k(0, label) == []
    assert set(answered) | {"all_members", "range_scan", "top_k"} == set(READS)


@pytest.mark.parametrize("name", ["DirectReads", "ViewServer"])
def test_every_reader_the_planner_is_handed_prices_every_read(conn, name):
    reader = reader_of(conn, name)
    assert reader.served is (name == "ViewServer")
    assert reader.fanout == (2 if reader.served else 1)
    ledgers = reader.ledgers()
    assert isinstance(ledgers, tuple) and ledgers
    assert all(isinstance(ledger, IOStatistics) for ledger in ledgers)
    assert sum(ledger.simulated_seconds for ledger in ledgers) > 0.0
    for operation in ESTIMATES:
        estimate = reader.estimate(operation)
        assert isinstance(estimate, float) and estimate > 0.0, operation
    assert set(ESTIMATES) < set(READS)
    with pytest.raises(ValueError, match="no estimate"):
        reader.estimate("labels_of")  # sized by the join's probe side, unknown at plan time


SIX_READS = {
    "label_of": (3,),
    "labels_of": ([3, 4],),
    "all_members": (1,),
    "range_scan": (1, KeyRange(2, 9)),
    "top_k": (3,),
    "contents": (),
}


@pytest.mark.parametrize("handle", ["server", "session"])
def test_every_read_on_a_closed_server_raises_the_documented_error(plain, handle):
    """``STOP SERVING`` used to leak the thread pools' ``RuntimeError``s to a
    handle taken before it; being a ``HazyError`` the refusal now also crosses
    the wire as itself instead of ``InternalError``."""
    assert set(SIX_READS) == set(READS)
    plain.execute("SERVE VIEW labeled WITH (shards = 2)")
    server = plain.engine.view("labeled").server
    reader = server if handle == "server" else plain.session("labeled")
    assert reader.label_of(3) in (1, -1)
    plain.execute("STOP SERVING labeled")
    for read, arguments in SIX_READS.items():
        with pytest.raises(MaintenanceError, match="^server is closed$") as raised:
            getattr(reader, read)(*arguments)
        assert isinstance(raised.value, HazyError)
        rebuilt = decode_error(encode_error(raised.value))
        assert type(rebuilt) is MaintenanceError and str(rebuilt) == "server is closed"
    # The view itself answers again, from its own maintainer.
    assert plain.execute("SELECT class FROM labeled WHERE id = 3").scalar() in (1, -1)


@pytest.mark.parametrize("read", ["label_of", "labels_of"])
def test_a_point_read_racing_close_answers_from_the_last_epoch(plain, read):
    """A point read that passes the closed check while ``close()`` runs either
    answers from the last published epoch or raises the documented
    ``MaintenanceError`` — never a ``RuntimeError`` of the batcher's."""
    plain.execute("SERVE VIEW labeled WITH (shards = 2)")
    server = plain.engine.view("labeled").server
    expected = server.read(read, *SIX_READS[read])
    batcher = server.batcher
    entry = "read" if read == "label_of" else "read_many"
    delegate = getattr(batcher, entry)

    def close_first(*args):
        server.close()
        return delegate(*args)

    setattr(batcher, entry, close_first)
    try:
        answer = server.read(read, *SIX_READS[read])
    except MaintenanceError as error:
        assert str(error) == "server is closed"
    else:
        assert answer == expected
        assert answer[1] == server.published.epoch
    assert plain.engine.view("labeled").server is None


class TestRankedReadNeedsNoServer:
    SQL = "SELECT id, margin FROM labeled ORDER BY margin DESC LIMIT 5"

    def test_unserved_answer_agrees_with_one_and_three_shards(self, plain):
        unserved = plain.execute(self.SQL).fetchall()
        ranked = plain.engine.view("labeled").maintainer.top_k(5, 1)
        assert [(row["id"], row["margin"]) for row in unserved] == ranked
        assert len({row["margin"] for row in unserved}) == 5, "fixture margins are distinct"
        for shards in (1, 3):
            plain.execute(f"SERVE VIEW labeled WITH (shards = {shards})")
            assert plain.execute(self.SQL).fetchall() == unserved
            plain.execute("STOP SERVING labeled")
        assert plain.execute(self.SQL).fetchall() == unserved

    def test_a_limit_of_zero_is_no_rows_served_or_not(self, plain):
        """``LIMIT 0`` used to reach an empty heap and raise a raw ``IndexError``."""
        zero = self.SQL.replace("LIMIT 5", "LIMIT 0")
        assert plain.execute(zero).fetchall() == []
        for shards in (1, 2):
            plain.execute(f"SERVE VIEW labeled WITH (shards = {shards})")
            assert plain.execute(zero).fetchall() == []
            plain.execute("STOP SERVING labeled")

    def test_unserved_plan_is_priced(self, plain):
        leaf = plain.execute(f"EXPLAIN {self.SQL}").fetchall()[-1]
        assert leaf["node"].strip() == "TopK(k=5, by=margin desc)"
        assert leaf["estimated_seconds"] > 0.0
        assert "served" not in leaf["detail"].replace("not served", "")


CELLS = [
    (architecture, strategy, approach)
    for architecture in STORES
    for strategy, approach in MAINTAINERS
]
#: The charge table's reads and their arguments; ``labels_of`` is counted, not priced.
CHARGED_READS = {
    "label_of": (7,),
    "all_members": (1,),
    "range_scan": (1, KeyRange(5, 20, True, False)),
    "top_k": (5,),
    "contents": (),
    "labels_of": ([30, 31, 32, 33],),
}


def stores_touched(read: str, arguments: tuple, shards: int | None) -> list[int]:
    """Statements each ledger should see: one per store the read touches."""
    if shards is None:
        return [1]
    if read == "label_of":
        owners = {shard_index(arguments[0], shards)}
    elif read == "labels_of":
        owners = {shard_index(key, shards) for key in arguments[0]}
    else:
        owners = set(range(shards))
    return [int(index in owners) for index in range(shards)]


@pytest.mark.parametrize("shards", [None, 2], ids=["unserved", "2-shards"])
@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_every_read_charges_one_statement_per_store_and_at_most_its_estimate(cell, shards):
    architecture, strategy, approach = cell
    conn = portal(architecture=architecture, strategy=strategy, approach=approach)
    try:
        reader = reader_of(conn, "DirectReads" if shards is None else "ViewServer")
        overhead = conn.engine.view("labeled").maintainer.store.cost_model.statement_overhead
        ledgers = reader.ledgers()
        assert set(CHARGED_READS) == set(ESTIMATES) | {"labels_of"}
        failures = []
        for read, arguments in CHARGED_READS.items():
            estimate = reader.estimate(read) if read in ESTIMATES else None
            before = [ledger.snapshot() for ledger in ledgers]
            getattr(reader, read)(*arguments)
            charged = [ledger.diff(earlier) for ledger, earlier in zip(ledgers, before)]
            statements = [round(d.detail.get("statement", 0.0) / overhead) for d in charged]
            net = sum(d.simulated_seconds - d.detail.get("dot_product", 0.0) for d in charged)
            row = f"{read}: statements {statements}, net {net:.6g} s, estimate {estimate}"
            if statements != stores_touched(read, arguments, shards):
                failures.append(f"{row} -- one statement per store touched")
            if estimate is None:
                continue
            if net > estimate * (1 + 1e-9):
                failures.append(f"{row} -- above its estimate")
            exact = architecture == "mainmemory" and (strategy == "naive" or read == "label_of")
            if exact and net != pytest.approx(estimate, rel=1e-9):
                failures.append(f"{row} -- not its estimate")
        assert not failures, "\n".join(failures)
    finally:
        conn.close()
