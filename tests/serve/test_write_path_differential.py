"""Differential oracle for "one write path": unserved == served, write for write.

The same SQL stream — all six write kinds plus writes that must be refused
(an example for an entity that does not exist, a replacement pointing at one,
an example for an entity that was deleted) — runs through an unserved view
(every write applied inline by the trigger body) and through a served 1-shard
view (every write through ``submit`` → queue → maintenance worker).  After
every statement the two must agree on whether the write was refused, and with
which error; at the end on the view's contents, on the retained examples, and
on the model **as bits** — SGD is order- and step-count-sensitive, so any
divergence in what either path retained, forgot or retrained on shows up in
the last bit of a weight.

The seed is fixed for the tier-1 run so failures reproduce; CI's non-blocking
job rotates it through ``WRITE_PATH_DIFFERENTIAL_SEED`` to keep exploring.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro import Database, HazyEngine
from repro.exceptions import HazyError
from repro.workloads.synth_text import SparseCorpusGenerator

#: Fixed default so tier-1 failures reproduce; the rotating-seed CI job varies it.
SEED = int(os.environ.get("WRITE_PATH_DIFFERENTIAL_SEED", "20261002"))

ENTITIES = 40
STATEMENTS = 120

CORPUS = SparseCorpusGenerator(
    vocabulary_size=200, nonzeros_per_document=10, positive_fraction=0.4, seed=5
).generate_list(ENTITIES + STATEMENTS)


def build(approach: str):
    db = Database()
    db.execute("CREATE TABLE papers (id INT PRIMARY KEY, title TEXT)")
    db.execute("CREATE TABLE ex (k INT PRIMARY KEY, id INT, label INT)")
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in CORPUS[:ENTITIES]],
    )
    engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach=approach)
    db.execute(
        "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM papers KEY id "
        "EXAMPLES FROM ex KEY id LABEL label FEATURE FUNCTION tf_idf_bag_of_words USING SVM"
    )
    return db, engine.view("v"), engine


def fixed_stream() -> list[tuple[str, tuple]]:
    """The stream of the issue: a bad replacement, an orphan row and its rescue."""
    ids = [doc.entity_id for doc in CORPUS]
    stream = [
        ("INSERT INTO ex (k, id, label) VALUES (?, ?, ?)", (k, ids[k], 1 if k % 2 else -1))
        for k in range(1, 13)
    ]
    return stream + [
        ("INSERT INTO papers (id, title) VALUES (?, ?)", (9001, CORPUS[50].text)),
        ("UPDATE papers SET title = ? WHERE id = ?", (CORPUS[51].text, ids[5])),
        ("DELETE FROM papers WHERE id = ?", (ids[30],)),
        ("UPDATE ex SET label = -1 WHERE k = ?", (3,)),
        ("DELETE FROM ex WHERE k = ?", (4,)),
        ("UPDATE ex SET id = 4242 WHERE k = ?", (7,)),  # bad replacement
        ("INSERT INTO ex (k, id, label) VALUES (?, ?, ?)", (20, 4243, 1)),  # orphan row
        ("UPDATE ex SET id = ? WHERE k = ?", (ids[15], 20)),  # ...never retained
        ("INSERT INTO ex (k, id, label) VALUES (?, ?, ?)", (21, 4244, 1)),
        ("INSERT INTO ex (k, id, label) VALUES (?, ?, ?)", (22, ids[30], 1)),  # deleted entity
        ("DELETE FROM ex WHERE k = ?", (9,)),
    ]


def random_stream(rng: random.Random) -> list[tuple[str, tuple]]:
    """A seeded stream over all six kinds; about one write in six must be refused."""
    live = [doc.entity_id for doc in CORPUS[:ENTITIES]]
    fresh = iter(CORPUS[ENTITIES:])
    rows: list[int] = []  # keys of the example rows in the table, retained or not
    stream: list[tuple[str, tuple]] = []

    def some_entity() -> int:
        return 100_000 + rng.randrange(50) if rng.random() < 0.15 else rng.choice(live)

    for _ in range(STATEMENTS):
        kind = rng.choices(
            ["example_insert", "example_update", "example_delete", "entity_insert",
             "entity_update", "entity_delete"],
            weights=[8, 4, 3, 2, 2, 1],
        )[0]
        if kind == "example_insert" or (kind.startswith("example") and not rows):
            key = len(stream)
            rows.append(key)
            stream.append(
                ("INSERT INTO ex (k, id, label) VALUES (?, ?, ?)",
                 (key, some_entity(), rng.choice((-1, 1))))
            )
        elif kind == "example_update":
            if rng.random() < 0.5:
                stream.append(
                    ("UPDATE ex SET label = ? WHERE k = ?", (rng.choice((-1, 1)), rng.choice(rows)))
                )
            else:
                stream.append(("UPDATE ex SET id = ? WHERE k = ?", (some_entity(), rng.choice(rows))))
        elif kind == "example_delete":
            stream.append(("DELETE FROM ex WHERE k = ?", (rows.pop(rng.randrange(len(rows))),)))
        elif kind == "entity_insert":
            doc = next(fresh)
            live.append(doc.entity_id)
            stream.append(("INSERT INTO papers (id, title) VALUES (?, ?)", (doc.entity_id, doc.text)))
        elif kind == "entity_update":
            stream.append(
                ("UPDATE papers SET title = ? WHERE id = ?", (next(fresh).text, rng.choice(live)))
            )
        elif len(live) > 5:
            victim = live.pop(rng.randrange(len(live)))
            stream.append(("DELETE FROM papers WHERE id = ?", (victim,)))
    return stream


def run(stream, approach: str, served: bool):
    """Each write's ``(refusal, contents after it)``, then the final write-side state."""
    db, view, engine = build(approach)
    server = engine.serve("v", shards=1) if served else None
    trajectory: list[tuple[str | None, dict]] = []
    try:
        for sql, parameters in stream:
            refusal = None
            try:
                db.execute(sql, parameters)
                if served:
                    server.take_session_ticket().wait(30)
            except HazyError as error:
                refusal = f"{type(error).__name__}: {error}"
            trajectory.append(
                (refusal, server.contents() if served else view.maintainer.contents())
            )
    finally:
        if served:
            server.close(timeout=30)
    # The hand-back leaves the direct maintainer where the shards were.
    assert view.maintainer.contents() == trajectory[-1][1]
    model = view.model
    state = (
        Counter((example.entity_id, example.label) for example in view.writer.examples),
        {index: value.hex() for index, value in model.weights.items()},
        model.bias.hex(),
        model.version,
    )
    return trajectory, state


@pytest.mark.parametrize("approach", ["eager", "lazy"])
@pytest.mark.parametrize("stream_name", ["fixed", "random"])
def test_unserved_and_served_views_are_the_same_view(stream_name, approach):
    stream = fixed_stream() if stream_name == "fixed" else random_stream(random.Random(SEED))
    inline_trajectory, inline_state = run(stream, approach, served=False)
    served_trajectory, served_state = run(stream, approach, served=True)
    context = f"WRITE_PATH_DIFFERENTIAL_SEED={SEED}"
    for step, (inline, served) in enumerate(zip(inline_trajectory, served_trajectory)):
        assert served == inline, f"{context}: statement {step}: {stream[step]}"
    refusals = [refusal for refusal, _ in inline_trajectory]
    assert any(refusals) and not all(refusals), context
    # The oracle has teeth: somewhere along the way the view held both classes.
    assert any(len(set(contents.values())) == 2 for _, contents in inline_trajectory), context
    assert served_state == inline_state, context
