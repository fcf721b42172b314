"""Differential oracle for "one read path": unserved == 1 shard == 3 shards.

One seeded SQL program — point reads (known, unknown, wrong-typed and NULL
keys; keys that *equal* a stored key without being spelled like it —
``float(id)``, ``True`` — and near-misses that equal none — ``id + 0.5``,
``str(id)``), All Members for both classes and an unmappable one, key ranges
(plain, empty, inverted, float, NULL and incomparable bounds), ``SELECT *``,
``COUNT(*)``, ranked reads, the join with a view-side predicate, with none
(the batched probe lookup when served), with a pushed-down key range and
through a REAL probe column against the INTEGER view key, interleaved with
example inserts that move the model — runs through an unserved view (every
read answered by :class:`~repro.core.reads.DirectReads`), a 1-shard and a
3-shard served view (the connection's ``ClientSession`` on a ``ViewServer``).
Statement by statement the three must agree: rows as multisets, errors by
class and text, and every ``id`` an answer carries is the stored ``int``,
never an echo of the bound; every ``SELECT *`` must also equal
``view_contents`` computed from scratch under the model of the moment.  A
ranked read compares margins exactly and ids only above the cut — entities
tied at the k-th margin may be kept in a different order by different shard
layouts.

The seeds are fixed for the tier-1 run so failures reproduce; CI's
non-blocking job rotates one through ``READ_PATH_DIFFERENTIAL_SEED``.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import pytest

import repro
from repro.core.view import view_contents
from repro.exceptions import HazyError

from tests.db.test_sql_plan import PreFeaturizedColumn

#: Fixed defaults so tier-1 failures reproduce; the rotating-seed CI job draws one.
_DRAWN = os.environ.get("READ_PATH_DIFFERENTIAL_SEED")
SEEDS = [int(_DRAWN)] if _DRAWN else [20261002, 7, 411]

CONFIGURATIONS = {
    "mainmemory-eager": dict(architecture="mainmemory", strategy="hazy", approach="eager"),
    "hybrid-lazy": dict(architecture="hybrid", strategy="hazy", approach="lazy"),
}
VARIANTS = {"unserved": None, "1 shard": 1, "3 shards": 3}

ENTITIES = 48
STATEMENTS = 60
RANKED = "SELECT id, margin FROM labeled ORDER BY margin DESC LIMIT "
JOIN = "SELECT entities.id, tag, class FROM entities JOIN labeled ON entities.id = labeled.id"
REAL_JOIN = "SELECT probes.k, labeled.id, class FROM probes JOIN labeled ON probes.ref = labeled.id"


def corpus(rng: random.Random) -> list[tuple[int, dict[str, float], int]]:
    """``(id, features, label)``: separable on feature 0, distinct margins."""
    rows = []
    for entity_id in range(ENTITIES):
        label = 1 if entity_id % 3 else -1
        features = {"0": label * (0.25 + rng.random()), "1": rng.random(), "2": 0.5}
        rows.append((entity_id, features, label))
    return rows


def build(rows, shards: int | None, **engine_options):
    conn = repro.connect(**engine_options)
    conn.engine.registry.register("prefeaturized", PreFeaturizedColumn)
    conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, tag text, features text)")
    conn.execute("CREATE TABLE examples (k integer PRIMARY KEY, id integer, label integer)")
    conn.executemany(
        "INSERT INTO entities (id, tag, features) VALUES (?, ?, ?)",
        [(entity_id, f"t{entity_id % 4}", json.dumps(features)) for entity_id, features, _ in rows],
    )
    conn.executemany(
        "INSERT INTO examples (k, id, label) VALUES (?, ?, ?)",
        [(entity_id, entity_id, label) for entity_id, _, label in rows[: ENTITIES // 3]],
    )
    # A REAL column holding every key as a float, and a near-miss between each pair.
    conn.execute("CREATE TABLE probes (k integer PRIMARY KEY, ref float)")
    conn.executemany(
        "INSERT INTO probes (k, ref) VALUES (?, ?)",
        [(2 * entity_id + half, entity_id + half / 2) for entity_id, _, _ in rows for half in (0, 1)],
    )
    conn.execute(
        "CREATE CLASSIFICATION VIEW labeled KEY id ENTITIES FROM entities KEY id "
        "EXAMPLES FROM examples KEY id LABEL label FEATURE FUNCTION prefeaturized USING SVM"
    )
    if shards is not None:
        conn.execute(f"SERVE VIEW labeled WITH (shards = {shards})")
    return conn


def program(rng: random.Random, rows) -> list[tuple[str, tuple]]:
    """One of every statement shape, then seeded draws, shuffled together."""
    known = lambda: rng.randrange(ENTITIES)  # noqa: E731
    example_keys = iter(range(1000, 1000 + STATEMENTS))

    def example() -> tuple:
        """An example row; one in four mislabelled, so the model keeps moving."""
        entity_id, _, label = rng.choice(rows)
        return next(example_keys), entity_id, label * rng.choice((1, 1, 1, -1))

    shapes = {
        "point known": lambda: ("SELECT id, class FROM labeled WHERE id = ?", (known(),)),
        "point unknown": lambda: ("SELECT class FROM labeled WHERE id = ?", (ENTITIES + known(),)),
        "point wrong type": lambda: ("SELECT class FROM labeled WHERE id = ?", ("abc",)),
        "point null": lambda: ("SELECT class FROM labeled WHERE id = ?", (None,)),
        "point equal float": lambda: (
            "SELECT id, class FROM labeled WHERE id = ?", (float(known()),)
        ),
        "point equal bool": lambda: (
            "SELECT id, class FROM labeled WHERE id = ?", (rng.choice((True, False)),)
        ),
        "point near-miss float": lambda: (
            "SELECT id, class FROM labeled WHERE id = ?", (known() + 0.5,)
        ),
        "point near-miss text": lambda: (
            "SELECT id, class FROM labeled WHERE id = ?", (str(known()),)
        ),
        "members": lambda: ("SELECT id FROM labeled WHERE class = ?", (rng.choice((1, -1)),)),
        "members unmappable": lambda: ("SELECT id FROM labeled WHERE class = ?", ("maybe",)),
        "range": lambda: (
            "SELECT id FROM labeled WHERE class = ? AND id >= ? AND id < ?",
            (rng.choice((1, -1)), known() // 2, ENTITIES // 2 + known() // 2),
        ),
        "range empty": lambda: (
            "SELECT id FROM labeled WHERE class = 1 AND id > ?", (ENTITIES + known(),)
        ),
        "range inverted": lambda: (
            "SELECT id FROM labeled WHERE class = -1 AND id >= ? AND id <= ?", (30, 10)
        ),
        "range float bounds": lambda: (
            "SELECT id FROM labeled WHERE class = ? AND id >= ? AND id < ?",
            (rng.choice((1, -1)), float(known() // 2), ENTITIES // 2 + known() // 2 + 0.5),
        ),
        "range null bound": lambda: (
            "SELECT id FROM labeled WHERE class = 1 AND id >= ?", (None,)
        ),
        "range incomparable": lambda: (
            "SELECT id FROM labeled WHERE class = ? AND id >= ?", (rng.choice((1, -1)), "abc")
        ),
        "range incomparable bounds": lambda: (
            "SELECT id FROM labeled WHERE class = 1 AND id >= ? AND id >= ?", (3, "abc")
        ),
        "contents": lambda: ("SELECT * FROM labeled", ()),
        "count": lambda: ("SELECT COUNT(*) FROM labeled", ()),
        "count members": lambda: (
            "SELECT COUNT(*) FROM labeled WHERE class = ?", (rng.choice((1, -1)),)
        ),
        "ranked": lambda: (RANKED + str(rng.choice((1, 3, 7, ENTITIES + 5))), ()),
        "join members": lambda: (JOIN + " WHERE class = ?", (rng.choice((1, -1)),)),
        "join probe": lambda: (JOIN, ()),
        "join probe, table predicate": lambda: (JOIN + " WHERE entities.id <= ?", (known(),)),
        "join range": lambda: (JOIN + " WHERE class = 1 AND labeled.id >= ?", (known(),)),
        "join real probe": lambda: (REAL_JOIN, ()),
        "join real probe, table predicate": lambda: (
            REAL_JOIN + " WHERE probes.ref <= ?", (known() + 0.25,)
        ),
        "example": lambda: ("INSERT INTO examples (k, id, label) VALUES (?, ?, ?)", example()),
    }
    names = list(shapes)
    weights = [4 if name in ("example", "ranked", "contents") else 1 for name in names]
    drawn = names + rng.choices(names, weights, k=STATEMENTS - len(names))
    rng.shuffle(drawn)
    return [shapes[name]() for name in drawn]


def answer(conn, sql: str, parameters: tuple):
    """``("rows", multiset)``, ``("ranked", ...)`` or ``("error", class, text)``."""
    try:
        rows = conn.execute(sql, parameters).fetchall()
    except HazyError as error:
        return ("error", type(error).__name__, str(error))
    if sql.startswith(RANKED):
        margins = [row["margin"] for row in rows]
        above_cut = sorted(row["id"] for row in rows if row["margin"] > min(margins))
        return ("ranked", margins, above_cut)
    # (1.0 == 1 and the multisets below would not tell them apart.)
    assert all(type(row["id"]) is int for row in rows if "id" in row), (sql, parameters, rows)
    return ("rows", Counter(tuple(sorted(row.items(), key=repr)) for row in rows))


def draw(seed: int):
    """The seed's corpus and program."""
    rng = random.Random(seed)
    rows = corpus(rng)
    return rows, program(rng, rows)


def run(seed: int, shards: int | None, **engine_options) -> list:
    rows, statements = draw(seed)
    conn = build(rows, shards, **engine_options)
    try:
        view = conn.engine.view("labeled")
        entities = view.entity_snapshot()
        answers = []
        for sql, parameters in statements:
            got = answer(conn, sql, parameters)
            if sql == "SELECT * FROM labeled":
                scratch = view_contents(entities, view.model)
                assert got == ("rows", Counter((("class", c), ("id", i)) for i, c in scratch.items()))
            answers.append(got)
        return answers
    finally:
        conn.close()


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_reader_answers_the_same_program_the_same_way(seed, configuration):
    context = f"READ_PATH_DIFFERENTIAL_SEED={seed}"
    _, statements = draw(seed)
    runs = {
        variant: run(seed, shards, **CONFIGURATIONS[configuration])
        for variant, shards in VARIANTS.items()
    }
    for variant in ("1 shard", "3 shards"):
        for step, (direct, served) in enumerate(zip(runs["unserved"], runs[variant])):
            assert served == direct, f"{context}: {variant}, statement {step}: {statements[step]}"
    # The oracle has teeth: rows, refusals, both classes and distinct margins.
    kinds = Counter(got[0] for got in runs["unserved"])
    assert kinds["rows"] and kinds["error"] and kinds["ranked"], context
    assert any(
        got[0] == "rows" and len({dict(row).get("class") for row in got[1]}) == 2
        for got in runs["unserved"]
    ), context
    assert any(got[0] == "ranked" and len(set(got[1])) > 1 for got in runs["unserved"]), context


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_bound_that_equals_a_stored_key_finds_it_and_answers_with_the_stored_key(variant):
    """ROADMAP 1(c): ``float(i)`` routed apart from ``i`` on 3 shards (20 of 48
    found) and the unserved answer echoed the bound (``{'id': 1.0}``)."""
    rows, _ = draw(SEEDS[0])
    conn = build(rows, VARIANTS[variant], **CONFIGURATIONS["mainmemory-eager"])
    try:
        point = "SELECT id, class FROM labeled WHERE id = ?"
        expected = {row["id"]: row["class"] for row in conn.execute("SELECT * FROM labeled")}
        assert len(expected) == ENTITIES
        for entity_id in range(ENTITIES):
            found = conn.execute(point, (float(entity_id),)).fetchall()
            assert found == [{"id": entity_id, "class": expected[entity_id]}], entity_id
            assert type(found[0]["id"]) is int
            assert conn.execute(point, (entity_id + 0.5,)).fetchall() == []
            assert conn.execute(point, (str(entity_id),)).fetchall() == []
        found = conn.execute("SELECT id, class FROM labeled WHERE id = true").fetchall()
        assert found == [{"id": 1, "class": expected[1]}] and type(found[0]["id"]) is int
        joined = conn.execute(REAL_JOIN).fetchall()
        assert sorted(row["id"] for row in joined) == list(range(ENTITIES))
        assert all(type(row["id"]) is int and row["k"] == 2 * row["id"] for row in joined)
    finally:
        conn.close()


def test_shard_index_is_the_function_existing_checkpoints_were_routed_by():
    """The fix types the bound; it must not touch the router (that would
    re-route the float- and bool-keyed entities of every existing checkpoint)."""
    import zlib

    from repro.serve.sharding import shard_index

    for key in (0, 1, 47, -3, 2**70, 1.0, 3.5, True, False, None, "1", "abc", ("a", 1)):
        for shards in (1, 2, 3, 4, 7):
            assert shard_index(key, shards) == zlib.crc32(repr(key).encode("utf-8")) % shards
    assert [shard_index(key, 3) for key in (1, 1.0, True, "1")] == [2, 0, 0, 0]
    apart = [i for i in range(1, 49) if shard_index(float(i), 3) != shard_index(i, 3)]
    assert len(apart) == 28
