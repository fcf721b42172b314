"""One validator for every ``WITH (...)`` a lifecycle verb takes.

``SERVE VIEW`` / ``RESTORE VIEW`` options (``HazyEngine._SERVER_OPTIONS``) and
``CHECKPOINT VIEW`` options (``HazyEngine._CHECKPOINT_OPTIONS``) go through
``HazyEngine._validated``; the cases below are generated from those two
tables — a value of the wrong type, one below the option's least value, an
empty string — so an option added to either is checked here without being
listed.  Beside them: an empty TO / FROM directory, and the removed batching,
queue and cache options.  Each case is issued twice — as SQL and through the
imperative ``serve`` / ``restore`` / ``checkpoint``, keyword for option — and
must be refused with the same message, leaving nothing in the directory given
or in the working directory an empty path would stand for.
"""

from __future__ import annotations

import re

import pytest

from repro.core.engine import HazyEngine
from repro.exceptions import ConfigurationError

from tests.db.test_sql_serving import build_portal

VIEW = "labeled_papers"
#: Stands for the test's own empty directory in a case's TO / FROM.
DIR = object()

#: kind -> values of the wrong type (a bool is never an integer).
WRONG = {int: ("many", True, 2.5), str: (3, True), bool: (1, "yes")}

TABLES = {
    "serve": (HazyEngine._SERVER_OPTIONS, "serving"),
    "restore": (HazyEngine._SERVER_OPTIONS, "serving"),
    "checkpoint": (HazyEngine._CHECKPOINT_OPTIONS, "checkpoint"),
}


def cases():
    """``(verb, target, options, message)``: ``target`` is the TO / FROM
    directory — ``DIR`` for an empty one the test creates, or a literal path."""
    for verb, (table, what) in TABLES.items():
        yield verb, DIR, {"bogus": 1}, f"unknown {what} option 'bogus'; known: {sorted(table)}"
        for name, (kind, wording, least) in table.items():
            for value in WRONG[kind]:
                yield verb, DIR, {name: value}, f"option {name!r} expects {wording}, got {value!r}"
            if least is not None:
                for value in dict.fromkeys((least - 1, -1)):
                    message = f"option {name!r} must be >= {least}, got {value!r}"
                    yield verb, DIR, {name: value}, message
            if kind is str:
                yield verb, DIR, {name: ""}, f"option {name!r} must not be empty"
    for verb in ("serve", "restore"):
        # A read round never waits and drains a fixed 64 keys, the write
        # queue's bound, a write round's size and a shard's result cache are
        # constants, and a server keeps no past models: nothing configures them.
        removed_options = (
            "max_wait_s",
            "adaptive_batching",
            "max_read_batch",
            "queue_capacity",
            "max_write_batch",
            "cache_capacity",
            "epoch_history",
        )
        for removed in removed_options:
            yield verb, DIR, {removed: 1}, f"unknown serving option {removed!r}"
    yield "checkpoint", DIR, {"parent": "/elsewhere"}, "'parent' requires incremental = true"
    yield "checkpoint", DIR, {"parent": "/elsewhere", "incremental": False}, "requires incremental"
    empty_parent = {"incremental": True, "parent": ""}
    yield "checkpoint", DIR, empty_parent, "option 'parent' must not be empty"
    yield "checkpoint", "", {}, "CHECKPOINT VIEW ... TO needs a directory, got ''"
    yield "restore", "", {}, "RESTORE VIEW ... FROM needs a directory, got ''"


def with_ids(rows) -> list:
    """Each ``(verb, target, options, message)`` row under an id built from the
    verb, each option and its value, and a literal path — never from the row's
    position, so removing an option removes only its own rows."""
    params = []
    for verb, target, options, message in rows:
        parts = [verb, *(f"{name}-{value!r}" for name, value in options.items())]
        if target is not DIR:
            parts.append(f"path-{target!r}")
        params.append(pytest.param(verb, target, options, message, id="-".join(parts)))
    return params


def literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"'{value}'" if isinstance(value, str) else repr(value)


@pytest.fixture(scope="module")
def portals():
    """An unserved view (SERVE and RESTORE must refuse before touching it) and
    a served one (CHECKPOINT validates its options only once it is served)."""
    idle_db, idle, _ = build_portal(count=20)
    live_db, live, _ = build_portal(count=20)
    live_db.execute(f"SERVE VIEW {VIEW} WITH (shards = 2)")
    yield {"serve": idle, "restore": idle, "checkpoint": live}
    live_db.execute(f"STOP SERVING {VIEW}")


def attempts(engine, verb: str, target: str, options: dict) -> dict:
    """``{"sql": ..., "imperative": ...}``: the statement issued both ways."""
    with_clause = ", ".join(f"{name} = {literal(value)}" for name, value in options.items())
    sql, call = {
        "serve": (f"SERVE VIEW {VIEW}", lambda: engine.serve(VIEW, **options)),
        "restore": (
            f"RESTORE VIEW {VIEW} FROM '{target}'",
            lambda: engine.restore(VIEW, target, **options),
        ),
        "checkpoint": (
            f"CHECKPOINT VIEW {VIEW} TO '{target}'",
            lambda: engine.checkpoint(VIEW, target, **options),
        ),
    }[verb]
    if with_clause:
        sql += f" WITH ({with_clause})"
    return {"sql": lambda: engine.database.execute(sql), "imperative": call}


@pytest.mark.parametrize("verb, target, options, message", with_ids(cases()))
def test_a_bad_option_is_refused_the_same_way_in_sql_and_imperatively(
    portals, tmp_path, monkeypatch, verb, target, options, message
):
    """Refused before anything is written — in the directory given, or, for
    an empty path, in the working directory it would stand for."""
    monkeypatch.chdir(tmp_path)
    engine = portals[verb]
    target = str(tmp_path) if target is DIR else target
    for attempt in attempts(engine, verb, target, options).values():
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            attempt()
    assert (engine.view(VIEW).server is None) == (verb != "checkpoint")
    assert not list(tmp_path.iterdir())


#: ``(verb, target, options, message)`` for every empty path; ``DIR`` is a
#: sibling of the working directory, which holds a checkpoint and a WAL.
EMPTY_PATHS = [
    ("serve", DIR, {"wal": ""}, "option 'wal' must not be empty"),
    ("restore", DIR, {"wal": ""}, "option 'wal' must not be empty"),
    ("restore", "", {}, "RESTORE VIEW ... FROM needs a directory, got ''"),
    ("checkpoint", "", {}, "CHECKPOINT VIEW ... TO needs a directory, got ''"),
    ("checkpoint", DIR, {"incremental": True, "parent": ""}, "option 'parent' must not be empty"),
]


@pytest.mark.parametrize("form", ["sql", "imperative"])
@pytest.mark.parametrize("verb, target, options, message", with_ids(EMPTY_PATHS))
def test_an_empty_path_never_stands_for_a_usable_working_directory(
    portals, tmp_path, monkeypatch, form, verb, target, options, message
):
    """With a real checkpoint and a stale WAL segment in the working
    directory, an empty path would find something there to restore from,
    to fall back on as a parent, to overwrite or to wipe: each is refused,
    and the directory is left byte for byte as it was."""
    cwd = tmp_path / "cwd"
    portals["checkpoint"].checkpoint(VIEW, str(cwd))
    (cwd / "wal-0000000000000001.hzl").write_bytes(b"stale segment")
    before = {path.name: path.read_bytes() for path in cwd.iterdir()}
    assert "MANIFEST.hzs" in before
    monkeypatch.chdir(cwd)
    engine = portals[verb]
    elsewhere = tmp_path / "elsewhere"
    target = str(cwd if verb == "restore" else elsewhere) if target is DIR else target
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        attempts(engine, verb, target, options)[form]()
    assert (engine.view(VIEW).server is None) == (verb != "checkpoint")
    assert {path.name: path.read_bytes() for path in cwd.iterdir()} == before
    assert not elsewhere.exists()


def test_a_nan_option_is_refused_imperatively(portals):
    """SQL has no NaN literal; a caller's dict can carry one, and it is no integer."""
    message = "option 'shards' expects an integer, got nan"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        portals["serve"].serve(VIEW, shards=float("nan"))
    assert portals["serve"].view(VIEW).server is None
