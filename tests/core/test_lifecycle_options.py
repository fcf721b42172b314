"""One validator for every ``WITH (...)`` a lifecycle verb takes.

``SERVE VIEW`` / ``RESTORE VIEW`` options (``HazyEngine._SERVER_OPTIONS``) and
``CHECKPOINT VIEW`` options (``HazyEngine._CHECKPOINT_OPTIONS``) go through
``HazyEngine._validated``; the cases below are generated from those two
tables — a value of the wrong type, and one below the option's least value —
so an option added to either is checked here without being listed, and each
case is issued twice — as SQL and through the imperative ``serve`` /
``restore`` / ``checkpoint``, keyword for option — and must be refused with
the same message.
"""

from __future__ import annotations

import re

import pytest

from repro.core.engine import HazyEngine
from repro.exceptions import ConfigurationError

from tests.db.test_sql_serving import build_portal

VIEW = "labeled_papers"

#: kind -> values of the wrong type (a bool is never an integer or a number).
WRONG = {int: ("many", True, 2.5), float: ("soon", False), str: (3, True), bool: (1, "yes")}

TABLES = {
    "serve": (HazyEngine._SERVER_OPTIONS, "serving"),
    "restore": (HazyEngine._SERVER_OPTIONS, "serving"),
    "checkpoint": (HazyEngine._CHECKPOINT_OPTIONS, "checkpoint"),
}


def cases():
    for verb, (table, what) in TABLES.items():
        yield verb, {"bogus": 1}, f"unknown {what} option 'bogus'; known: {sorted(table)}"
        for name, (kind, wording, least) in table.items():
            for value in WRONG[kind]:
                yield verb, {name: value}, f"option {name!r} expects {wording}, got {value!r}"
            if least is not None:
                for value in dict.fromkeys((least - 1, -1)):
                    yield verb, {name: value}, f"option {name!r} must be >= {least}, got {value!r}"
    yield "checkpoint", {"parent": "/elsewhere"}, "'parent' requires incremental = true"
    yield "checkpoint", {"parent": "/elsewhere", "incremental": False}, "requires incremental"
    for verb in ("serve", "restore"):
        for options in (
            {"adaptive_batching": True, "max_wait_s": 0.001},
            {"max_wait_s": 0.001, "adaptive_batching": True},
        ):
            yield verb, options, "adaptive_batching derives the batching window itself"


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


@pytest.mark.parametrize("verb, options, message", list(cases()))
def test_a_bad_option_is_refused_the_same_way_in_sql_and_imperatively(
    portals, tmp_path, verb, options, message
):
    engine = portals[verb]
    with_clause = ", ".join(f"{name} = {literal(value)}" for name, value in options.items())
    sql, call = {
        "serve": (f"SERVE VIEW {VIEW}", lambda: engine.serve(VIEW, **options)),
        "restore": (
            f"RESTORE VIEW {VIEW} FROM '{tmp_path}'",
            lambda: engine.restore(VIEW, str(tmp_path), **options),
        ),
        "checkpoint": (
            f"CHECKPOINT VIEW {VIEW} TO '{tmp_path}'",
            lambda: engine.checkpoint(VIEW, str(tmp_path), **options),
        ),
    }[verb]
    for attempt in (lambda: engine.database.execute(f"{sql} WITH ({with_clause})"), call):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            attempt()
    assert (engine.view(VIEW).server is None) == (verb != "checkpoint")
    assert not list(tmp_path.iterdir())


def test_a_nan_wait_is_refused_imperatively(portals):
    """SQL has no NaN literal; a caller's dict can carry one, and it is no number >= 0."""
    message = "option 'max_wait_s' must be >= 0, got nan"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        portals["serve"].serve(VIEW, max_wait_s=float("nan"))
    assert portals["serve"].view(VIEW).server is None
