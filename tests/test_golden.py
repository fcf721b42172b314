"""The golden ledger itself: its files, its rules and its refusal."""

from __future__ import annotations

import math

import pytest

from tests import golden

ROWS = [
    ["Project(id)", 0.0, ""],
    ["  Filter(class = 'a' AND id >= 5)", 0.0, "residual re-check"],
    ["    ViewRangeRead(v, class = 'a' AND id >= 5)", 7.8e-05, "read_range (~3 of 40 rows)"],
]
JOIN = [["HashJoin(id = id)", 0.0, "build on v"], ["  ViewScan(v)", 7.8e-05, "materialize"]]
REFUSAL = ["SQLPlanningError", "no column 'margin'", 7, "margin"]
LEDGER = {"detail": {"statement": "0.25"}, "io": {"tuples_read": 12}, "trace_digest": "ab"}


def _with(rows: list[list], at: int, column: int, value: object) -> list[list]:
    moved = [list(row) for row in rows]
    moved[at][column] = value
    return moved


GONE = [ROWS[0], [ROWS[2][0][2:], *ROWS[2][1:]]]
BATCH = [JOIN[0], ["  ViewPointRead(v, batch)", None, "b"]]
NULL = ([["Filter(tag = None)", 0.0, ""]], [["Filter(tag = NULL)", 0.0, ""]])
LITERAL = ([["Filter(tag = 1)", 0.0, ""]], [["Filter(tag = 2)", 0.0, ""]])

#: ``(rule, before, after, claimed)``: what each rule claims, and what it does not.
CLAIMS = {
    "estimate": ("estimate_only", ROWS, _with(ROWS, 2, 1, 0.000148), True),
    "estimate-words": ("estimate_only", ROWS, _with(ROWS, 2, 2, "read_range"), False),
    "estimate-node": ("estimate_and_detail", ROWS, _with(ROWS, 0, 0, "Project(x)"), False),
    "dropped": ("filter_conjunct_dropped", ROWS, _with(ROWS, 1, 0, "  Filter(id >= 5)"), True),
    "filter-gone": ("filter_conjunct_dropped", ROWS, GONE, True),
    "unnamed": ("filter_conjunct_dropped", ROWS, _with(ROWS, 1, 0, "  Filter(x = 1)"), False),
    "null": ("literal_spelling", *NULL, True),
    "literal": ("literal_spelling", *LITERAL, False),
    "batch": ("probe_batch_read", JOIN, BATCH, True),
    "batch-priced": ("probe_batch_read", JOIN, _with(BATCH, 1, 1, 0.0), False),
    "message": ("refusal_message", REFUSAL, [*REFUSAL[:1], "as FROM v", *REFUSAL[2:]], True),
    "position": ("refusal_message", REFUSAL, [*REFUSAL[:2], 8, "margin"], False),
    "ledger": ("ledger_tags", LEDGER, {**LEDGER, "trace_digest": "cd"}, True),
    "ledger-new-tag": ("ledger_tags", LEDGER, {**LEDGER, "io": {"x": 1}}, False),
}


@pytest.mark.parametrize("rule, before, after, claimed", CLAIMS.values(), ids=list(CLAIMS))
def test_a_rule_claims_only_its_own_move(rule, before, after, claimed):
    assert golden.RULES[rule](before, after) is claimed


@pytest.mark.parametrize("table", golden.TABLES)
def test_a_golden_file_holds_its_current_cells_and_move_log_as_written(table):
    document = golden.load(table)
    assert golden.path(table).read_text() == golden.dumps(document) + "\n"
    assert list(document) == ["cells", "moves"]
    for move in document["moves"]:
        assert list(move) == ["pr", "rule", "cells"] and move["rule"] in golden.RULES
        assert move["cells"] and set(move["cells"]) <= set(document["cells"])


@pytest.mark.parametrize(
    "after",
    [_with(ROWS, 2, 1, math.nextafter(7.8e-05, 1.0)), _with(ROWS, 1, 0, "  Filter(class = 'b')")],
    ids=["one ulp", "one token"],
)
def test_a_re_record_refuses_a_move_no_named_rule_claims(after):
    document = {"cells": {"range": ROWS, "other": JOIN}, "moves": []}
    assert golden.bits(after) != golden.bits(ROWS)
    with pytest.raises(golden.UnclaimedMove, match="range"):
        golden.record(document, {"range": after, "other": JOIN}, 1, ["literal_spelling"])


def test_a_re_record_logs_each_claimed_cell_under_its_first_claiming_rule():
    logged = [{"pr": 1, "rule": "added", "cells": ["other"]}]
    document = {"cells": {"range": ROWS, "other": JOIN}, "moves": logged}
    fresh = {"range": _with(ROWS, 2, 1, 0.000148), "other": JOIN}
    recorded, lines = golden.record(document, fresh, 2, ["estimate_only", "estimate_and_detail"])
    moved = {"pr": 2, "rule": "estimate_only", "cells": ["range"]}
    assert recorded == {"cells": fresh, "moves": [*logged, moved]}
    assert lines == [
        "range  [estimate_only]",
        f"  - {ROWS[2]}",
        f"  + {fresh['range'][2]}",
    ]
