"""The EXPLAIN rows of the five classification-view reads, pinned.

Recorded at the parent of PR 20 (commit 7ced611; ``PYTHONPATH=src:. python
tests/db/test_view_explain_table.py --record`` prints the current table in the
same form): every
``(node, estimated_seconds, detail)`` row ``EXPLAIN`` prints for the point,
All Members, key-range, contents and ranked read, against an unserved view and
against the same view served on 2 shards, on a fixed corpus, for Hazy-MM eager
and hybrid lazy.  PR 20 gave a view one reader that prices its own reads; the
table proves the estimates are the parent's floats everywhere except the two
cells that PR moved on purpose (``MOVED`` below — both on the *unserved*
view: the ``ViewScan`` estimate adopts the formula of the ``contents()`` body
it runs, and the fused ``TopK`` gets a number instead of ``None``).  The
All Members and key-range cells moved later, in ``CLASS_ANSWERED``: those
reads answer their ``class = x`` conjunct exactly, so it left the residual
``Filter`` above them, and every estimate stayed where it was.  The point
cells moved in ``KEY_ANSWERED``: a point read answers its own ``id = 1``
the same way, so the ``Filter(id = 1)`` above it went.  The scan-shaped cells
moved last, in ``ONE_RULE``: every view read charges one statement per store it
touches, so a 2-shard scan's estimate gains the second shard's overhead, and a
contents read is one scan per store, priced as every other scan.
"""

from __future__ import annotations

import sys

import pytest

from tests.db.test_select_plan_table import class_answered, key_answered
from tests.db.test_sql_serving import build_portal

READS = {
    "point": "SELECT class FROM labeled_papers WHERE id = 1",
    "members": "SELECT id FROM labeled_papers WHERE class = 'database'",
    "range": "SELECT id FROM labeled_papers WHERE class = 'database' AND id >= 5",
    "contents": "SELECT * FROM labeled_papers",
    "ranked": "SELECT id FROM labeled_papers ORDER BY margin DESC LIMIT 4",
}
CONFIGURATIONS = {
    "mainmemory/eager": dict(architecture="mainmemory", approach="eager"),
    "hybrid/lazy": dict(architecture="hybrid", approach="lazy"),
}
STATES = ("unserved", "2 shards")


def explain_table() -> dict[tuple[str, str, str], list[tuple]]:
    """``{(configuration, read, state): [(node, estimated_seconds, detail), ...]}``."""
    table: dict[tuple[str, str, str], list[tuple]] = {}
    for configuration, engine_options in CONFIGURATIONS.items():
        db, _, _ = build_portal(count=40, **engine_options)
        for state in STATES:
            if state != "unserved":
                db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
            for read, sql in READS.items():
                table[(configuration, read, state)] = [
                    (row["node"], row["estimated_seconds"], row["detail"])
                    for row in db.execute(f"EXPLAIN {sql}").rows
                ]
        db.execute("STOP SERVING labeled_papers")
    return table


#: The cells PR 20 moved on purpose: what they print now.
MOVED: dict[tuple[str, str, str], list[tuple]] = {
    ("mainmemory/eager", "contents", "unserved"): [
        (
            "ViewScan(labeled_papers)",
            0.002886,
            "materialize the view through the direct maintainer",
        ),
    ],
    ("mainmemory/eager", "ranked", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            7.8e-05,
            "direct maintainer top-k heap over one scored scan (view is not served)",
        ),
    ],
    ("hybrid/lazy", "contents", "unserved"): [
        (
            "ViewScan(labeled_papers)",
            0.19889379999999995,
            "materialize the view through the direct maintainer",
        ),
    ],
    ("hybrid/lazy", "ranked", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            0.001078,
            "direct maintainer top-k heap over one scored scan (view is not served)",
        ),
    ],
}

#: The cells whose view read answers ``class = x`` itself: what they print now.
CLASS_ANSWERED: dict[tuple[str, str, str], list[tuple]] = {
    ("mainmemory/eager", "members", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  ViewMembers(labeled_papers, class = 'database')",
            7.8e-05,
            "direct maintainer All Members read (view is not served)",
        ),
    ],
    ("mainmemory/eager", "range", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewRangeRead(labeled_papers, class = 'database' AND id >= 5)",
            7.8e-05,
            "maintainer read_range (view is not served)",
        ),
    ],
    ("mainmemory/eager", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  ServedScatterGather(labeled_papers, class = 'database')",
            7.8e-05,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("mainmemory/eager", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            7.8e-05,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
    ("hybrid/lazy", "members", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  ViewMembers(labeled_papers, class = 'database')",
            0.001078,
            "direct maintainer All Members read (view is not served)",
        ),
    ],
    ("hybrid/lazy", "range", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewRangeRead(labeled_papers, class = 'database' AND id >= 5)",
            0.001078,
            "maintainer read_range (view is not served)",
        ),
    ],
    ("hybrid/lazy", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  ServedScatterGather(labeled_papers, class = 'database')",
            0.001078,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("hybrid/lazy", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            0.001078,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
}

#: The cells whose point read answers its ``id = 1`` itself: what they print now.
KEY_ANSWERED: dict[tuple[str, str, str], list[tuple]] = {
    ("mainmemory/eager", "point", "unserved"): [
        ("Project(class)", 0.0, ""),
        (
            "  ViewPointRead(labeled_papers.id = 1)",
            7.02e-05,
            "direct maintainer read_single (view is not served)",
        ),
    ],
    ("mainmemory/eager", "point", "2 shards"): [
        ("Project(class)", 0.0, ""),
        (
            "  ServedPointRead(labeled_papers.id = 1)",
            7.02e-05,
            "batched read on the owning shard of 2; statement overhead amortized per coalesced batch",
        ),
    ],
    ("hybrid/lazy", "point", "unserved"): [
        ("Project(class)", 0.0, ""),
        (
            "  ViewPointRead(labeled_papers.id = 1)",
            0.001078,
            "direct maintainer read_single (view is not served)",
        ),
    ],
    ("hybrid/lazy", "point", "2 shards"): [
        ("Project(class)", 0.0, ""),
        (
            "  ServedPointRead(labeled_papers.id = 1)",
            0.0005736,
            "batched read on the owning shard of 2; statement overhead amortized per coalesced batch",
        ),
    ],
}

#: The table as the parent printed it.
PARENT: dict[tuple[str, str, str], list[tuple]] = {
    ("mainmemory/eager", "point", "unserved"): [
        ("Project(class)", 0.0, ""),
        ("  Filter(id = 1)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewPointRead(labeled_papers.id = 1)",
            7.02e-05,
            "direct maintainer read_single (view is not served)",
        ),
    ],
    ("mainmemory/eager", "members", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(class = 'database')", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewMembers(labeled_papers, class = 'database')",
            7.8e-05,
            "direct maintainer All Members read (view is not served)",
        ),
    ],
    ("mainmemory/eager", "range", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  Filter(class = 'database' AND id >= 5)",
            0.0,
            "residual re-check of every WHERE conjunct",
        ),
        (
            "    ViewRangeRead(labeled_papers, class = 'database' AND id >= 5)",
            7.8e-05,
            "maintainer read_range (view is not served)",
        ),
    ],
    ("mainmemory/eager", "contents", "unserved"): [
        ("ViewScan(labeled_papers)", 7.8e-05, "materialize the view through the direct maintainer"),
    ],
    ("mainmemory/eager", "ranked", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  TopK(k=4, by=margin desc)", None, "requires the view to be served"),
    ],
    ("mainmemory/eager", "point", "2 shards"): [
        ("Project(class)", 0.0, ""),
        ("  Filter(id = 1)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedPointRead(labeled_papers.id = 1)",
            7.02e-05,
            "batched read on the owning shard of 2; statement overhead amortized per coalesced batch",
        ),
    ],
    ("mainmemory/eager", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(class = 'database')", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedScatterGather(labeled_papers, class = 'database')",
            7.8e-05,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("mainmemory/eager", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  Filter(class = 'database' AND id >= 5)",
            0.0,
            "residual re-check of every WHERE conjunct",
        ),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            7.8e-05,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
    ("mainmemory/eager", "contents", "2 shards"): [
        (
            "ServedScatterGather(labeled_papers, contents)",
            0.002886,
            "materialize one coherent epoch via read_single per entity across 2 shards",
        ),
    ],
    ("mainmemory/eager", "ranked", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            7.8e-05,
            "per-shard top-k heaps + n-way merge across 2 shards",
        ),
    ],
    ("hybrid/lazy", "point", "unserved"): [
        ("Project(class)", 0.0, ""),
        ("  Filter(id = 1)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewPointRead(labeled_papers.id = 1)",
            0.001078,
            "direct maintainer read_single (view is not served)",
        ),
    ],
    ("hybrid/lazy", "members", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(class = 'database')", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ViewMembers(labeled_papers, class = 'database')",
            0.001078,
            "direct maintainer All Members read (view is not served)",
        ),
    ],
    ("hybrid/lazy", "range", "unserved"): [
        ("Project(id)", 0.0, ""),
        (
            "  Filter(class = 'database' AND id >= 5)",
            0.0,
            "residual re-check of every WHERE conjunct",
        ),
        (
            "    ViewRangeRead(labeled_papers, class = 'database' AND id >= 5)",
            0.001078,
            "maintainer read_range (view is not served)",
        ),
    ],
    ("hybrid/lazy", "contents", "unserved"): [
        (
            "ViewScan(labeled_papers)",
            0.001078,
            "materialize the view through the direct maintainer",
        ),
    ],
    ("hybrid/lazy", "ranked", "unserved"): [
        ("Project(id)", 0.0, ""),
        ("  TopK(k=4, by=margin desc)", None, "requires the view to be served"),
    ],
    ("hybrid/lazy", "point", "2 shards"): [
        ("Project(class)", 0.0, ""),
        ("  Filter(id = 1)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedPointRead(labeled_papers.id = 1)",
            0.0005736,
            "batched read on the owning shard of 2; statement overhead amortized per coalesced batch",
        ),
    ],
    ("hybrid/lazy", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(class = 'database')", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedScatterGather(labeled_papers, class = 'database')",
            0.001078,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("hybrid/lazy", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  Filter(class = 'database' AND id >= 5)",
            0.0,
            "residual re-check of every WHERE conjunct",
        ),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            0.001078,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
    ("hybrid/lazy", "contents", "2 shards"): [
        (
            "ServedScatterGather(labeled_papers, contents)",
            0.19389359999999997,
            "materialize one coherent epoch via read_single per entity across 2 shards",
        ),
    ],
    ("hybrid/lazy", "ranked", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            0.001078,
            "per-shard top-k heaps + n-way merge across 2 shards",
        ),
    ],
}

#: The scan-shaped cells priced by one statement per store: what they print now.
ONE_RULE: dict[tuple[str, str, str], list[tuple]] = {
    ("hybrid/lazy", "contents", "2 shards"): [
        (
            "ServedScatterGather(labeled_papers, contents)",
            0.001148,
            "materialize one coherent epoch: one scan per shard across 2 shards",
        ),
    ],
    ("hybrid/lazy", "contents", "unserved"): [
        (
            "ViewScan(labeled_papers)",
            0.001078,
            "materialize the view through the direct maintainer",
        ),
    ],
    ("hybrid/lazy", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  ServedScatterGather(labeled_papers, class = 'database')",
            0.001148,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("hybrid/lazy", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            0.001148,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
    ("hybrid/lazy", "ranked", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            0.001148,
            "per-shard top-k heaps + n-way merge across 2 shards",
        ),
    ],
    ("mainmemory/eager", "contents", "2 shards"): [
        (
            "ServedScatterGather(labeled_papers, contents)",
            0.000148,
            "materialize one coherent epoch: one scan per shard across 2 shards",
        ),
    ],
    ("mainmemory/eager", "contents", "unserved"): [
        ("ViewScan(labeled_papers)", 7.8e-05, "materialize the view through the direct maintainer"),
    ],
    ("mainmemory/eager", "members", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  ServedScatterGather(labeled_papers, class = 'database')",
            0.000148,
            "scatter/gather All Members across 2 shards",
        ),
    ],
    ("mainmemory/eager", "range", "2 shards"): [
        ("Project(id)", 0.0, ""),
        ("  Filter(id >= 5)", 0.0, "residual re-check of every WHERE conjunct"),
        (
            "    ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            0.000148,
            "pushed-down read_range across 2 shards; classifies only in-range candidates",
        ),
    ],
    ("mainmemory/eager", "ranked", "2 shards"): [
        ("Project(id)", 0.0, ""),
        (
            "  TopK(k=4, by=margin desc)",
            0.000148,
            "per-shard top-k heaps + n-way merge across 2 shards",
        ),
    ],
}


def test_the_recorded_table_covers_every_cell():
    expected = {(c, r, s) for c in CONFIGURATIONS for r in READS for s in STATES}
    assert set(PARENT) == expected
    assert set(MOVED) == {
        (c, r, "unserved") for c in CONFIGURATIONS for r in ("contents", "ranked")
    }
    assert set(CLASS_ANSWERED) == {
        (c, r, s) for c in CONFIGURATIONS for r in ("members", "range") for s in STATES
    }
    assert set(KEY_ANSWERED) == {(c, "point", s) for c in CONFIGURATIONS for s in STATES}
    scans = ("members", "range", "contents", "ranked")
    assert set(ONE_RULE) == {(c, "contents", "unserved") for c in CONFIGURATIONS} | {
        (c, r, "2 shards") for c in CONFIGURATIONS for r in scans
    }


@pytest.fixture(scope="module")
def table():
    return explain_table()


@pytest.mark.parametrize("cell", sorted(PARENT), ids=" ".join)
def test_explain_rows_equal_the_parents_except_the_two_moved_cells(table, cell):
    assert table[cell] == {**PARENT, **MOVED, **CLASS_ANSWERED, **KEY_ANSWERED, **ONE_RULE}[cell]


def test_the_moved_cells_moved_only_where_intended():
    """Same node names and the same rows around the access node; the served
    twin of the moved contents cell is priced by the very same formula."""
    for cell, rows in MOVED.items():
        before = PARENT[cell]
        assert [row[0] for row in rows] == [row[0] for row in before]
        assert rows[:-1] == before[:-1]
        assert before[-1][1] != rows[-1][1] and rows[-1][1] > 0.0


def test_the_class_answered_cells_lost_only_their_class_conjunct():
    for cell, rows in CLASS_ANSWERED.items():
        before = [list(row) for row in PARENT[cell]]
        assert [list(row) for row in rows] == class_answered(before) != before


def test_the_key_answered_cells_lost_only_their_key_conjunct():
    for cell, rows in KEY_ANSWERED.items():
        before = [list(row) for row in PARENT[cell]]
        assert [list(row) for row in rows] == key_answered(before) != before


def test_the_one_rule_cells_moved_only_their_access_estimate():
    """Each scan-shaped read's estimate is ``sum(overhead + scan)`` over its stores:
    a 2-shard read gains one overhead, and contents costs what All Members does."""
    earlier = {**PARENT, **MOVED, **CLASS_ANSWERED, **KEY_ANSWERED}
    now = {**earlier, **ONE_RULE}
    for cell, rows in ONE_RULE.items():
        before = earlier[cell]
        assert [row[0] for row in rows] == [row[0] for row in before]
        assert rows[:-1] == before[:-1]
        if cell[1] != "contents":
            assert rows[-1][1] - before[-1][1] == pytest.approx(7e-05)
            assert rows[-1][2] == before[-1][2]
    for configuration in CONFIGURATIONS:
        for state in STATES:
            contents = now[(configuration, "contents", state)][-1][1]
            assert contents == now[(configuration, "members", state)][-1][1]


def _literal(value: object) -> str:
    return f'"{value}"' if isinstance(value, str) else repr(value)


def _render(table: dict[tuple[str, str, str], list[tuple]]) -> str:
    """The table as this file spells it: a row past 100 columns one value a line."""
    lines = ["{"]
    for cell, rows in table.items():
        lines.append(f"    ({', '.join(map(_literal, cell))}): [")
        for row in rows:
            line = f"        ({', '.join(map(_literal, row))}),"
            if len(line) > 100:
                values = "".join(f"            {_literal(value)},\n" for value in row)
                line = f"        (\n{values}        ),"
            lines.append(line)
        lines.append("    ],")
    return "\n".join([*lines, "}"])


if __name__ == "__main__":
    if "--record" not in sys.argv:
        raise SystemExit(
            "usage: PYTHONPATH=src:. python tests/db/test_view_explain_table.py --record"
        )
    print(_render(explain_table()))
