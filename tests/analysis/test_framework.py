"""Runner, suppression, and CLI self-checks."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.findings import Finding
from repro.analysis.passes.locks import LockDisciplinePass
from repro.analysis.runner import analyze_paths, load_module


def test_noqa_directive_moves_finding_to_suppressed(fixtures_dir):
    active, suppressed = analyze_paths(
        [fixtures_dir / "lock_bad.py"],
        passes=[LockDisciplinePass()],
        repo_root=fixtures_dir,
    )
    assert ("LOCK001", 32) in [(f.rule, f.line) for f in suppressed]
    assert ("LOCK001", 32) not in [(f.rule, f.line) for f in active]


def test_noqa_all_suppresses_every_rule(tmp_path):
    path = tmp_path / "blanket.py"
    path.write_text(
        "# repro: module(repro.db.table)\n"
        "from repro.serve.server import ViewServer  # repro: noqa(ALL)\n",
        encoding="utf-8",
    )
    active, suppressed = analyze_paths([path], repo_root=tmp_path)
    assert active == []
    assert [f.rule for f in suppressed] == ["LAY001"]


def test_module_directive_overrides_derived_name(fixtures_dir):
    ctx = load_module(fixtures_dir / "lay_bad.py")
    assert ctx.module == "repro.db.table"


def test_syntax_error_becomes_parse_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def oops(:\n", encoding="utf-8")
    active, suppressed = analyze_paths([path], repo_root=tmp_path)
    assert suppressed == []
    assert len(active) == 1
    assert active[0].rule == "PARSE001"
    assert active[0].line == 1


def test_cli_exit_codes(fixtures_dir, tmp_path, capsys):
    assert main(["--list-rules"]) == 0
    assert "LAY001" in capsys.readouterr().out

    assert main([str(tmp_path / "nope.py")]) == 2

    assert main([str(fixtures_dir / "lay_clean.py")]) == 0
    capsys.readouterr()

    assert main([str(fixtures_dir / "lay_bad.py")]) == 1
    out = capsys.readouterr()
    assert "LAY001" in out.out
    assert "3 finding(s), 0 suppressed" in out.err


def test_cli_show_suppressed_lists_noqa_findings(fixtures_dir, capsys):
    main([str(fixtures_dir / "lock_bad.py"), "--show-suppressed"])
    assert "[suppressed]" in capsys.readouterr().out


def test_findings_render_as_path_line_rule(tmp_path):
    finding = Finding(path=Path("x/y.py").as_posix(), line=7, rule="LOCK001", message="m")
    assert finding.render() == "x/y.py:7: LOCK001 m"
