"""The analyzer against the real tree: clean now, and loud when debt sneaks in.

The injection tests are the acceptance check for the CI gate: take a scratch
copy of a real module, insert one violation of each tentpole invariant, and
assert the pass reports it as an active finding.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.runner import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _analyze_scratch(path: Path, tmp_path: Path):
    active, _ = analyze_paths([path], repo_root=tmp_path)
    return active


def _scratch_copy(tmp_path: Path, rel: str, extra: str) -> Path:
    """Copy ``src/repro/<rel>`` into a scratch tree and append ``extra``."""
    source = (SRC / rel).read_text(encoding="utf-8")
    target = tmp_path / "src" / "repro" / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source + "\n\n" + extra, encoding="utf-8")
    return target


def test_src_tree_has_no_active_findings():
    active, _ = analyze_paths([SRC], repo_root=REPO_ROOT)
    assert active == [], "findings:\n" + "\n".join(f.render() for f in active)


def test_injected_upward_import_fails_the_gate(tmp_path):
    path = _scratch_copy(tmp_path, "db/schema.py", "import repro.net.protocol\n")
    new = _analyze_scratch(path, tmp_path)
    assert any(f.rule == "LAY001" for f in new)


def test_injected_unguarded_mutation_fails_the_gate(tmp_path):
    extra = (
        "class ScratchTorn:\n"
        '    _GUARDED_BY = {"total": "_lock"}\n'
        "\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.total = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.total += 1\n"
    )
    path = _scratch_copy(tmp_path, "net/pool.py", extra)
    new = _analyze_scratch(path, tmp_path)
    assert any(f.rule == "LOCK001" and "total" in f.message for f in new)


def test_injected_uncharged_heap_read_fails_the_gate(tmp_path):
    extra = (
        "from repro.db.heap import HeapFile\n"
        "\n"
        "\n"
        "def scratch_read(heap, rid):\n"
        "    return heap.read(rid)\n"
    )
    path = _scratch_copy(tmp_path, "serve/sync.py", extra)
    new = _analyze_scratch(path, tmp_path)
    rules = {f.rule for f in new}
    assert "COST001" in rules  # the raw import
    assert "COST002" in rules  # the uncharged read
