"""Tier-1 smoke: the whole suite at ``--scale tiny`` prints exactly what BENCHMARK.json declares."""

import json
import math
import subprocess
import sys
from pathlib import Path

from perf import workloads

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "perf" / "run.py"), "--scale", "tiny", "--seconds", "1"]


def run(*arguments: str) -> str:
    done = subprocess.run(
        [*RUN, *arguments], capture_output=True, text=True, cwd=ROOT, timeout=120, check=False
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


def sections(output: str) -> dict[tuple[str, str], dict[str, tuple[float, str]]]:
    """``{(workload, "0"|"1"): {metric: (value, unit)}}`` from the suite's printed lines."""
    found: dict[tuple[str, str], dict[str, tuple[float, str]]] = {}
    current = None
    for line in output.splitlines():
        words = line.split()
        if words[:1] == ["workload"]:
            current = found.setdefault((words[1], words[words.index("trace") + 1]), {})
        elif current is not None and len(words) == 3:
            try:
                current[words[0]] = (float(words[1]), words[2])
            except ValueError:
                pass
    return found


def test_suite_prints_the_declared_names_units_and_bounds():
    output = run("--trace", "--seed", "3")
    found = sections(output)
    workload_names = [entry["name"] for entry in DECLARED["workloads"]]
    assert sorted({workload for workload, _ in found}) == sorted(workload_names)
    assert {entry["name"]: entry["why"] for entry in DECLARED["workloads"]} == {
        spec.name: spec.why for spec in workloads.WORKLOADS.values()
    }
    assert f"suite: {len(workload_names)}/{len(workload_names)} workloads correct" in output
    assert "PROBLEM" not in output
    for workload in workload_names:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            printed = {
                name: metric
                for name, metric in found[(workload, trace)].items()
                if not name.startswith("raw.") and name not in ("ops_attempted", "ops_failed")
            }
            declared = {entry["name"]: entry["unit"] for entry in DECLARED[key]}
            assert {name: unit for name, (_, unit) in printed.items()} == declared, workload
            assert all(math.isfinite(value) for value, _ in printed.values()), workload
            if key == "end_to_end":
                assert all(value > 0 for value, _ in printed.values()), (workload, printed)
        assert found[(workload, "0")]["ops_failed"][0] == 0
    for entry in DECLARED["end_to_end"]:
        assert f"bound {entry['name']} {entry['bound']:g}" in output


def test_seed_changes_the_inputs_but_not_the_names():
    first = run("--workload", "feedback_eager", "--trace", "0", "--seed", "4")
    second = run("--workload", "feedback_eager", "--trace", "0", "--seed", "5")
    again = run("--workload", "feedback_eager", "--trace", "0", "--seed", "4")

    def digest(output: str) -> str:
        return next(line for line in output.splitlines() if line.startswith("inputs_digest"))

    assert digest(first) != digest(second)
    assert digest(first) == digest(again)
    names = [set(json.loads(out.splitlines()[-1])["metrics"]) for out in (first, second)]
    assert names[0] == names[1] == {entry["name"] for entry in DECLARED["end_to_end"]}


def test_missing_program_is_an_error_not_a_result(tmp_path):
    """In a directory with only the benchmark's own files the run must fail without a result."""
    import shutil

    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "feedback_eager", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=False,
    )  # fmt: skip
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
