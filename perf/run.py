"""The benchmark's one command.

``python perf/run.py``                        all four workloads, each in a fresh subprocess
``python perf/run.py --trace``                ... and each again traced, for the per-layer metrics
``python perf/run.py --workload W --trace 0`` one workload in this process (the driver's form)
``python perf/run.py --aa 5``                 the suite 2x5 times, A/B labels alternating

Every metric is printed by name with its unit; the last line of a
single-workload run is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pin() -> None:
    """One CPU and one hash seed for the whole process, before ``repro`` is imported.

    Every workload is one closed-loop client, so one CPU measures the
    program's code path; unpinned, a wire read is 207 us or 400 us depending
    on which CPU the handler thread wakes on.  String hashing is randomized
    per process, which moves dict layouts and set orders and with them a
    members read by several percent; the interpreter is re-executed once (no
    new process) with ``PYTHONHASHSEED=0`` so that two runs do the same work.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args) -> int:
    """One workload, in this process; prints metrics, then the result line."""
    pin()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perf import measure, workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.scale == "tiny":
        spec = spec.tiny()
    result = measure.run_workload(spec, args.seed, args.seconds, bool(args.trace))
    units = {
        entry["name"]: entry["unit"]
        for entry in declared()["per_layer" if args.trace else "end_to_end"]
    }
    values = result["metrics"]
    problems = result["problems"]
    undeclared = sorted(set(values) ^ set(units))
    if undeclared:
        problems.append(f"metrics differ from BENCHMARK.json: {undeclared}")
    problems += [f"not finite: {name}" for name in values if not math.isfinite(values[name])]
    correct = result["failed"] == 0 and not problems
    print(f"workload {spec.name} trace {args.trace} seed {args.seed} blocks {result['blocks']}")
    print(f"inputs_digest {result['digest']}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, '?')}")
    for name, (value, unit) in result["raw"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_attempted {result['attempted']} count")
    print(f"ops_failed {result['failed']} count")
    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.trace:
        print_attribution(result["analysis"])
        for name in result["missing"]:
            print(f"missing {name}")
    if undeclared:
        return 1  # no result line: it could not carry exactly the declared metrics
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


def print_attribution(analysis: dict) -> None:
    """Self time per op kind and layer, as a share of that op kind's time."""
    for kind, layers in analysis["self_seconds"].items():
        total = analysis["op_seconds"].get(kind) or sum(layers.values())
        shares = "  ".join(
            f"{layer} {100 * seconds / total:.1f}%" for layer, seconds in layers.items() if total
        )
        print(f"self_time {kind}: {shares}")


def child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh subprocess; echo its output; return its result line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = done.stdout.strip().splitlines()
    if not args.quiet:
        print("\n".join(lines[:-1]))
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run ended with code {done.returncode} and no result")
    result = json.loads(lines[-1])
    if done.returncode:
        sys.stderr.write(done.stderr)
    return result


def run_suite(args) -> dict[str, dict]:
    """All workloads, each in its own subprocess; ``{workload: result}`` of the untraced runs."""
    names = [entry["name"] for entry in declared()["workloads"]]
    results = {}
    for workload in names:
        results[workload] = child(workload, args, 0)
        if args.trace:
            traced = child(workload, args, 1)
            results[workload]["correct"] &= traced["correct"]
    return results


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def run_aa(args) -> int:
    """Same code, two labels: do two sets of runs agree within the benchmark's own bounds?"""
    bounds = {entry["name"]: entry for entry in declared()["end_to_end"]}
    values: dict[tuple[str, str, str], list[float]] = {}
    args.quiet = True
    for round_number in range(args.aa):
        for label in ("AB", "BA")[round_number % 2]:
            args.seed = 1000 + round_number
            for workload, result in run_suite(args).items():
                if not result["correct"]:
                    raise SystemExit(f"A/A: {workload} run was not correct")
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, label), []).append(metric["value"])
            print(f"round {round_number + 1}/{args.aa} label {label} done", file=sys.stderr)
    print("| workload | metric | median A | median B | IQR A | IQR B | gap | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    failures = 0
    for (workload, name, label), a_values in sorted(values.items()):
        if label != "A":
            continue
        b_values = values[(workload, name, "B")]
        a, b = statistics.median(a_values), statistics.median(b_values)
        gap = abs(a - b) / a
        bound = bounds[name]["bound"]
        verdict = "ok" if gap <= bound else "FAIL"
        failures += verdict == "FAIL"
        print(
            f"| {workload} | {name} | {a:.5g} | {b:.5g} | {iqr(a_values):.3g} "
            f"| {iqr(b_values):.3g} | {100 * gap:.2f}% | {100 * bound:.0f}% | {verdict} |"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed phase length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=0, metavar="K")
    parser.set_defaults(quiet=False)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.aa:
        return run_aa(args)
    if args.workload:
        return run_one(args)
    results = run_suite(args)
    for entry in declared()["end_to_end"]:
        print(f"bound {entry['name']} {entry['bound']:g}  (share of the median it may worsen by)")
    wrong = [workload for workload, result in results.items() if not result["correct"]]
    print(f"suite: {len(results) - len(wrong)}/{len(results)} workloads correct")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
