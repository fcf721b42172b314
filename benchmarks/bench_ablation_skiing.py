"""Ablations on the Skiing strategy (paper §C.2 and Theorem 3.3).

Two studies that the paper describes in prose:

* **alpha sensitivity** — the paper runs all experiments with alpha = 1 and
  notes that tuning alpha buys only ~10%.  The ablation sweeps alpha over the
  eager-update experiment.
* **competitive ratio** — Theorem 3.3 says the Skiing schedule's cost is
  within a factor ~2 of the offline optimum as data grows.  The ablation
  measures the empirical ratio of Skiing vs the offline optimal schedule (and
  vs "never reorganize" / "always reorganize") on the cost traces produced by
  the actual maintenance workload.
"""

from __future__ import annotations

from repro.bench.harness import build_maintained_view, run_eager_update_experiment
from repro.bench.reporting import format_table
from repro.core.skiing import OfflineOptimalScheduler, SkiingDecision, SkiingStrategy
from repro.workloads import update_trace

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def build_alpha_table(dataset, warmup: int = 500, timed: int = 150):
    rows = []
    for alpha in ALPHAS:
        result = run_eager_update_experiment(
            dataset, "mainmemory", "hazy", warmup=warmup, timed=timed, alpha=alpha
        )
        rows.append(
            {
                "alpha": alpha,
                "updates_per_s": round(result.simulated_ops_per_second, 1),
                "reorganizations": int(result.detail["reorganizations"]),
                "avg_band_size": round(result.detail["avg_band_size"], 1),
            }
        )
    return rows


def record_decisions(skiing: SkiingStrategy) -> list[SkiingDecision]:
    """Every decision ``skiing`` returns from now on, in order.

    The strategy keeps running totals only; the benchmark that needs the
    per-round trace wraps the two recording calls and keeps what they return.
    """
    decisions: list[SkiingDecision] = []
    for name in ("record_incremental_step", "record_reorganization"):
        record = getattr(skiing, name)

        def recording(cost: float, record=record) -> SkiingDecision:
            decision = record(cost)
            decisions.append(decision)
            return decision

        setattr(skiing, name, recording)
    return decisions


def build_ratio_table(dataset, warmup: int = 500, timed: int = 120):
    """Replay the workload's incremental-cost trace against alternative schedules."""
    trace = update_trace(dataset, warmup=warmup, timed=timed, seed=21)
    view = build_maintained_view(
        dataset, "mainmemory", "hazy", "eager", warm_examples=trace.warm_examples()
    )
    skiing = view.maintainer.skiing
    decisions = record_decisions(skiing)
    view.absorb_many(trace.timed_examples())
    reorg_cost = skiing.reorganization_cost or view.maintainer.stats.simulated_reorganization_seconds
    if reorg_cost <= 0:
        reorg_cost = 1e-3
    # Reconstruct per-round incremental costs from the accumulated values
    # (the accumulator resets to zero at every reorganization).
    per_round: list[float] = []
    previous = 0.0
    for decision in decisions:
        if decision.reorganize:
            previous = 0.0
            continue
        per_round.append(max(0.0, decision.accumulated_cost - previous))
        previous = decision.accumulated_cost

    # A monotone cost surrogate built from the workload's own per-round waste:
    # the cost at round i with last reorganization at s is the waste accumulated
    # since s, capped at the reorganization cost.  Every schedule (Skiing, the
    # offline optimum, never, always) is evaluated against this same surrogate
    # so the ratios are directly comparable.
    prefix = [0.0]
    for cost_value in per_round:
        prefix.append(prefix[-1] + cost_value)
    rounds = len(per_round)

    def cost(s: int, i: int) -> float:
        return min(prefix[i] - prefix[min(s, i)], reorg_cost)

    from repro.core.skiing import simulate_skiing_on_trace

    skiing_total, skiing_schedule = simulate_skiing_on_trace(cost, rounds, reorg_cost, alpha=1.0)
    optimal_total, optimal_schedule = OfflineOptimalScheduler(reorg_cost).solve(cost, rounds)
    never_total = sum(cost(0, i) for i in range(1, rounds + 1))
    always_total = rounds * reorg_cost
    return [
        {
            "schedule": "Skiing (alpha=1)",
            "total_cost": round(skiing_total, 4),
            "reorganizations": len(skiing_schedule),
            "vs_optimal": round(skiing_total / max(optimal_total, 1e-12), 2),
        },
        {
            "schedule": "offline optimal",
            "total_cost": round(optimal_total, 4),
            "reorganizations": len(optimal_schedule),
            "vs_optimal": 1.0,
        },
        {
            "schedule": "never reorganize",
            "total_cost": round(never_total, 4),
            "reorganizations": 0,
            "vs_optimal": round(never_total / max(optimal_total, 1e-12), 2),
        },
        {
            "schedule": "always reorganize",
            "total_cost": round(always_total, 4),
            "reorganizations": rounds,
            "vs_optimal": round(always_total / max(optimal_total, 1e-12), 2),
        },
    ]


def test_ablation_alpha_sensitivity(dblife_dataset, benchmark):
    rows = benchmark.pedantic(lambda: build_alpha_table(dblife_dataset), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: Skiing alpha sensitivity (eager updates, Hazy-MM, DB-like)"))
    rates = [row["updates_per_s"] for row in rows]
    default = dict(zip(ALPHAS, rates))[1.0]
    # alpha = 1 is within 2x of the best setting (the paper reports ~10% headroom).
    assert default >= max(rates) / 2.0
    # Smaller alpha means reorganizing at least as often.
    reorgs = [row["reorganizations"] for row in rows]
    assert reorgs[0] >= reorgs[-1]


def test_ablation_skiing_vs_optimal_schedule(dblife_dataset, benchmark):
    rows = benchmark.pedantic(lambda: build_ratio_table(dblife_dataset), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: Skiing vs offline optimal reorganization schedule"))
    by_name = {row["schedule"]: row for row in rows}
    # Theorem 3.3 (empirically): Skiing is within ~2x of the offline optimum,
    # with some slack for the finite trace boundary.
    assert by_name["Skiing (alpha=1)"]["vs_optimal"] <= 3.0
    # And it beats the trivial "always reorganize" schedule.
    assert (
        by_name["Skiing (alpha=1)"]["total_cost"] <= by_name["always reorganize"]["total_cost"] * 1.05
    )
