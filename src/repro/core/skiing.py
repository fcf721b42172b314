"""The Skiing reorganization strategy and its offline-optimal comparator.

The strategy (paper §3.2.1, Figure 7) is a ski-rental style rule:

* maintain an accumulated cost ``a`` (the "waste" since the last
  reorganization), initially 0;
* at each round, if ``a >= alpha * S`` (where ``S`` is the measured cost of a
  reorganization), reorganize and reset ``a``; otherwise take the incremental
  step, measure its cost ``c(i)``, and set ``a += c(i)``.

Lemma 3.2 shows the competitive ratio is ``1 + alpha + sigma`` where ``sigma*S``
is the time to scan the table, that this is optimal among deterministic online
strategies, and that as the data grows (``sigma -> 0``, ``alpha -> 1``) the ratio
tends to 2 (Theorem 3.3).  :class:`OfflineOptimalScheduler` computes the true
optimum by dynamic programming so tests and benchmarks can measure the ratio.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

__all__ = ["SkiingDecision", "SkiingStrategy", "OfflineOptimalScheduler", "optimal_alpha"]


def optimal_alpha(sigma: float) -> float:
    """The alpha of Lemma 3.2: the positive root of ``x^2 + sigma*x - 1``."""
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    return (-sigma + math.sqrt(sigma * sigma + 4.0)) / 2.0


@dataclass(frozen=True)
class SkiingDecision:
    """The outcome of one round: whether to reorganize, and the bookkeeping values."""

    reorganize: bool
    accumulated_cost: float
    threshold: float


@dataclass
class SkiingStrategy:
    """The online reorganization rule.

    Parameters
    ----------
    alpha:
        The threshold multiplier; the paper uses ``alpha = 1`` for all
        experiments (and tuning it buys ~10%, per Appendix C.2).
    reorganization_cost:
        The current estimate of ``S`` in (simulated) seconds.  It is updated
        by :meth:`record_reorganization` each time the data is actually
        reorganized, exactly as Hazy sets ``S`` to the measured time.
    """

    alpha: float = 1.0
    reorganization_cost: float = 0.0
    accumulated_cost: float = 0.0
    rounds: int = 0
    reorganizations: int = 0
    incremental_cost_total: float = 0.0
    history: list[SkiingDecision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0")
        if self.reorganization_cost < 0:
            raise ConfigurationError("reorganization cost must be >= 0")

    # -- the strategy ------------------------------------------------------------------

    def should_reorganize(self) -> bool:
        """Choice (2) of the paper: reorganize when ``a >= alpha * S``.

        When no reorganization cost has been measured yet (``S == 0``) the
        strategy reorganizes whenever any waste has accumulated, which matches
        Hazy's behaviour of reorganizing eagerly while the table is tiny.
        """
        return self.accumulated_cost >= self.alpha * self.reorganization_cost

    def record_incremental_step(self, cost: float) -> SkiingDecision:
        """Account the measured cost ``c(i)`` of an incremental step."""
        if cost < 0:
            raise ConfigurationError("incremental cost must be >= 0")
        self.rounds += 1
        self.accumulated_cost += cost
        self.incremental_cost_total += cost
        decision = SkiingDecision(
            reorganize=False,
            accumulated_cost=self.accumulated_cost,
            threshold=self.alpha * self.reorganization_cost,
        )
        self.history.append(decision)
        return decision

    def record_reorganization(self, measured_cost: float) -> SkiingDecision:
        """Account an actual reorganization: update ``S`` and reset the waste."""
        if measured_cost < 0:
            raise ConfigurationError("reorganization cost must be >= 0")
        self.rounds += 1
        self.reorganizations += 1
        self.reorganization_cost = measured_cost
        self.accumulated_cost = 0.0
        decision = SkiingDecision(
            reorganize=True,
            accumulated_cost=0.0,
            threshold=self.alpha * self.reorganization_cost,
        )
        self.history.append(decision)
        return decision

    def record_lazy_waste(self, tuples_read: int, members: int, scan_cost: float) -> float:
        """The lazy-approach waste model of §3.4.

        An All Members read touched ``tuples_read`` tuples of which only
        ``members`` were actually in the class; the wasted fraction of the
        ``scan_cost`` seconds is charged as this round's ``c(i)``.
        Returns the charged cost.
        """
        if tuples_read <= 0:
            return 0.0
        waste = (tuples_read - members) / tuples_read * scan_cost
        self.record_incremental_step(waste)
        return waste

    def total_cost(self) -> float:
        """Total cost paid so far: incremental steps plus reorganizations."""
        # Each reorganization paid the then-current S; approximate with the
        # last measured cost, which is exact when S is stable.
        return self.incremental_cost_total + self.reorganizations * self.reorganization_cost


class OfflineOptimalScheduler:
    """Computes the best possible reorganization schedule for a known cost trace.

    The input is the matrix of incremental costs ``c(s, i)`` — the cost paid at
    round ``i`` if the last reorganization happened at round ``s <= i`` — plus
    the reorganization cost ``S``.  ``solve`` runs an O(N^2) dynamic program:
    ``best[i]`` is the minimum total cost of handling rounds ``1..i`` given
    that a reorganization happens at round ``i``.
    """

    def __init__(self, reorganization_cost: float):
        if reorganization_cost < 0:
            raise ConfigurationError("reorganization cost must be >= 0")
        self.reorganization_cost = reorganization_cost

    def solve(self, cost: Callable[[int, int], float], rounds: int) -> tuple[float, list[int]]:
        """Return ``(optimal_total_cost, reorganization_rounds)``.

        ``cost(s, i)`` must be defined for ``0 <= s <= i <= rounds``; round 0
        is the initial organization (free).  The optimum may also choose to
        never reorganize.
        """
        if rounds < 0:
            raise ConfigurationError("rounds must be >= 0")
        S = self.reorganization_cost

        # best_at[s] = minimal cost of all rounds 1..s assuming we reorganize at
        # round s (paying S at s), for s >= 1; plus the option s = 0 (no reorg yet).
        def segment_cost(s: int, start: int, end: int) -> float:
            return sum(cost(s, i) for i in range(start, end + 1))

        best_at: dict[int, tuple[float, list[int]]] = {0: (0.0, [])}
        for s in range(1, rounds + 1):
            candidates: list[tuple[float, list[int]]] = []
            for previous, (previous_cost, schedule) in best_at.items():
                between = segment_cost(previous, previous + 1, s - 1)
                candidates.append((previous_cost + between + S, schedule + [s]))
            best_at[s] = min(candidates, key=lambda pair: pair[0])

        final_candidates: list[tuple[float, list[int]]] = []
        for s, (cost_so_far, schedule) in best_at.items():
            tail = segment_cost(s, s + 1, rounds)
            final_candidates.append((cost_so_far + tail, schedule))
        return min(final_candidates, key=lambda pair: pair[0])



def simulate_skiing_on_trace(
    cost: Callable[[int, int], float],
    rounds: int,
    reorganization_cost: float,
    alpha: float = 1.0,
) -> tuple[float, list[int]]:
    """Run the Skiing rule over a known cost trace; returns (total cost, reorg rounds).

    Used by tests and the ablation benchmark to measure the empirical
    competitive ratio against :class:`OfflineOptimalScheduler`.
    """
    strategy = SkiingStrategy(alpha=alpha, reorganization_cost=reorganization_cost)
    last_reorganization = 0
    reorganization_rounds: list[int] = []
    total = 0.0
    for i in range(1, rounds + 1):
        if strategy.should_reorganize():
            total += reorganization_cost
            strategy.record_reorganization(reorganization_cost)
            last_reorganization = i
            reorganization_rounds.append(i)
        else:
            step_cost = cost(last_reorganization, i)
            total += step_cost
            strategy.record_incremental_step(step_cost)
    return total, reorganization_rounds
