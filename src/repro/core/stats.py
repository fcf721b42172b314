"""Runtime statistics for view maintenance.

Every maintainer records what it did — rounds, reorganizations, tuples
reclassified, band sizes, and simulated cost — so that benchmarks can report
the quantities behind the paper's figures (e.g. the Figure 13 band-size curve
is exactly ``band_size_history``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MaintenanceStatistics"]


@dataclass
class MaintenanceStatistics:
    """Counters accumulated by a classification-view maintainer."""

    updates: int = 0
    reorganizations: int = 0
    tuples_reclassified: int = 0
    labels_changed: int = 0
    single_reads: int = 0
    batched_reads: int = 0
    batch_rounds: int = 0
    all_member_reads: int = 0
    range_reads: int = 0
    tuples_scanned_for_reads: int = 0
    epsmap_hits: int = 0
    simulated_update_seconds: float = 0.0
    simulated_read_seconds: float = 0.0
    simulated_reorganization_seconds: float = 0.0
    band_size_history: list[int] = field(default_factory=list)
    band_width_history: list[float] = field(default_factory=list)

    # -- recording -----------------------------------------------------------------

    def record_update(self, tuples_reclassified: int, labels_changed: int, cost: float) -> None:
        """One Update round: reclassified ``tuples_reclassified`` tuples at ``cost`` seconds."""
        self.updates += 1
        self.tuples_reclassified += tuples_reclassified
        self.labels_changed += labels_changed
        self.simulated_update_seconds += cost

    def record_reorganization(self, cost: float) -> None:
        """One reorganization at ``cost`` simulated seconds."""
        self.reorganizations += 1
        self.simulated_reorganization_seconds += cost

    def record_band(self, size: int, width: float) -> None:
        """Record the number of tuples (and eps width) inside the current water band."""
        self.band_size_history.append(size)
        self.band_width_history.append(width)

    def record_single_read(self, cost: float = 0.0) -> None:
        """One Single Entity read."""
        self.single_reads += 1
        self.simulated_read_seconds += cost

    def record_batched_read(self, count: int, cost: float = 0.0) -> None:
        """One coalesced batch of ``count`` Single Entity reads."""
        self.single_reads += count
        self.batched_reads += count
        self.batch_rounds += 1
        self.simulated_read_seconds += cost

    def record_all_members(self, tuples_scanned: int, cost: float = 0.0) -> None:
        """One All Members read that touched ``tuples_scanned`` tuples."""
        self.all_member_reads += 1
        self.tuples_scanned_for_reads += tuples_scanned
        self.simulated_read_seconds += cost

    def record_range_read(self, tuples_scanned: int, cost: float = 0.0) -> None:
        """One pushed-down key-range read that touched ``tuples_scanned`` tuples."""
        self.range_reads += 1
        self.tuples_scanned_for_reads += tuples_scanned
        self.simulated_read_seconds += cost

    # -- derived ----------------------------------------------------------------------

    def average_band_size(self) -> float:
        """Mean number of tuples in the water band across recorded rounds."""
        if not self.band_size_history:
            return 0.0
        return sum(self.band_size_history) / len(self.band_size_history)

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for reporting (band histories summarized)."""
        return {
            "updates": self.updates,
            "reorganizations": self.reorganizations,
            "tuples_reclassified": self.tuples_reclassified,
            "labels_changed": self.labels_changed,
            "single_reads": self.single_reads,
            "batched_reads": self.batched_reads,
            "batch_rounds": self.batch_rounds,
            "all_member_reads": self.all_member_reads,
            "range_reads": self.range_reads,
            "tuples_scanned_for_reads": self.tuples_scanned_for_reads,
            "epsmap_hits": self.epsmap_hits,
            "simulated_update_seconds": self.simulated_update_seconds,
            "simulated_read_seconds": self.simulated_read_seconds,
            "simulated_reorganization_seconds": self.simulated_reorganization_seconds,
            "average_band_size": self.average_band_size(),
        }
