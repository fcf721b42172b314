"""Deterministic cost model for the simulated storage hierarchy.

The paper's experiments run on a 2.4 GHz Core2 with two SATA disks; absolute
seconds are not reproducible here, so every storage operation charges a
deterministic cost (in *simulated seconds*) instead.  The defaults encode the
classic ratios that drive the paper's results: a random page read costs about
four orders of magnitude more than touching a tuple in memory, sequential
reads are ~10x cheaper than random ones, and sorting is asymptotically more
expensive than scanning (which is what makes ``sigma -> 0`` as data grows,
Theorem 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated costs, all in seconds.

    SQL plan operators add no charge of their own: a query costs the storage
    operations its plan performs.

    Attributes
    ----------
    random_page_read / random_page_write:
        Cost of fetching / flushing one page with a random access pattern
        (~5 ms, a SATA-era seek + rotation).
    sequential_page_read / sequential_page_write:
        Cost per page when access is sequential (~0.5 ms per 8 KB page at
        ~160 MB/s sequential bandwidth).
    tuple_cpu:
        CPU cost of touching one tuple in memory (classification dot product
        excluded — that is charged separately per non-zero).
    dot_product_per_nonzero:
        CPU cost per non-zero component of a feature vector when computing
        ``w . f``.
    sort_per_tuple_factor:
        Reorganization sorts the scratch table; its CPU cost is
        ``sort_per_tuple_factor * n * log2(n)``.
    featurize_per_nonzero:
        CPU cost per produced non-zero of featurizing one entity tuple
        (tokenizing, hashing and normalizing a document costs far more per
        term than the dot product that later consumes it).  Charged on cold
        bulk loads and entity inserts; warm restarts import pre-featurized
        state and skip it, which is most of their win.
    model_update:
        Cost of one incremental training step (the paper reports "roughly on
        the order of 100 microseconds" for retraining the model, §2.2).
    statement_overhead:
        Per-statement RDBMS overhead for point queries (parsing, planning,
        trigger dispatch); this is what bounds the main-memory Single Entity
        read rate at ~14k reads/s as in Figure 5.
    """

    random_page_read: float = 5e-3
    random_page_write: float = 5e-3
    sequential_page_read: float = 5e-4
    sequential_page_write: float = 5e-4
    tuple_cpu: float = 2e-7
    dot_product_per_nonzero: float = 1e-8
    featurize_per_nonzero: float = 5e-7
    sort_per_tuple_factor: float = 4e-7
    model_update: float = 1e-4
    statement_overhead: float = 7e-5
    page_size_bytes: int = 8192

    def sort_cost(self, tuple_count: int) -> float:
        """CPU cost of sorting ``tuple_count`` tuples (n log n)."""
        if tuple_count <= 1:
            return self.sort_per_tuple_factor
        import math

        return self.sort_per_tuple_factor * tuple_count * math.log2(tuple_count)

    def scan_cost(self, page_count: int, tuple_count: int) -> float:
        """Cost of a sequential scan over ``page_count`` pages / ``tuple_count`` tuples."""
        return page_count * self.sequential_page_read + tuple_count * self.tuple_cpu

    def dot_product_cost(self, nonzeros: int) -> float:
        """CPU cost of one ``w . f`` with ``nonzeros`` non-zero components."""
        return max(1, nonzeros) * self.dot_product_per_nonzero

    def featurize_cost(self, nonzeros: int) -> float:
        """CPU cost of featurizing one entity tuple into ``nonzeros`` components."""
        return max(1, nonzeros) * self.featurize_per_nonzero

    @classmethod
    def main_memory(cls) -> "CostModel":
        """A cost model with no I/O penalty — models the Hazy-MM architecture."""
        return cls(
            random_page_read=0.0,
            random_page_write=0.0,
            sequential_page_read=0.0,
            sequential_page_write=0.0,
        )
