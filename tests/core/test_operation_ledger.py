"""Golden ledger: every cell of the matrix charges exactly what it charged before.

Every store charges an ``IOStatistics`` ledger by float accumulation and the
Skiing strategy compares accumulated floats against ``alpha * S``, so the
*order* of charges inside an operation is part of the contract: a reordering
that is algebraically neutral can flip a reorganization at a knife edge and
move every figure behind it.  This test drives one fixed stream through every
architecture x strategy x approach cell and compares every answer, the
simulated clock after every step, the per-tag ledger, the maintenance counters
and each round's band size and width with values recorded once and committed in
``operation_ledger_golden.json``.

When a change is *meant* to move the ledger, regenerate the golden values with
``PYTHONPATH=src python tests/core/test_operation_ledger.py --record`` and say
in the PR which tags moved and why.

A store scores a run either through the batched kernel (the main-memory
store's feature mirror, or a lazy read's band on disk) or through the scalar
loop, by a size rule; the *differential* test at the bottom drives the same
stream through every cell with the rule forced each way and requires the two
sides to agree on everything, stored ``eps`` included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.bench.harness import build_store
from repro.core.maintainers import MAINTAINERS, build_maintainer
from repro.core.stores import ARCHITECTURES, mainmemory, ondisk
from repro.core.stores.base import EntityStore
from repro.db.costmodel import CostModel
from repro.db.types import KeyRange
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.workloads.synth_text import SparseCorpusGenerator

GOLDEN_PATH = Path(__file__).with_name("operation_ledger_golden.json")

CELLS = [
    (architecture, strategy, approach)
    for architecture in ARCHITECTURES
    for strategy, approach in MAINTAINERS
]

ROUNDS = 90


def cell_name(cell: tuple[str, str, str]) -> str:
    return "/".join(cell)


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _plain(value: object) -> object:
    """Floats as ``repr`` strings, so equality means bit-equality."""
    return repr(value) if isinstance(value, float) else value


def run_stream(architecture: str, strategy: str, approach: str) -> dict[str, object]:
    """Drive the fixed operation stream through one cell and summarize what it left.

    Entity ids are ints, every choice comes from seeded ``random.Random``
    instances and the models from a seeded trainer, so nothing depends on
    ``PYTHONHASHSEED`` or on the order tests run in.
    """
    corpus = SparseCorpusGenerator(
        vocabulary_size=150, nonzeros_per_document=8, positive_fraction=0.4, seed=5
    ).generate_list(260)
    initial, arrivals = corpus[:220], corpus[220:]
    trainer = SGDTrainer(loss="svm")
    rng = random.Random(23)

    def next_model():
        doc = rng.choice(corpus)
        return trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))

    for _ in range(200):
        next_model()

    # 1 KiB pages behind a four-page pool: the disk-backed cells really evict.
    store = build_store(
        architecture,
        feature_norm_q=1.0,
        buffer_fraction=0.1,
        buffer_pool_pages=4,
        cost_model=CostModel(page_size_bytes=1024),
    )
    maintainer = build_maintainer(strategy, approach, store, alpha=0.5)
    trace: list[list[object]] = []
    # The statistics keep only band totals; the per-round sizes and widths the
    # digest pins are collected here, at the recording call.
    band_sizes: list[int] = []
    band_widths: list[str] = []
    record_band = maintainer.stats.record_band

    def recording_band(size: int) -> None:
        band_sizes.append(size)
        band_widths.append(repr(maintainer.tracker.band().width()))
        record_band(size)

    maintainer.stats.record_band = recording_band

    def step(operation: str, answer: object = None) -> None:
        trace.append([operation, answer, repr(store.stats.simulated_seconds)])

    maintainer.bulk_load([(doc.entity_id, doc.features) for doc in initial], trainer.model)
    step("bulk_load")
    live = [doc.entity_id for doc in initial]
    for round_index in range(ROUNDS):
        if round_index % 4 == 3:
            maintainer.apply_model_batch([next_model() for _ in range(4)])
            step("apply_model_batch")
        else:
            maintainer.apply_model(next_model())
            step("apply_model")
        for entity_id in rng.sample(live, 3):
            step("read_single", maintainer.read_single(entity_id))
        if round_index % 3 == 0:
            ids = rng.choices(live, k=10)
            answer = maintainer.read_many(ids)
            step("read_many", sorted(answer.items()))
        if round_index % 5 == 1:
            step("read_all_members+", maintainer.read_all_members(1))
            step("read_all_members-", maintainer.read_all_members(-1))
        if round_index % 7 == 2:
            low = rng.randrange(0, 150)
            step("read_range+", maintainer.read_range(1, KeyRange(low, low + 60)))
            step("read_range-", maintainer.read_range(-1, KeyRange(low, include_low=False)))
        if round_index % 6 == 4 and arrivals:
            doc = arrivals.pop()
            step("add_entity", maintainer.add_entity(doc.entity_id, doc.features))
            live.append(doc.entity_id)
        if round_index % 9 == 8:
            victim = live.pop(rng.randrange(len(live)))
            maintainer.remove_entity(victim)
            step("remove_entity", victim)
    step("contents", sorted(maintainer.contents().items()))

    stats = maintainer.stats
    io = dataclasses.asdict(store.stats)
    detail = io.pop("detail")
    for counter in ("epsmap_served", "buffer_served", "disk_served"):
        if hasattr(store, counter):
            io[counter] = getattr(store, counter)
    stored = [[record.entity_id, repr(record.eps), record.label] for record in store.scan_all()]
    return {
        "stored_digest": _digest(stored),
        "trace_digest": _digest(trace),
        "band_digest": _digest([band_sizes, band_widths]),
        "detail": {tag: repr(seconds) for tag, seconds in sorted(detail.items())},
        "io": {key: _plain(value) for key, value in io.items()},
        "maintenance": {key: _plain(value) for key, value in stats.as_dict().items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_declared_matrix(golden):
    assert sorted(golden) == sorted(cell_name(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_name)
def test_cell_matches_the_recorded_ledger(cell, golden):
    first = run_stream(*cell)
    expected = golden[cell_name(cell)]
    # Per-tag totals first: a mismatch here names the tag that moved.
    assert first["detail"] == expected["detail"]
    assert first["maintenance"] == expected["maintenance"]
    assert first["io"] == expected["io"]
    assert first["band_digest"] == expected["band_digest"]
    assert first["trace_digest"] == expected["trace_digest"]
    # Same stream, same process, second run: nothing leaks between runs.
    assert run_stream(*cell) == first


@pytest.mark.parametrize("cell", CELLS, ids=cell_name)
def test_stream_exercises_what_it_claims(cell, golden):
    """The stream is only a pin if the band is non-empty and Skiing actually fires."""
    architecture, strategy, approach = cell
    maintenance = golden[cell_name(cell)]["maintenance"]
    for counter in ("updates", "single_reads", "batched_reads", "all_member_reads", "range_reads"):
        assert maintenance[counter] > 0
    if strategy == "hazy" and architecture == "mainmemory":
        assert maintenance["reorganizations"] >= 1
    if strategy == "hazy" and approach == "eager":
        assert float(maintenance["average_band_size"]) > 0.0


#: The module each architecture's batched scoring calls the kernel from.
KERNEL_CALLERS = {"mainmemory": mainmemory, "ondisk": ondisk, "hybrid": ondisk}

#: ``EntityStore._kernel_pays`` forced each way: every non-empty run, or none.
FORCED_SIZE_RULES = {
    "kernel": lambda store, rows, model, nonzeros=None: rows > 0,
    "scalar": lambda store, rows, model, nonzeros=None: False,
}


@pytest.mark.parametrize("approach", ["eager", "lazy"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("strategy", ["hazy", "naive"])
def test_kernel_and_scalar_scoring_leave_the_same_ledger(
    strategy, architecture, approach, monkeypatch
):
    """Size rule forced to "always kernel" and to "never kernel", in every cell.

    Every answer, every stored ``eps``, the simulated clock after every step,
    the per-tag totals, the I/O counters and the band rounds must be equal —
    with entity inserts and deletes between the updates, and (Hazy, main
    memory) several reorganizations on each side.  The eager cells score a
    relabel pass (main memory only: the disk stores relabel through the scan
    loop), the lazy cells every All Members and key-range read's band.  The
    rule is patched here, in the test: it is not an option.
    """
    kernel_calls = []
    caller = KERNEL_CALLERS[architecture]
    real_kernel = caller.sparse_margins

    def counting_kernel(*args):
        kernel_calls.append(len(args[3]))
        return real_kernel(*args)

    monkeypatch.setattr(caller, "sparse_margins", counting_kernel)
    sides = {}
    for side, rule in FORCED_SIZE_RULES.items():
        monkeypatch.setattr(EntityStore, "_kernel_pays", rule)
        kernel_calls.clear()
        sides[side] = run_stream(architecture, strategy, approach)
        maintenance = sides[side]["maintenance"]
        if side == "scalar":
            assert not kernel_calls
        elif approach == "lazy":
            # Most member reads score a non-empty band (all of them, naive).
            reads = maintenance["all_member_reads"] + maintenance["range_reads"]
            assert len(kernel_calls) >= reads // 2
        elif architecture == "mainmemory":
            # Every relabel pass that touched a tuple, and every reorganization.
            assert len(kernel_calls) >= maintenance["updates"] // 2
            assert sum(kernel_calls) >= maintenance["tuples_reclassified"]
        else:
            assert not kernel_calls
        if strategy == "hazy" and architecture == "mainmemory":
            assert maintenance["reorganizations"] >= 1
    assert sides["kernel"] == sides["scalar"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    recorded = {}
    for cell in CELLS:
        recorded[cell_name(cell)] = run_stream(*cell)
        del recorded[cell_name(cell)]["stored_digest"]  # the differential test's, not the golden's
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells to {GOLDEN_PATH}")
