"""Each store's bulk lazy All Members read against the per-tuple loop, *as bits*.

``EntityStore.lazy_members`` is written once as a loop over ``store.scan`` —
the definition — and answered in bulk by the main-memory store (bisected
slices, the band through its feature mirror) and the on-disk store (one fetch
a page, the band's vectors scored together; the hybrid delegates to its
disk).  Skiing compares accumulated floats and a buffer pool's residency
decides every later hit and miss, so the override must leave exactly what the
loop leaves: the same members in the same order, the same number classified,
every ``IOStatistics`` counter and ``detail`` entry (values as bits) and the
pool's resident pages in the same LRU order.

Each architecture's stores are built twice from one drawn history — a load,
label writes that dirty pages, a reorganization, deletes after it that leave
tombstones on disk and inserts after those (appended to the heap, so the
disk's page order is no longer eps order) — on 1 KiB pages behind a two- to
four-page pool, and read with either label, with an empty, narrow, drawn or
whole water band or none, with or without a key range with strict bounds,
and with the kernel/scalar size rule forced either way or left alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_store
from repro.core.stores import ARCHITECTURES
from repro.core.stores.base import EntityStore
from repro.db.costmodel import CostModel
from repro.db.types import KeyRange
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector

DIMENSION = 24

values = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).filter(bool)
vectors = st.lists(
    st.tuples(st.integers(0, DIMENSION - 1), values),
    min_size=1,
    max_size=7,
    unique_by=lambda pair: pair[0],
).map(SparseVector)
models = st.builds(
    lambda cells, bias: LinearModel(weights=Weights(np.array(cells)), bias=bias),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=DIMENSION),
    st.floats(-1.0, 1.0),
)
picks = st.integers(min_value=0)
arrivals = st.tuples(vectors, st.floats(-6.0, 6.0), st.sampled_from([-1, 1]))
#: The last arrivals may carry a NaN eps (a diverged model's): it breaks the
#: main-memory clustering's order, which sends that store's read to the loop.
#: Nothing is deleted or relabelled after them — neither store can find a NaN
#: eps again to do that.
last_arrivals = st.tuples(
    vectors, st.floats(-6.0, 6.0) | st.just(math.nan), st.sampled_from([-1, 1])
)

STEPS = st.one_of(
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("insert"), arrivals),
    st.tuples(st.just("relabel"), picks),
    st.tuples(st.just("reorganize"), models),
)


@st.composite
def histories(draw):
    """A corpus, its load model and writes: a reorganization, then tombstones and arrivals."""
    corpus = draw(st.lists(vectors, min_size=4, max_size=45))
    steps = draw(st.lists(STEPS, max_size=14))
    steps.append(("reorganize", draw(models)))
    steps += draw(st.lists(st.tuples(st.just("delete"), picks), max_size=4))
    steps += [("insert", entry) for entry in draw(st.lists(last_arrivals, max_size=8))]
    return corpus, draw(models), steps


#: The kernel/scalar size rule forced each way (left alone: the store's own).
FORCED = {
    "kernel": lambda store, rows, model, nonzeros=None: rows > 0,
    "scalar": lambda store, rows, model, nonzeros=None: False,
}


def build(architecture: str, pool_pages: int, corpus, load_model, steps) -> EntityStore:
    """One store through one history; the same arguments always give the same store."""
    store = build_store(
        architecture,
        buffer_fraction=0.1,
        buffer_pool_pages=pool_pages,
        cost_model=CostModel(page_size_bytes=1024),
    )
    store.bulk_load(list(enumerate(corpus)), load_model)
    live = list(range(len(corpus)))
    next_id = len(corpus)
    for kind, argument in steps:
        if kind == "delete" and live:
            store.delete(live.pop(argument % len(live)))
        elif kind == "insert":
            features, eps, label = argument
            store.insert(next_id, features, eps, label)
            live.append(next_id)
            next_id += 1
        elif kind == "relabel" and live:
            entity_id = live[argument % len(live)]
            store.update_label(entity_id, -store.get(entity_id).label)
        elif kind == "reorganize":
            store.reorganize(argument)
    return store


def ledger(store: EntityStore) -> dict[str, object]:
    """Everything a read may leave behind, floats as bits."""
    stats = dataclasses.asdict(store.stats)
    detail = {tag: seconds.hex() for tag, seconds in stats.pop("detail").items()}
    stats["simulated_seconds"] = stats["simulated_seconds"].hex()
    disk = getattr(store, "disk", store)
    pool = getattr(disk, "pool", None)
    resident = [] if pool is None else list(pool._resident)
    return {"stats": stats, "detail": detail, "resident": resident}


def band_of(kind: str, eps: list[float], draw) -> tuple[float, float] | None:
    """A water band of the given kind over the stored ``eps`` (sorted)."""
    eps = eps or [0.0]
    if kind == "none":
        return None
    if kind == "whole":
        return (-math.inf, math.inf)
    if kind == "empty":  # strictly between two stored eps, or past them all
        return (eps[-1] + 1.0, eps[-1] + 1.0)
    if kind == "narrow":
        middle = eps[len(eps) // 2]
        return (middle, middle)
    low = draw(st.floats(-6.0, 6.0))
    return (low, low + draw(st.floats(0.0, 6.0)))


@settings(max_examples=300, deadline=None)
@given(
    pool_pages=st.integers(2, 4),
    history=histories(),
    model=models,
    label=st.sampled_from([-1, 1]),
    band_kind=st.sampled_from(["none", "whole", "empty", "narrow", "drawn"]),
    whole_table=st.booleans(),
    keyed=st.booleans(),
    size_rule=st.sampled_from([None, "kernel", "scalar"]),
    data=st.data(),
)
def test_bulk_read_is_the_loop(
    pool_pages, history, model, label, band_kind, whole_table, keyed, size_rule, data
):
    corpus, load_model, steps = history
    stored = build("mainmemory", pool_pages, corpus, load_model, steps)
    records = list(stored.scan_all())
    band = band_of(band_kind, sorted(record.eps for record in records), data.draw)
    if whole_table or band is None:
        run = None
    else:
        run = (band[0], None) if label == 1 else (None, band[1])
    key_range = None
    if keyed:  # strict bounds around, inside or past the stored ids
        top = len(records) + 8
        low = data.draw(st.integers(-1, top))
        key_range = KeyRange(
            low, data.draw(st.integers(low, top + 1)), include_low=False, include_high=False
        )
    for architecture in ARCHITECTURES:
        bulk = build(architecture, pool_pages, corpus, load_model, steps)
        loop = build(architecture, pool_pages, corpus, load_model, steps)
        rule = EntityStore._kernel_pays
        if size_rule is not None:
            EntityStore._kernel_pays = FORCED[size_rule]
        try:
            got = bulk.lazy_members(label, model, run, band, key_range)
            want = EntityStore.lazy_members(loop, label, model, run, band, key_range)
        finally:
            EntityStore._kernel_pays = rule
        assert got == want, architecture
        assert ledger(bulk) == ledger(loop), architecture
