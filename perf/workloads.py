"""The four workloads: what each stresses, its sizes and mix, and its inputs.

Inputs are handed to the program as plain SQL parameters; the program never
sees the seed.  Every workload is one
closed-loop client: the next statement is sent when the previous returns.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

#: Training examples inserted before ``CREATE CLASSIFICATION VIEW`` so the
#: timed phase starts from a warm model (the paper's Fig. 4 protocol).
WARM_EXAMPLES = 2000
#: Lifecycle tail: updates after serving with a WAL, and updates after the
#: last checkpoint that only the WAL preserves across the crash.
TAIL_UPDATES = 100
POST_CHECKPOINT_UPDATES = 25
#: Seed of the data set and feedback log, shared by every run (see make_inputs).
DATA_SEED = 2011

UPDATE_SQL = "INSERT INTO examples (id, label) VALUES (?, ?)"
POINT_SQL = "SELECT class FROM v WHERE id = ?"
MEMBERS_SQL = "SELECT id FROM v WHERE class = 1"
ENTITY_INSERT_SQL = "INSERT INTO entities (id, payload) VALUES (?, ?)"
ENTITY_UPDATE_SQL = "UPDATE entities SET payload = ? WHERE id = ?"
ENTITY_DELETE_SQL = "DELETE FROM entities WHERE id = ?"
CONTENTS_SQL = "SELECT id, class FROM v"
TOP_SQL = "SELECT id, margin FROM v ORDER BY margin DESC LIMIT 25"


@dataclass(frozen=True)
class Spec:
    """One workload: engine configuration, data shape and per-block op mix."""

    name: str
    why: str
    architecture: str
    approach: str
    entities: int
    vocabulary: int
    nonzeros: int
    positive_fraction: float
    #: (op kind, ops per block) in the order a block runs them.  Writes that
    #: a served view acknowledges before applying come right before the
    #: write-visible pairs, whose first read waits for them.
    mix: tuple[tuple[str, int], ...]
    blocks_per_second: float
    text: bool = False  # raw text through tf_idf_bag_of_words, else JSON vectors
    wire: bool = False  # client talks to repro.net.SQLServer over TCP
    served: bool = False  # SERVE VIEW is part of set-up
    wal: bool = False  # ... with a write-ahead log
    pool_divisor: int = 0  # buffer pool pages = entities // divisor (0: unbounded)
    checkpoint_every: int = 0  # blocks between incremental checkpoints
    warm: int = WARM_EXAMPLES
    setup_repeats: int = 3
    checkpoint_repeats: int = 5
    restore_repeats: int = 3  # each needs a fresh engine with the base tables reloaded

    @property
    def eager(self) -> bool:
        return self.approach == "eager"

    def blocks(self, seconds: float) -> int:
        return max(1, round(seconds * self.blocks_per_second))

    def tiny(self) -> "Spec":
        """The smoke-test size: same code paths, a hundredth of the work."""
        return replace(
            self,
            entities=240,
            vocabulary=min(self.vocabulary, 400),
            mix=tuple((kind, max(2, count // 6)) for kind, count in self.mix),
            warm=150,
            setup_repeats=1,
            checkpoint_repeats=1,
            restore_repeats=1,
            checkpoint_every=2 if self.checkpoint_every else 0,
        )


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="feedback_eager",
            why="in-process eager Hazy-MM (Fig. 4A): core band reclassification, learn and "
            "linalg do the work; serve, net and persist idle until the tail",
            architecture="mainmemory",
            approach="eager",
            entities=8000,
            vocabulary=2000,
            nonzeros=20,
            positive_fraction=0.3,
            mix=(("update", 12), ("point_read", 200), ("members_read", 12), ("write_visible", 12)),
            blocks_per_second=3.75,
        ),
        Spec(
            name="hybrid_lazy",
            why="in-process lazy hybrid, buffer pool a quarter of the heap (Fig. 4B/5/6): updates "
            "are one SGD step, reads pay through eps-map, buffer and simulated disk",
            architecture="hybrid",
            approach="lazy",
            entities=1500,
            vocabulary=20000,
            nonzeros=60,
            positive_fraction=0.3,
            mix=(("update", 30), ("point_read", 200), ("members_read", 10), ("write_visible", 12)),
            blocks_per_second=3.75,
            pool_divisor=20,
        ),
        Spec(
            name="wire_reads",
            why="served 2-shard view behind SQLServer, one TCP client: net frame codec and "
            "admission, connection plan cache and serve batcher do the work; core does little",
            architecture="mainmemory",
            approach="eager",
            entities=6000,
            vocabulary=2000,
            nonzeros=20,
            positive_fraction=0.3,
            mix=(("point_read", 250), ("members_read", 10), ("update", 12), ("write_visible", 12)),
            blocks_per_second=3.75,
            wire=True,
            served=True,
        ),
        Spec(
            name="durable_writes",
            why="served view with a WAL on a real directory, raw text through tf-idf, full CRUD: "
            "persist WAL and checkpoints, serve.maintenance and features do the work; reads little",
            architecture="mainmemory",
            approach="eager",
            entities=800,
            vocabulary=2000,
            nonzeros=40,
            positive_fraction=0.5,
            mix=(
                ("entity_insert", 12),
                ("entity_update", 12),
                ("entity_delete", 12),
                ("update", 24),
                ("write_visible", 12),
                ("point_read", 50),
                ("members_read", 10),
            ),
            blocks_per_second=5.0,
            text=True,
            served=True,
            wal=True,
            checkpoint_every=10,
        ),
    )
}


@dataclass
class Inputs:
    """Everything the client will send, in order, plus the ground truth."""

    entity_rows: list[tuple[int, str]]
    truth: dict[int, int]
    warm: list[tuple[int, int]]
    #: per block: op kind -> parameter tuples, one per op
    blocks: list[dict[str, list[tuple]]]
    tail: list[tuple[int, int]]
    post_checkpoint: list[tuple[int, int]]
    digest: str


def row_bytes(parameters: tuple) -> int:
    """Bytes of one row as the client sends it: text as UTF-8, numbers as 8 bytes."""
    return sum(
        len(value.encode("utf-8")) if isinstance(value, str) else 8 for value in parameters
    )


def make_inputs(spec: Spec, seed: int, blocks: int) -> Inputs:
    """The workload's entities and its whole op stream.

    The data set and the feedback log — corpus, labelled-example stream,
    entity churn — are part of the workload and the same for every seed.  The
    learning trajectory is chaotic: one Skiing reorganization a few updates
    earlier moves every later latency, and across ten *different* traces the
    lazy members read had a 17-24% quartile spread against 5% across repeats
    of one trace.  A benchmark that must resolve a 10% change between two
    commits cannot carry that, so ``seed`` draws only what does not feed
    back into the trajectory: which id each entity gets (so hashing, shard
    assignment and scan order differ) and which keys the point reads ask for.
    """
    from repro.persist.snapshot import encode_vector
    from repro.workloads import SparseCorpusGenerator

    fresh = dict(spec.mix).get("entity_insert", 0)
    preloaded = spec.entities + fresh  # the first block deletes the extra ones
    total = preloaded + fresh * blocks
    documents = SparseCorpusGenerator(
        vocabulary_size=spec.vocabulary,
        nonzeros_per_document=spec.nonzeros,
        positive_fraction=spec.positive_fraction,
        seed=DATA_SEED,
    ).generate_list(total)
    if spec.text:
        payloads = [document.text for document in documents]
    else:
        payloads = [json.dumps(encode_vector(document.features)) for document in documents]
    data = random.Random(DATA_SEED)
    public = list(range(total))  # document index -> the id this seed gives it
    random.Random(seed).shuffle(public)
    truth = {public[index]: document.label for index, document in enumerate(documents)}

    def example() -> tuple[int, int]:
        entity_id = public[data.randrange(spec.entities)]
        return entity_id, truth[entity_id]

    warm = [example() for _ in range(spec.warm)]
    current_text = dict(enumerate(payloads[: spec.entities])) if spec.text else {}
    doomed = list(range(spec.entities, preloaded))
    next_fresh = preloaded
    stream: list[dict[str, list[tuple]]] = []
    for _ in range(blocks):
        block: dict[str, list[tuple]] = {}
        for kind, count in spec.mix:
            if kind in ("update", "write_visible"):
                block[kind] = [example() for _ in range(count)]
            elif kind == "point_read":
                block[kind] = [(public[data.randrange(spec.entities)],) for _ in range(count)]
            elif kind == "members_read":
                block[kind] = [()] * count
            elif kind == "entity_insert":
                arrivals = range(next_fresh, next_fresh + count)
                block[kind] = [(public[index], payloads[index]) for index in arrivals]
                block["entity_delete"] = [(public[index],) for index in doomed]
                doomed = list(arrivals)
                next_fresh += count
            elif kind == "entity_update":
                rows = []
                while len(rows) < count:
                    index = data.randrange(spec.entities)
                    words = current_text[index].split()
                    if len(words) > 8:
                        # One word shorter: an in-place UPDATE may not outgrow its page slot.
                        current_text[index] = " ".join(words[1:])
                        rows.append((current_text[index], public[index]))
                block[kind] = rows
        stream.append(block)
    tail = [example() for _ in range(TAIL_UPDATES)]
    post_checkpoint = [example() for _ in range(POST_CHECKPOINT_UPDATES)]
    entity_rows = [(public[index], payloads[index]) for index in range(preloaded)]
    digest = hashlib.blake2b(
        repr((entity_rows, warm, stream, tail, post_checkpoint)).encode("utf-8"), digest_size=8
    ).hexdigest()
    return Inputs(entity_rows, truth, warm, stream, tail, post_checkpoint, digest)
