"""Property-based test: every cell of the matrix agrees with the declarative semantics.

For random corpora and random streams of updates (single and batched), entity
arrivals and removals, and reads of every kind, whatever a classification view
maintained by any (architecture, strategy, approach) cell answers must equal
the result of re-classifying the live entities with the model of that moment —
the paper's view semantics (§2.1).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_store
from repro.core.maintainers import MAINTAINERS, build_maintainer
from repro.core.stores import ARCHITECTURES
from repro.core.view import view_contents
from repro.db.types import KeyRange
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.workloads.synth_text import SparseCorpusGenerator

CELLS = [
    (architecture, strategy, approach)
    for architecture in ARCHITECTURES
    for strategy, approach in MAINTAINERS
]

ARRIVALS = 8

_examples = st.tuples(st.integers(min_value=0), st.sampled_from([-1, 1]))
_labels = st.sampled_from([-1, 1])
_picks = st.integers(min_value=0)

STEPS = st.one_of(
    st.tuples(st.just("update"), _examples),
    st.tuples(st.just("update"), _examples),
    st.tuples(st.just("batch"), st.lists(_examples, min_size=1, max_size=4)),
    st.tuples(st.just("add"), st.none()),
    st.tuples(st.just("remove"), _picks),
    st.tuples(st.just("read_single"), _picks),
    st.tuples(st.just("read_many"), st.lists(_picks, min_size=1, max_size=12)),
    st.tuples(st.just("read_all_members"), _labels),
    st.tuples(st.just("read_range"), st.tuples(_labels, _picks, _picks)),
)


@st.composite
def maintenance_scenarios(draw):
    """A random corpus plus a random stream of updates, arrivals, removals and reads."""
    corpus_seed = draw(st.integers(min_value=0, max_value=10_000))
    corpus_size = draw(st.integers(min_value=10, max_value=60))
    generator = SparseCorpusGenerator(
        vocabulary_size=120, nonzeros_per_document=6, positive_fraction=0.4, seed=corpus_seed
    )
    documents = generator.generate_list(corpus_size + ARRIVALS)
    steps = draw(st.lists(STEPS, min_size=1, max_size=30))
    alpha = draw(st.sampled_from([0.1, 1.0, 3.0]))
    return documents, steps, alpha


def check_scenario(cell, scenario):
    """Drive the stream through one cell, checking every read against the oracle."""
    architecture, strategy, approach = cell
    documents, steps, alpha = scenario
    arrivals = documents[-ARRIVALS:]
    live = {doc.entity_id: doc.features for doc in documents[:-ARRIVALS]}
    trainer = SGDTrainer()
    store = build_store(architecture, buffer_fraction=0.1, buffer_pool_pages=16)
    maintainer = build_maintainer(strategy, approach, store, alpha=alpha)
    maintainer.bulk_load(list(live.items()), trainer.model)

    def absorb(example):
        index, label = example
        doc = documents[index % len(documents)]
        return trainer.absorb(TrainingExample(doc.entity_id, doc.features, label))

    def pick(index):
        ids = sorted(live)
        return ids[index % len(ids)]

    for operation, argument in steps:
        oracle = view_contents(live.items(), trainer.model)
        if operation == "update":
            maintainer.apply_model(absorb(argument))
        elif operation == "batch":
            maintainer.apply_model_batch([absorb(example) for example in argument])
        elif operation == "add" and arrivals:
            doc = arrivals.pop()
            live[doc.entity_id] = doc.features
            assert maintainer.add_entity(doc.entity_id, doc.features) == trainer.model.predict(
                doc.features
            )
        elif operation == "remove" and len(live) > 2:
            victim = pick(argument)
            del live[victim]
            maintainer.remove_entity(victim)
        elif operation == "read_single":
            entity_id = pick(argument)
            assert maintainer.read_single(entity_id) == oracle[entity_id]
        elif operation == "read_many":
            ids = [pick(index) for index in argument]
            assert maintainer.read_many(ids) == {entity_id: oracle[entity_id] for entity_id in ids}
        elif operation == "read_all_members":
            assert sorted(maintainer.read_all_members(argument)) == sorted(
                entity_id for entity_id, label in oracle.items() if label == argument
            )
        elif operation == "read_range":
            label, first, second = argument
            low, high = sorted((pick(first), pick(second)))
            key_range = KeyRange(low, high, include_high=False)
            assert sorted(maintainer.read_range(label, key_range)) == sorted(
                entity_id
                for entity_id, entity_label in oracle.items()
                if entity_label == label and low <= entity_id < high
            )
    oracle = view_contents(live.items(), trainer.model)
    assert maintainer.contents() == oracle
    return maintainer, oracle


class TestViewConsistencyProperty:
    @given(maintenance_scenarios(), st.sampled_from(CELLS))
    @settings(max_examples=60, deadline=None)
    def test_every_strategy_matches_final_model_semantics(self, scenario, cell):
        check_scenario(cell, scenario)

    @given(maintenance_scenarios(), st.sampled_from(["ondisk", "hybrid"]))
    @settings(max_examples=15, deadline=None)
    def test_hazy_eager_consistent_on_disk_architectures(self, scenario, architecture):
        maintainer, oracle = check_scenario((architecture, "hazy", "eager"), scenario)
        positive = {eid for eid, lab in oracle.items() if lab == 1}
        assert set(maintainer.read_all_members(1)) == positive
