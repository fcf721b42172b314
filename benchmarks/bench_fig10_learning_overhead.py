"""Figure 10: overhead and quality of learning inside the RDBMS.

The paper compares SVMLight (a batch solver), a file-based SGD implementation,
and Hazy (SGD driven through the RDBMS, one update statement per example) on
MAGIC, ADULT and FOREST, reporting precision/recall and training time:

    Data set   SVMLight P/R  Time     SGD P/R   File    Hazy
    MAGIC      74.4/63.4     9.4s     74.1/62.3  0.3s    0.7s
    ADULT      86.7/92.7    11.4s     85.9/92.9  0.7s    1.1s
    FOREST     75.1/77.0   256.7m     71.3/80.0  52.9s   17.3m

Reproduced claims: the batch solver does far more work than single-pass SGD at
comparable quality, and driving the same SGD through the engine (triggers,
feature lookups, view maintenance) adds overhead over raw file-based SGD but
stays far cheaper than the batch solver.
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.core.maintainers import HazyEagerMaintainer
from repro.core.stores import InMemoryEntityStore
from repro.learn.batch import BatchSubgradientSVM
from repro.learn.metrics import precision_recall
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.workloads.synth_dense import DenseDatasetGenerator

PAPER_ROWS = {
    "MAGIC": {"svmlight_pr": "74.4/63.4", "sgd_pr": "74.1/62.3", "svmlight_time": "9.4s", "file_time": "0.3s", "hazy_time": "0.7s"},
    "ADULT": {"svmlight_pr": "86.7/92.7", "sgd_pr": "85.9/92.9", "svmlight_time": "11.4s", "file_time": "0.7s", "hazy_time": "1.1s"},
    "FOREST": {"svmlight_pr": "75.1/77.0", "sgd_pr": "71.3/80.0", "svmlight_time": "256.7m", "file_time": "52.9s", "hazy_time": "17.3m"},
}

#: Synthetic stand-ins: (dimensions, classes, entity count) shaped like each UCI set.
#: Forest is binarized (largest class vs rest) exactly as the paper does; the
#: stand-in uses two balanced prototypes so the binary task carries signal.
DATASET_SHAPES = {
    "MAGIC": (10, 2, 1500),
    "ADULT": (14, 2, 1500),
    "FOREST": (54, 2, 2500),
}


def _pr(model_predict, examples) -> tuple[float, float]:
    predicted = [model_predict(ex.features) for ex in examples]
    actual = [ex.label for ex in examples]
    return precision_recall(predicted, actual)


def build_table():
    rows = []
    for name, (dimensions, classes, count) in DATASET_SHAPES.items():
        generator = DenseDatasetGenerator(dimensions=dimensions, class_count=classes, seed=7)
        data = generator.generate_list(count)
        examples = [TrainingExample(ex.entity_id, ex.features, ex.label) for ex in data]
        split = int(0.9 * len(examples))
        train, test = examples[:split], examples[split:]

        # Batch solver (the SVMLight stand-in).
        batch = BatchSubgradientSVM(regularization=1e-3, iterations=60, tolerance=0.0)
        start = time.perf_counter()
        batch.fit(train)
        batch_seconds = time.perf_counter() - start
        batch_precision, batch_recall = _pr(batch.predict, test)

        # Single-pass SGD on raw vectors (the file-based stand-in).
        sgd = SGDTrainer(loss="svm")
        start = time.perf_counter()
        for example in train:
            sgd.absorb(example)
        sgd_seconds = time.perf_counter() - start
        sgd_precision, sgd_recall = _pr(sgd.predict, test)

        # The same SGD driven through view maintenance (the Hazy row).
        hazy_trainer = SGDTrainer(loss="svm")
        maintainer = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=2.0))
        maintainer.bulk_load([(ex.entity_id, ex.features) for ex in examples], hazy_trainer.model)
        start = time.perf_counter()
        for example in train:
            maintainer.apply_model(hazy_trainer.absorb(example))
        hazy_seconds = time.perf_counter() - start

        rows.append(
            {
                "dataset": name,
                "batch_P/R": f"{batch_precision:.2f}/{batch_recall:.2f}",
                "sgd_P/R": f"{sgd_precision:.2f}/{sgd_recall:.2f}",
                "batch_wall_s": round(batch_seconds, 2),
                "sgd_wall_s": round(sgd_seconds, 3),
                "hazy_wall_s": round(hazy_seconds, 3),
                "batch_example_visits": batch.examples_visited,
                "sgd_example_visits": len(train),
                "paper_svmlight": PAPER_ROWS[name]["svmlight_pr"] + " in " + PAPER_ROWS[name]["svmlight_time"],
                "paper_sgd_file_hazy": (
                    PAPER_ROWS[name]["sgd_pr"]
                    + f" in {PAPER_ROWS[name]['file_time']} / {PAPER_ROWS[name]['hazy_time']}"
                ),
            }
        )
    return rows


def test_fig10_learning_overhead(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Figure 10: batch solver vs SGD vs Hazy-driven SGD"))
    for row in rows:
        # The batch solver does at least an order of magnitude more example visits.
        assert row["batch_example_visits"] >= 10 * row["sgd_example_visits"]
        # And takes longer in wall-clock terms than single-pass SGD.
        assert row["batch_wall_s"] > row["sgd_wall_s"]
        # Driving the same SGD through view maintenance adds overhead over the
        # raw (file-style) SGD pass — the paper's "overhead of Hazy" column.
        assert row["hazy_wall_s"] >= row["sgd_wall_s"]
        # Quality: single-pass SGD stays in the same precision/recall ballpark
        # as the batch solver (the paper reports "as good, if not better").
        batch_p, batch_r = (float(x) for x in row["batch_P/R"].split("/"))
        sgd_p, sgd_r = (float(x) for x in row["sgd_P/R"].split("/"))
        assert abs(batch_p - sgd_p) < 0.35
        assert abs(batch_r - sgd_r) < 0.35
