"""Unit tests for view definitions/semantics and maintenance statistics."""

from __future__ import annotations

import pytest

from repro.core.stats import MaintenanceStatistics
from repro.core.view import ClassificationViewDefinition, view_contents
from repro.exceptions import ViewDefinitionError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector
from tests import golden


def definition(**overrides) -> ClassificationViewDefinition:
    base = dict(
        view_name="labeled_papers",
        entities_table="papers",
        entities_key="id",
        examples_table="example_papers",
        examples_key="id",
        examples_label="label",
        feature_function="tf_bag_of_words",
    )
    base.update(overrides)
    return ClassificationViewDefinition(**base)


class TestViewDefinition:
    def test_valid_definition(self):
        assert definition().view_name == "labeled_papers"

    def test_missing_name_rejected(self):
        with pytest.raises(ViewDefinitionError):
            definition(view_name="")

    def test_missing_entities_rejected(self):
        with pytest.raises(ViewDefinitionError):
            definition(entities_table="")
        with pytest.raises(ViewDefinitionError):
            definition(entities_key="")

    def test_missing_examples_rejected(self):
        with pytest.raises(ViewDefinitionError):
            definition(examples_label="")

    def test_missing_feature_function_rejected(self):
        with pytest.raises(ViewDefinitionError):
            definition(feature_function="")

    def test_unsupported_method_rejected(self):
        with pytest.raises(ViewDefinitionError):
            definition(method="random_forest")

    def test_supported_methods_map_to_losses(self):
        assert definition(method="SVM").loss_name() == "svm"
        assert definition(method="ridge_regression").loss_name() == "ridge"
        assert definition(method="logistic").loss_name() == "logistic"
        assert definition().loss_name() is None


class TestViewContents:
    def test_semantics_follow_sign_rule(self, simple_model, example_paper_vectors):
        entities = [(name, vector) for name, vector in example_paper_vectors.items()]
        contents = view_contents(entities, simple_model)
        assert contents == {"P1": 1, "P2": -1, "P3": 1, "P4": -1, "P5": -1}

    def test_empty_entities(self, simple_model):
        assert view_contents([], simple_model) == {}

    def test_zero_model_labels_everything_positive(self):
        entities = [(1, SparseVector({0: -5.0})), (2, SparseVector({0: 5.0}))]
        assert view_contents(entities, LinearModel()) == {1: 1, 2: 1}


class TestMaintenanceStatistics:
    def test_record_update_accumulates(self):
        stats = MaintenanceStatistics()
        stats.record_update(10, 2, 0.5)
        stats.record_update(5, 1, 0.25)
        assert stats.updates == 2
        assert stats.tuples_reclassified == 15
        assert stats.labels_changed == 3
        assert stats.simulated_update_seconds == pytest.approx(0.75)

    def test_band_totals_and_average(self):
        stats = MaintenanceStatistics()
        stats.record_band(10)
        stats.record_band(20)
        assert stats.band_rounds == 2
        assert stats.band_size_total == 30
        assert stats.average_band_size() == 15.0

    def test_average_band_size_empty(self):
        assert MaintenanceStatistics().average_band_size() == 0.0

    def test_read_counters(self):
        stats = MaintenanceStatistics()
        stats.record_single_read(0.1)
        stats.record_all_members(100, 0.4)
        assert stats.single_reads == 1
        assert stats.all_member_reads == 1
        assert stats.tuples_scanned_for_reads == 100
        assert stats.simulated_read_seconds == pytest.approx(0.5)

    def test_total_simulated_seconds(self):
        stats = MaintenanceStatistics()
        stats.record_update(1, 0, 1.0)
        stats.record_reorganization(2.0)
        stats.record_single_read(0.5)
        total = (
            stats.simulated_update_seconds
            + stats.simulated_read_seconds
            + stats.simulated_reorganization_seconds
        )
        assert total == pytest.approx(3.5)

    def test_as_dict_contains_key_counters(self):
        stats = MaintenanceStatistics()
        stats.record_update(1, 1, 0.1)
        summary = stats.as_dict()
        assert summary["updates"] == 1
        assert "average_band_size" in summary
        # A reported counter is one some maintainer writes: every key moves in
        # at least one cell of the recorded operation stream.
        recorded = golden.cells("ledger").values()
        for key in summary:
            assert any(float(cell["maintenance"][key]) != 0.0 for cell in recorded), key
