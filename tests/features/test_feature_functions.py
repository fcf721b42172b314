"""Unit tests for feature functions (tf, tf-idf, TF-ICF, dense) and the registry."""

from __future__ import annotations

import pytest

from repro.exceptions import FeatureError
from repro.features import (
    DenseColumnsFeature,
    FeatureFunctionRegistry,
    TfBagOfWords,
    TfIcfBagOfWords,
    TfIdfBagOfWords,
    default_registry,
    tokenize,
)
from repro.features.text import Vocabulary


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert tokenize("data-base, systems!") == ["data", "base", "systems"]

    def test_keeps_numbers(self):
        assert tokenize("vldb 2011") == ["vldb", "2011"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestVocabulary:
    def test_get_or_add_assigns_sequential_indices(self):
        vocab = Vocabulary()
        assert vocab.get_or_add("a") == 0
        assert vocab.get_or_add("b") == 1
        assert vocab.get_or_add("a") == 0

    def test_get_returns_none_for_unknown(self):
        assert Vocabulary().get("missing") is None

    def test_tokens_in_index_order(self):
        vocab = Vocabulary()
        vocab.add_all(["x", "y", "z"])
        assert vocab.tokens() == ["x", "y", "z"]

    def test_contains_and_len(self):
        vocab = Vocabulary()
        vocab.add_all(["a", "b"])
        assert "a" in vocab
        assert len(vocab) == 2


class TestTfBagOfWords:
    def test_counts_term_frequencies(self):
        feature = TfBagOfWords(text_columns=("text",), normalize=False)
        vector = feature.compute_feature({"text": "db db systems"})
        db_index = feature.vocabulary.get("db")
        systems_index = feature.vocabulary.get("systems")
        assert dict(vector.items()) == {db_index: 2.0, systems_index: 1.0}

    def test_l1_normalization_default(self):
        feature = TfBagOfWords()
        vector = feature.compute_feature({"text": "a a b b"})
        assert vector.norm(1) == pytest.approx(1.0)

    def test_vocabulary_indices_stable_across_documents(self):
        feature = TfBagOfWords()
        first = dict(feature.compute_feature({"text": "alpha beta"}).items())
        second = dict(feature.compute_feature({"text": "beta gamma"}).items())
        beta = feature.vocabulary.get("beta")
        assert first[beta] > 0 and second[beta] > 0

    def test_multiple_text_columns_concatenated(self):
        feature = TfBagOfWords(text_columns=("title", "abstract"), normalize=False)
        vector = feature.compute_feature({"title": "query", "abstract": "query plans"})
        assert dict(vector.items())[feature.vocabulary.get("query")] == 2.0

    def test_missing_column_treated_as_empty(self):
        feature = TfBagOfWords(text_columns=("title",))
        assert feature.compute_feature({}).nnz() == 0

    def test_dimension_tracks_vocabulary(self):
        feature = TfBagOfWords()
        feature.compute_stats_incremental({"text": "one two three"})
        assert feature.dimension() == 3

    def test_declared_norm_is_l1(self):
        assert TfBagOfWords().norm_q == 1.0


class TestTfIdf:
    def test_requires_stats_before_features(self):
        feature = TfIdfBagOfWords()
        with pytest.raises(FeatureError):
            feature.compute_feature({"text": "db"})

    def test_compute_stats_counts_document_frequencies(self):
        feature = TfIdfBagOfWords()
        feature.compute_stats([{"text": "db systems"}, {"text": "db theory"}])
        db = feature.vocabulary.get("db")
        theory = feature.vocabulary.get("theory")
        assert feature.document_frequency[db] == 2
        assert feature.document_frequency[theory] == 1
        assert feature.document_count == 2

    def test_rare_terms_weighted_higher(self):
        feature = TfIdfBagOfWords(normalize=False)
        feature.compute_stats([{"text": "db systems"}, {"text": "db theory"}, {"text": "db"}])
        vector = dict(feature.compute_feature({"text": "db theory"}).items())
        assert vector[feature.vocabulary.get("theory")] > vector[feature.vocabulary.get("db")]

    def test_incremental_stats_update(self):
        feature = TfIdfBagOfWords()
        feature.compute_stats([{"text": "db"}])
        feature.compute_stats_incremental({"text": "db streams"})
        assert feature.document_count == 2
        assert feature.document_frequency[feature.vocabulary.get("db")] == 2

    def test_l2_normalized_by_default(self):
        feature = TfIdfBagOfWords()
        feature.compute_stats([{"text": "db systems theory"}])
        assert feature.compute_feature({"text": "db systems"}).norm(2) == pytest.approx(1.0)


class TestTfIcf:
    def test_stats_freeze_after_corpus_scan(self):
        feature = TfIcfBagOfWords()
        feature.compute_stats([{"text": "db systems"}, {"text": "db"}])
        assert feature.frozen
        before = dict(feature.corpus_frequency)
        feature.compute_stats_incremental({"text": "db streams streams"})
        assert feature.corpus_frequency == before

    def test_incremental_allowed_until_frozen(self):
        feature = TfIcfBagOfWords()
        feature.compute_stats_incremental({"text": "db"})
        assert feature.corpus_size == 1
        feature.freeze()
        feature.compute_stats_incremental({"text": "db"})
        assert feature.corpus_size == 1

    def test_unseen_terms_get_maximum_icf(self):
        feature = TfIcfBagOfWords(normalize=False)
        feature.compute_stats([{"text": "db db systems"}])
        vector = dict(feature.compute_feature({"text": "db novelterm"}).items())
        assert vector[feature.vocabulary.get("novelterm")] > vector[feature.vocabulary.get("db")]

    def test_feature_computable_before_any_stats(self):
        feature = TfIcfBagOfWords()
        assert feature.compute_feature({"text": "hello"}).nnz() == 1


class TestDenseColumns:
    def test_requires_columns(self):
        with pytest.raises(FeatureError):
            DenseColumnsFeature(columns=())

    def test_vector_positions_follow_declaration_order(self):
        feature = DenseColumnsFeature(columns=("a", "b"), rescale=False, normalize=False)
        vector = feature.compute_feature({"a": 2.0, "b": 5.0})
        assert dict(vector.items()) == {0: 2.0, 1: 5.0}

    def test_rescaling_to_unit_range(self):
        feature = DenseColumnsFeature(columns=("a",), rescale=True, normalize=False)
        feature.compute_stats([{"a": 0.0}, {"a": 10.0}])
        assert dict(feature.compute_feature({"a": 5.0}).items()) == {0: pytest.approx(0.5)}

    def test_constant_column_rescales_to_zero(self):
        feature = DenseColumnsFeature(columns=("a",), rescale=True, normalize=False)
        feature.compute_stats([{"a": 3.0}, {"a": 3.0}])
        assert feature.compute_feature({"a": 3.0}).nnz() == 0

    def test_l2_normalization(self):
        feature = DenseColumnsFeature(columns=("a", "b"), rescale=False, normalize=True)
        assert feature.compute_feature({"a": 3.0, "b": 4.0}).norm(2) == pytest.approx(1.0)

    def test_missing_values_read_as_zero(self):
        feature = DenseColumnsFeature(columns=("a", "b"), rescale=False, normalize=False)
        assert dict(feature.compute_feature({"a": 1.0}).items()) == {0: 1.0}

    def test_fixed_dimension(self):
        assert DenseColumnsFeature(columns=("a", "b", "c")).dimension() == 3


class TestRegistry:
    def test_default_registry_has_paper_functions(self):
        registry = default_registry()
        for name in ("tf_bag_of_words", "tf_idf_bag_of_words", "tf_icf_bag_of_words"):
            assert name in registry

    def test_create_returns_fresh_instances(self):
        registry = default_registry()
        first = registry.create("tf_bag_of_words")
        second = registry.create("tf_bag_of_words")
        assert first is not second

    def test_names_are_case_insensitive(self):
        registry = default_registry()
        assert isinstance(registry.create("TF_BAG_OF_WORDS"), TfBagOfWords)

    def test_unknown_name_raises(self):
        with pytest.raises(FeatureError):
            default_registry().create("unknown_feature")

    def test_duplicate_registration_rejected(self):
        registry = FeatureFunctionRegistry()
        registry.register("custom", TfBagOfWords)
        with pytest.raises(FeatureError):
            registry.register("custom", TfBagOfWords)

    def test_replace_flag_allows_override(self):
        registry = FeatureFunctionRegistry()
        registry.register("custom", TfBagOfWords)
        registry.register("custom", TfIdfBagOfWords, replace=True)
        assert isinstance(registry.create("custom"), TfIdfBagOfWords)

    def test_names_listing(self):
        registry = FeatureFunctionRegistry()
        registry.register("b_feature", TfBagOfWords)
        registry.register("a_feature", TfBagOfWords)
        assert registry.names() == ["a_feature", "b_feature"]
