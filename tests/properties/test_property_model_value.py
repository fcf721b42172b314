"""A model version is a dense, read-only array, and it is what the dict trainer made.

:class:`~repro.learn.sgd.SGDTrainer` builds each next model once — a
vectorised shrink into a fresh array, the loss step written into it, the array
frozen — and hands the same object to everyone.  Before that a model's
weights were a dict (the dict-backed vector ``tests/linalg/dict_vector.py``
keeps).  Labels are
``sign(w . f - b)`` and Skiing compares accumulated floats, so the array
trainer is not allowed to be *close* to the dict one: after every step each
weight, read by index, must be the same bits (a zero of either sign, stored
or not, counts as zero), and so must the bias and the version.  The dict
trainer is kept here, as the reference, and only here: the L2 step the
trainer takes, at every penalty strength the hypothesis draws (patched into
:data:`repro.learn.sgd.REGULARIZATION`).  Its margin folds over
the feature vector's stored order, as ``LinearModel.margin`` does; the dict
model's own ``dot`` folded over whichever operand had fewer entries, the one
place where the two were allowed to part.

The radius of Lemma 3.1, ``||w - w_s||_p``
(:func:`repro.core.bounds.weight_distance`), is likewise held against the dict
form: the same bits as ``subtract(...).norm(inf)`` for ``p = inf``, within
``1e-12`` relative of an exactly rounded sum for ``p`` in ``{1, 2, 3}``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import weight_distance
from repro.learn import sgd
from repro.learn.loss import get_loss
from repro.learn.model import LinearModel
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.learn.weights import Weights
from repro.linalg import SparseVector
from tests.linalg.dict_vector import DictVector


def weight_bits(weights) -> dict[int, str]:
    """Non-zero weights by index, as exact bits (either container)."""
    return {index: value.hex() for index, value in weights.items() if value != 0.0}


def model_bits(model) -> tuple:
    return weight_bits(model.weights), model.bias.hex(), model.version


class DictModel:
    """A model as it was: a dict of weights, a bias, a version."""

    def __init__(self, weights: DictVector, bias: float = 0.0, version: int = 0):
        self.weights, self.bias, self.version = weights, bias, version

    def margin(self, features: SparseVector) -> float:
        weight, total = self.weights.__getitem__, 0.0
        for index, value in features.items():
            total += value * weight(index)
        return total - self.bias


def dict_shrink(strength: float, weights: DictVector, learning_rate: float):
    """The L2 step as it was, over a dict: a new vector, ``weights`` untouched."""
    factor = max(0.0, 1.0 - learning_rate * strength)
    return weights.scale(factor)


class DictTrainer:
    """The trainer as it was: each step a new dict model."""

    def __init__(self, loss, regularization):
        self.loss = get_loss(loss)
        self.strength = regularization
        self.learning_rate, self.decay = 0.3, 0.02
        self._steps = 0
        self.model = DictModel(DictVector())

    def load_state(self, model, steps=None):
        self.model = model
        self._steps = int(model.version if steps is None else steps)

    def absorb(self, example):
        eta = self.learning_rate / (1.0 + self.decay * self._steps)
        grad = self.loss.derivative(self.model.margin(example.features), float(example.label))
        weights = dict_shrink(self.strength, self.model.weights, eta)
        bias = self.model.bias
        if grad != 0.0:
            weights.add_inplace(example.features, -eta * grad)
            bias += eta * grad
        self._steps += 1
        self.model = DictModel(weights, bias, self._steps)
        return self.model

    def absorb_many(self, examples):
        for example in examples:
            self.absorb(example)
        return self.model


feature_values = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.5, 1e-3, 1e-160, -2.5e-308]),
)


def feature_vectors(width: int):
    """Vectors over ``0..width-1``, their indices in arbitrary order: wider than
    the model early in a stream, so the dict ``dot`` would have folded over the model."""
    return st.dictionaries(st.integers(0, width - 1), feature_values, max_size=width).map(
        SparseVector
    )


def example_stream(width: int):
    examples = st.builds(
        TrainingExample,
        entity_id=st.just(0),
        features=feature_vectors(width),
        label=st.sampled_from([-1, 1]),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("absorb"), examples),
            st.tuples(st.just("absorb_many"), st.lists(examples, max_size=8)),
            st.tuples(
                st.just("load_state"),
                st.dictionaries(st.integers(0, width - 1), feature_values, max_size=6),
                feature_values,
                st.integers(0, 40),
                st.one_of(st.none(), st.integers(0, 40)),
                examples,
            ),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=200, deadline=None)
@given(
    ops=st.sampled_from([12, 50]).flatmap(example_stream),
    loss=st.sampled_from(["svm", "logistic", "ridge"]),
    regularization=st.sampled_from([0.0, 1e-4, 0.05, 0.5, 5.0]),
)
def test_the_trainer_is_the_dict_trainer_as_bits(ops, loss, regularization):
    with mock.patch.object(sgd, "REGULARIZATION", regularization):
        trainer = SGDTrainer(loss)
    reference = DictTrainer(loss, regularization)
    handed_out: list[tuple[LinearModel, tuple]] = []
    for op, *args in ops:
        if op == "load_state":
            # Resume from a model, then absorb one example on top of it.
            weights, bias, version, steps, example = args
            loaded = LinearModel(Weights.of(SparseVector(weights)), bias, version)
            trainer.load_state(loaded, steps)
            reference.load_state(DictModel(DictVector(weights), bias, version), steps)
            handed_out.append((loaded, model_bits(loaded)))
            got, want = trainer.absorb(example), reference.absorb(example)
        else:
            got, want = getattr(trainer, op)(*args), getattr(reference, op)(*args)
        assert model_bits(got) == model_bits(want)
        assert not got.weights.array.flags.writeable
        handed_out.append((got, model_bits(got)))
    # Every model the trainer handed out is still the value it was.
    assert [model_bits(model) for model, _ in handed_out] == [bits for _, bits in handed_out]


#: Finite weights, including what makes a norm take its rescaled path:
#: subnormals, values whose squares underflow, values near overflow whose
#: differences overflow; and explicit ``+-0.0`` cells.
weight_values = st.one_of(
    st.floats(min_value=-10, max_value=10),  # where summation order shows in the last bit
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 2.5e-308, 1e-160, 1e308, -1e308,
         1.7976931348623157e308, 0.0, -0.0]
    ),
)


weight_vectors = st.lists(
    st.tuples(st.integers(0, 40), weight_values), max_size=20, unique_by=lambda pair: pair[0]
).map(DictVector.from_pairs)


def weights_of(vector: DictVector) -> Weights:
    """The weight array holding ``vector``'s entries, explicit ``+-0.0`` cells included."""
    array = np.zeros(max((index for index, _ in vector.items()), default=-1) + 1)
    for index, value in vector.items():
        array[index] = value
    return Weights(array)


def exact_norm(values: list[float], p: float) -> float:
    """``||values||_p`` with an exactly rounded sum over magnitudes scaled by the largest."""
    scale = max(map(abs, values), default=0.0)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * math.fsum((abs(value) / scale) ** p for value in values) ** (1.0 / p)


@settings(max_examples=500, deadline=None)
@given(
    current=weight_vectors,
    stored=weight_vectors,
    cancelled=st.lists(st.integers(0, 40), max_size=10),
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
)
def test_the_radius_is_the_norm_of_the_dict_difference(current, stored, cancelled, p):
    # Keys in ``cancelled`` the current model holds take the same value in
    # the stored one: their differences cancel exactly.
    for index in cancelled:
        if index in current:
            stored._data[index] = current._data[index]
    for left, right in ((current, stored), (stored, current)):
        got = weight_distance(weights_of(left), weights_of(right), p)
        difference = left.subtract(right)
        if p == math.inf:
            assert got.hex() == difference.norm(p).hex()
        else:
            assert math.isclose(got, exact_norm(list(difference.values()), p), rel_tol=1e-12)
