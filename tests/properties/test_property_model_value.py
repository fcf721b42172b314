"""A model version is a value, and it is the value the in-place trainer made.

:class:`~repro.learn.sgd.SGDTrainer` builds each next model once, from a
regularizer step that returns a new vector, and hands the same object to
everyone.  Before that it changed one model in place and handed out a copy
per step.  Labels are ``sign(w . f - b)`` and Skiing compares accumulated
floats, so the new trainer is not allowed to be *close* to the old one: the
weights (in stored order), the bias and the version must be the same bits
after every step.  The old trainer is kept here, as the reference, and only
here.

The radius of Lemma 3.1, ``||w - w_s||_p``, is likewise one pass
(:meth:`~repro.linalg.SparseVector.distance`) that must be the same bits as
building the difference and taking its norm.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn.loss import get_loss
from repro.learn.model import LinearModel
from repro.learn.regularizers import ElasticNetPenalty, L1Penalty, L2Penalty
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector


def model_bits(model: LinearModel) -> tuple:
    """A model as exact bits: ordered ``(index, value.hex())`` weights, bias, version."""
    return [(i, v.hex()) for i, v in model.weights.items()], model.bias.hex(), model.version


def shrink_in_place(penalty, weights: SparseVector, learning_rate: float) -> None:
    """The regularizer step as it was: ``weights`` changed in place."""
    if isinstance(penalty, ElasticNetPenalty):
        shrink_in_place(penalty._l2, weights, learning_rate)
        shrink_in_place(penalty._l1, weights, learning_rate)
    elif isinstance(penalty, L2Penalty):
        factor = 1.0 - learning_rate * penalty.strength
        if factor < 0.0:
            factor = 0.0
        weights.scale_inplace(factor)
    else:
        assert isinstance(penalty, L1Penalty)
        shrink = learning_rate * penalty.strength
        if shrink <= 0.0:
            return
        updated: dict[int, float] = {}
        for index, value in weights.items():
            if value > shrink:
                updated[index] = value - shrink
            elif value < -shrink:
                updated[index] = value + shrink
        for index in list(weights.indices()):
            weights[index] = 0.0
        for index, value in updated.items():
            weights[index] = value


class InPlaceTrainer:
    """The trainer as it was: one model changed in place, a copy handed out."""

    def __init__(self, loss, regularizer, regularization, fit_bias, seed):
        self.loss = get_loss(loss)
        self.regularizer = {"l2": L2Penalty, "l1": L1Penalty, "elastic_net": ElasticNetPenalty}[
            regularizer
        ](regularization)
        self.learning_rate, self.decay, self.fit_bias = 0.3, 0.02, fit_bias
        self._rng = random.Random(seed)
        self._steps = 0
        self.model = LinearModel()

    def load_state(self, model, steps=None):
        self.model = model.copy()
        self._steps = int(model.version if steps is None else steps)

    def absorb(self, example):
        eta = self.learning_rate / (1.0 + self.decay * self._steps)
        margin = self.model.margin(example.features)
        grad = self.loss.derivative(margin, float(example.label))
        shrink_in_place(self.regularizer, self.model.weights, eta)
        if grad != 0.0:
            self.model.weights.add_inplace(example.features, -eta * grad)
            if self.fit_bias:
                self.model.bias += eta * grad
        self._steps += 1
        self.model.version = self._steps
        return self.model.copy()

    def absorb_many(self, examples):
        snapshot = self.model.copy()
        for example in examples:
            snapshot = self.absorb(example)
        return snapshot

    def fit(self, examples, epochs):
        order = list(examples)
        for _ in range(epochs):
            self._rng.shuffle(order)
            for example in order:
                self.absorb(example)
        return self.model.copy()


feature_values = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.5, 1e-3, 1e-160, -2.5e-308]),
)
examples = st.builds(
    TrainingExample,
    entity_id=st.just(0),
    features=st.dictionaries(st.integers(0, 11), feature_values, max_size=6).map(SparseVector),
    label=st.sampled_from([-1, 1]),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), examples),
        st.tuples(st.just("absorb_many"), st.lists(examples, max_size=4)),
        st.tuples(st.just("fit"), st.lists(examples, min_size=1, max_size=4), st.integers(1, 2)),
        st.tuples(
            st.just("load_state"),
            st.dictionaries(st.integers(0, 11), feature_values, max_size=6),
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
    ops=operations,
    loss=st.sampled_from(["svm", "logistic", "ridge"]),
    regularizer=st.sampled_from(["l2", "l1", "elastic_net"]),
    regularization=st.sampled_from([0.0, 1e-4, 0.05, 0.5, 5.0]),
    fit_bias=st.booleans(),
    seed=st.integers(0, 3),
)
def test_the_trainer_is_the_in_place_trainer_as_bits(
    ops, loss, regularizer, regularization, fit_bias, seed
):
    trainer = SGDTrainer(
        loss=loss, regularizer=regularizer, regularization=regularization,
        fit_bias=fit_bias, seed=seed,
    )
    reference = InPlaceTrainer(loss, regularizer, regularization, fit_bias, seed)
    handed_out: list[tuple[LinearModel, tuple]] = []
    for op, *args in ops:
        if op == "load_state":
            # Resume from a model, then absorb one example on top of it.
            weights, bias, version, steps, example = args
            loaded = LinearModel(SparseVector(weights), bias, version)
            trainer.load_state(loaded, steps)
            reference.load_state(LinearModel(SparseVector(weights), bias, version), steps)
            handed_out.append((loaded, model_bits(loaded)))
            got, want = trainer.absorb(example), reference.absorb(example)
        else:
            got, want = getattr(trainer, op)(*args), getattr(reference, op)(*args)
        assert model_bits(got) == model_bits(want)
        assert model_bits(trainer.model) == model_bits(reference.model)
        handed_out.append((got, model_bits(got)))
    # Every model the trainer handed out is still the value it was.
    assert [model_bits(model) for model, _ in handed_out] == [bits for _, bits in handed_out]



#: Finite weights, including what makes a norm take its rescaled path:
#: subnormals, values whose squares underflow, values near overflow whose
#: differences overflow; and the explicit ``+-0.0`` entries an underflowing
#: L2 shrink leaves behind.
weight_values = st.one_of(
    st.floats(min_value=-10, max_value=10),  # where summation order shows in the last bit
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 2.5e-308, 1e-160, 1e308, -1e308,
         1.7976931348623157e308, 0.0, -0.0]
    ),
)


def vector_of(pairs: list[tuple[int, float]]) -> SparseVector:
    """A vector holding exactly ``pairs``, in that order — explicit zeros included."""
    vector = SparseVector()
    vector._data.update(pairs)
    return vector


weight_vectors = st.lists(
    st.tuples(st.integers(0, 40), weight_values), max_size=20, unique_by=lambda pair: pair[0]
).map(vector_of)


@settings(max_examples=500, deadline=None)
@given(
    current=weight_vectors,
    stored=weight_vectors,
    cancelled=st.lists(st.integers(0, 40), max_size=10),
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
)
def test_distance_is_the_norm_of_the_difference_as_bits(current, stored, cancelled, p):
    # Keys in ``cancelled`` the current model holds take the same value in
    # the stored one: their differences cancel exactly.
    for index in cancelled:
        if index in current:
            stored._data[index] = current._data[index]
    assert current.distance(stored, p).hex() == current.subtract(stored).norm(p).hex()
    assert stored.distance(current, p).hex() == stored.subtract(current).norm(p).hex()
