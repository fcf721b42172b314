"""Learning substrate: linear models, incremental trainers, kernels.

The Hazy paper treats the learning algorithm as a pluggable subroutine — the
view-maintenance machinery only needs a sequence of models ``(w(i), b(i))``
produced by *incremental* training.  This package provides that substrate:

* :mod:`repro.learn.loss` / :mod:`repro.learn.regularizers` — the convex
  building blocks of Figure 9: the hinge, squared and logistic losses a
  view's ``USING`` clause picks, and the L2 penalty.  Figure 9b's other
  penalties have no SQL spelling (no clause of ``CREATE CLASSIFICATION VIEW``
  names a penalty), so L2 is the only one exposed.
* :mod:`repro.learn.model` — the ``(w, b)`` pair itself.  A model version is
  a value: built once by the trainer, shared by reference, never changed — a
  frozen dataclass whose ``w`` is one read-only array
  (:mod:`repro.learn.weights`).
* :mod:`repro.learn.sgd` — Bottou-style stochastic gradient descent, Hazy's
  trainer: one step per example, its schedule and penalty strength module
  constants.
* :mod:`repro.learn.batch` — a batch sub-gradient SVM solver standing in for
  SVMLight in the Figure 10 comparison.
* :mod:`repro.learn.kernels`, :mod:`repro.learn.random_features` — kernel
  functions and the Rahimi–Recht linearization of shift-invariant kernels
  (Appendix B.5), which turns a kernel classifier into a linear one the
  maintainers handle unchanged.
* :mod:`repro.learn.metrics` — precision/recall/accuracy/F1.
"""

from repro.learn.batch import BatchSubgradientSVM
from repro.learn.kernels import (
    GaussianKernel,
    Kernel,
    LaplacianKernel,
)
from repro.learn.loss import HingeLoss, LogisticLoss, Loss, SquaredLoss, get_loss
from repro.learn.metrics import accuracy, confusion_counts, f1_score, precision_recall
from repro.learn.model import LinearModel
from repro.learn.random_features import RandomFourierFeatures
from repro.learn.regularizers import L2Penalty
from repro.learn.sgd import SGDTrainer, TrainingExample

__all__ = [
    "Loss",
    "HingeLoss",
    "LogisticLoss",
    "SquaredLoss",
    "get_loss",
    "L2Penalty",
    "LinearModel",
    "TrainingExample",
    "SGDTrainer",
    "BatchSubgradientSVM",
    "Kernel",
    "GaussianKernel",
    "LaplacianKernel",
    "RandomFourierFeatures",
    "accuracy",
    "precision_recall",
    "f1_score",
    "confusion_counts",
]
