"""Classification view definitions and semantics (paper §2.1).

A classification view ``V(id, class)`` is defined by a pair ``(In, T)``:
``In(id, f)`` gives every entity and its feature vector, ``T(id, l)`` the
training examples.  A model ``(w, b)`` trained from ``T`` defines the view's
contents as ``{(id, sign(w·f - b))}``.  :func:`view_contents` implements that
semantics directly (the oracle the incremental strategies are tested against);
:class:`ClassificationViewDefinition` carries the declarative pieces parsed
from ``CREATE CLASSIFICATION VIEW``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import ViewDefinitionError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector

__all__ = ["ClassificationViewDefinition", "view_contents"]

#: Methods the ``USING`` clause may name, mapped to loss names of repro.learn.
SUPPORTED_METHODS = {
    "svm": "svm",
    "logistic": "logistic",
    "logistic_regression": "logistic",
    "ridge": "ridge",
    "ridge_regression": "ridge",
    "least_squares": "ridge",
}


@dataclass(frozen=True)
class ClassificationViewDefinition:
    """The declarative definition of one classification view.

    Mirrors the clauses of the ``CREATE CLASSIFICATION VIEW`` statement
    (Example 2.1): where the entities live, where the training examples live,
    which feature function translates tuples to vectors, and (optionally)
    which classification method to use.
    """

    view_name: str
    entities_table: str
    entities_key: str
    examples_table: str
    examples_key: str
    examples_label: str
    feature_function: str
    view_key: str = "id"
    labels_table: str | None = None
    labels_column: str | None = None
    method: str | None = None

    def __post_init__(self) -> None:
        if not self.view_name:
            raise ViewDefinitionError("classification view needs a name")
        if not self.entities_table or not self.entities_key:
            raise ViewDefinitionError(
                f"view {self.view_name!r}: ENTITIES FROM <table> KEY <column> is required"
            )
        if not self.examples_table or not self.examples_key or not self.examples_label:
            raise ViewDefinitionError(
                f"view {self.view_name!r}: EXAMPLES FROM <table> KEY <col> LABEL <col> is required"
            )
        if not self.feature_function:
            raise ViewDefinitionError(f"view {self.view_name!r}: FEATURE FUNCTION is required")
        if self.method is not None and self.method.lower() not in SUPPORTED_METHODS:
            raise ViewDefinitionError(
                f"view {self.view_name!r}: unsupported method {self.method!r}; "
                f"supported: {sorted(SUPPORTED_METHODS)}"
            )

    def loss_name(self) -> str | None:
        """The loss-function name implied by the ``USING`` clause (None = auto)."""
        if self.method is None:
            return None
        return SUPPORTED_METHODS[self.method.lower()]


def view_contents(
    entities: Iterable[tuple[object, SparseVector]], model: LinearModel
) -> dict[object, int]:
    """The declarative semantics of a classification view.

    Returns ``{entity_id: sign(w·f - b)}`` for every entity.  This is the
    ground truth every maintenance strategy must agree with — the consistency
    property tests compare maintainer output against this function.
    """
    return {entity_id: model.predict(features) for entity_id, features in entities}
