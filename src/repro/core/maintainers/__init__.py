"""Maintenance strategies for classification views, and the matrix they fill.

The paper's operations are written once, in
:class:`~repro.core.maintainers.base.ViewMaintainer`; the four classes here
are the cells of its strategy × approach grid and hold only what differs:

* :class:`NaiveEagerMaintainer` — on every model update, rescan and relabel
  every entity (the state-of-the-art baseline the paper compares against).
* :class:`HazyEagerMaintainer` — reclassify only the water band, with the
  Skiing strategy deciding when to recluster (§3.2).
* :class:`NaiveLazyMaintainer` — updates are free; every read reclassifies
  whatever it touches with the current model.
* :class:`HazyLazyMaintainer` — lazy reads pruned by the water band, with the
  §3.4 waste accounting driving reorganizations.

:data:`MAINTAINERS` declares the grid and :func:`build_maintainer` is how the
engine, the bench harness and the tests instantiate a cell, over any
architecture of :data:`repro.core.stores.STORES`.
"""

from repro.core.maintainers.base import ViewMaintainer
from repro.core.maintainers.hazy import HazyEagerMaintainer, HazyLazyMaintainer
from repro.core.maintainers.naive import NaiveEagerMaintainer, NaiveLazyMaintainer
from repro.core.stores.base import EntityStore
from repro.exceptions import ConfigurationError

#: The strategy × approach matrix, keyed on the names each class declares.
MAINTAINERS: dict[tuple[str, str], type[ViewMaintainer]] = {
    (cls.strategy_name, cls.approach): cls
    for cls in (HazyEagerMaintainer, HazyLazyMaintainer, NaiveEagerMaintainer, NaiveLazyMaintainer)
}
#: Valid strategy names and approaches.
STRATEGIES = tuple(dict.fromkeys(strategy for strategy, _ in MAINTAINERS))
APPROACHES = tuple(dict.fromkeys(approach for _, approach in MAINTAINERS))


def build_maintainer(
    strategy: str, approach: str, store: EntityStore, alpha: float = 1.0
) -> ViewMaintainer:
    """Instantiate the ``(strategy, approach)`` cell over ``store``.

    ``alpha`` is the Skiing threshold multiplier, which the naive strategies do not take.
    """
    cls = MAINTAINERS.get((strategy, approach))
    if cls is None:
        raise ConfigurationError(f"unknown strategy/approach {strategy!r}/{approach!r}")
    if strategy == "naive":
        return cls(store)
    return cls(store, alpha=alpha)


__all__ = [
    "APPROACHES",
    "MAINTAINERS",
    "STRATEGIES",
    "ViewMaintainer",
    "NaiveEagerMaintainer",
    "NaiveLazyMaintainer",
    "HazyEagerMaintainer",
    "HazyLazyMaintainer",
    "build_maintainer",
]
