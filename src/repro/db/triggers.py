"""Row-level triggers.

Hazy "monitors the relevant views for updates" using standard triggers: an
``AFTER INSERT`` trigger on the training-example table is what drives the
incremental maintenance loop.  This module provides exactly that mechanism for
the substrate's tables, and nothing more: a trigger always runs its callback
inline.  Whether the work is done there or handed to a serving pipeline is
the callback's own decision (``ClassificationView._on_write`` asks its view
"am I served?"), so any number of views over one table stay independent.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["TriggerEvent", "Trigger", "TriggerSet"]


class TriggerEvent(enum.Enum):
    """The row-level events a trigger can fire on."""

    AFTER_INSERT = "after_insert"
    AFTER_UPDATE = "after_update"
    AFTER_DELETE = "after_delete"


#: A trigger callback receives (table_name, new_row_or_None, old_row_or_None).
TriggerCallback = Callable[[str, dict[str, object] | None, dict[str, object] | None], None]

@dataclass(frozen=True)
class Trigger:
    """A named trigger: an event plus a callback."""

    name: str
    event: TriggerEvent
    callback: TriggerCallback


@dataclass
class TriggerSet:
    """The triggers attached to one table, indexed by event."""

    _triggers: dict[TriggerEvent, list[Trigger]] = field(default_factory=dict)

    def add(self, trigger: Trigger) -> None:
        """Attach a trigger."""
        self._triggers.setdefault(trigger.event, []).append(trigger)

    def remove(self, name: str) -> bool:
        """Detach the trigger called ``name``; returns True if found."""
        removed = False
        for event, triggers in self._triggers.items():
            kept = [t for t in triggers if t.name != name]
            if len(kept) != len(triggers):
                removed = True
                self._triggers[event] = kept
        return removed

    def fire(
        self,
        event: TriggerEvent,
        table_name: str,
        new_row: dict[str, object] | None,
        old_row: dict[str, object] | None,
    ) -> None:
        """Invoke every trigger registered for ``event`` in registration order."""
        for trigger in self._triggers.get(event, []):
            trigger.callback(table_name, new_row, old_row)

    def names(self) -> list[str]:
        """Names of all attached triggers."""
        return [t.name for triggers in self._triggers.values() for t in triggers]
