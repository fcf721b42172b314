"""Request and ticket types exchanged between the front-end and the pipeline.

Writes accepted by the :class:`~repro.serve.server.ViewServer` — directly or
from a served view's trigger body — are normalized into :class:`WriteOp`
values (a :class:`~repro.core.writes.WriteKind`, re-exported here, plus the
rows) and pushed onto the maintenance worker's bounded queue.  Each enqueue
hands back a :class:`WriteTicket`; when the worker makes the batch containing
the op visible, the ticket resolves to that epoch, which is how client
sessions implement read-your-writes.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.writes import WriteKind

__all__ = ["WriteKind", "WriteOp", "WriteTicket"]


class WriteTicket:
    """A handle resolving to the epoch at which a write became visible."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._epoch: int | None = None
        self._error: BaseException | None = None
        #: Called when someone starts waiting on the still-unresolved ticket;
        #: the maintenance worker hooks its "start the round now" in here.
        self.on_wait: Callable[[], None] | None = None

    def resolve(self, epoch: int) -> None:
        """Mark the write visible as of ``epoch`` (called by the worker)."""
        self._epoch = epoch
        self._event.set()

    def fail(self, error: BaseException) -> None:
        """Mark the write failed; ``wait`` re-raises ``error``."""
        self._error = error
        self._event.set()

    def wait(self, timeout: float | None = None) -> int:
        """Block until applied; returns the visibility epoch.

        Waiting on a write that is still queued demands its maintenance round
        at once instead of leaving it to the worker's deadline.
        """
        if self.on_wait is not None and not self._event.is_set():
            self.on_wait()
        if not self._event.wait(timeout):
            raise TimeoutError("write not applied within timeout")
        if self._error is not None:
            raise self._error
        assert self._epoch is not None
        return self._epoch

    @property
    def done(self) -> bool:
        """Whether the write has been applied (or failed)."""
        return self._event.is_set()


@dataclass
class WriteOp:
    """One normalized write: its kind, the row(s) involved, and its ticket."""

    kind: WriteKind
    row: dict[str, object] | None = None
    old_row: dict[str, object] | None = None
    ticket: WriteTicket = field(default_factory=WriteTicket)
    #: Sequence number assigned by the server's write-ahead log before the op
    #: was enqueued (None when the server runs without a WAL).  Publishing an
    #: epoch records the highest applied seq so checkpoints know where
    #: recovery's replay must start.
    wal_seq: int | None = None
