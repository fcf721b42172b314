"""Synchronization primitives for the serving subsystem.

Two small pieces:

* :class:`ReadWriteLock` — a writer-preferring readers/writer lock.  Many
  client threads may hold it shared (scatter/gather reads, batched read
  rounds); the background maintenance worker takes it exclusively only for the
  short *apply* phase of each batch.  Model retraining happens entirely
  outside the lock, which is what gives the subsystem its "reads never block
  behind retraining" property.
* :class:`SessionRegistry` — one client-side session per served view,
  lazily created and re-created when a view is re-served.  This is the
  "context" object :func:`repro.connect` threads through the SQL executor so
  that every SELECT a connection issues against a served view observes that
  connection's monotonic read-your-writes timeline.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock", "SessionRegistry"]


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Readers proceed concurrently; a waiting writer blocks *new* readers so the
    maintenance worker cannot starve under a heavy read load.
    """

    # Shared-state contract, enforced by repro-lint's lock pass.
    _GUARDED_BY = {
        "_active_readers": "_condition",
        "_writer_active": "_condition",
        "_writers_waiting": "_condition",
    }

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- reader side ----------------------------------------------------------------------

    def acquire_read(self) -> None:
        """Take the lock shared; blocks while a writer is active or waiting."""
        with self._condition:
            while self._writer_active or self._writers_waiting > 0:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Release one shared hold."""
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` — shared critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- writer side ----------------------------------------------------------------------

    def acquire_write(self) -> None:
        """Take the lock exclusively; waits for in-flight readers to drain."""
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers > 0:
                    self._condition.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        """Release the exclusive hold."""
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` — exclusive critical section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class SessionRegistry:
    """Per-connection map from served view name to its live ``ClientSession``.

    A session belongs to one ``ViewServer`` incarnation: when a view is
    stopped and served again (or restored from a checkpoint), the stale
    session is silently replaced — the new server's published epoch may have
    restarted, so carrying the old session's watermark across would raise
    spurious monotonicity violations.  A session holds its server weakly, so
    the registry never keeps a stopped server alive.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, object] = {}

    def session_for(self, name: str, server):
        """The session bound to ``name``, creating/replacing it as needed."""
        key = name.lower()
        session = self._sessions.get(key)
        if session is None or session._server() is not server:
            session = server.session()
            self._sessions[key] = session
        return session

    def note_write(self, name: str, server, ticket) -> None:
        """Record a write ticket so the view's next session read waits for it."""
        self.session_for(name, server).note_write(ticket)

    def clear(self) -> None:
        """Drop every session (connection close)."""
        self._sessions.clear()
