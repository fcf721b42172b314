"""A thread-safe pool of network connections with health-checked checkout.

Dialing a socket and completing the protocol handshake is the expensive part
of talking to a :class:`~repro.net.server.SQLServer`; the pool amortizes it
across many client threads::

    pool = ConnectionPool("127.0.0.1", port, size=8)
    with pool.connection() as conn:
        rows = conn.execute("SELECT class FROM v WHERE id = ?", (3,)).fetchall()
    pool.close()

``size`` bounds *total* connections (checked out + idle); a thread asking for
a connection when all are busy blocks up to :data:`ACQUIRE_TIMEOUT_S` (or the
``timeout`` given to :meth:`ConnectionPool.acquire`) and then raises
:class:`~repro.exceptions.PoolExhaustedError`.  Checkout health-checks
idle members — a connection poisoned by a timeout, closed by the server, or
failing its ping is discarded and replaced with a fresh dial, so a server
restart heals transparently.

Note the pool does **not** multiplex: each checked-out connection maps to one
server-side session, so read-your-writes holds *per checkout*.  A thread that
writes and then wants to observe its write must do both on the same
checked-out connection (the ``with pool.connection()`` block).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.exceptions import ConfigurationError, PoolExhaustedError
from repro.net.client import DEFAULT_TIMEOUT_S, NetworkConnection, connect

__all__ = ["ConnectionPool"]

#: How long :meth:`ConnectionPool.acquire` waits for a free slot by default.
ACQUIRE_TIMEOUT_S = 30.0


class ConnectionPool:
    """Bounded, health-checked pool of :class:`NetworkConnection` objects.

    Parameters
    ----------
    host / port:
        The server to dial.
    size:
        Maximum live connections (idle + checked out).
    timeout:
        Per-request deadline applied to every pooled connection.
    """

    # Shared-state contract, enforced by repro-lint's lock pass: acquire()
    # runs concurrently from many application threads.
    _GUARDED_BY = {
        "_idle": "_condition",
        "_live": "_condition",
        "_closed": "_condition",
        "dials_total": "_condition",
        "checkouts_total": "_condition",
        "health_replacements_total": "_condition",
    }

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        *,
        timeout: float | None = DEFAULT_TIMEOUT_S,
    ) -> None:
        if size < 1:
            raise ConfigurationError("pool size must be at least 1")
        self.host = host
        self.port = int(port)
        self.size = int(size)
        self.timeout = timeout
        self._condition = threading.Condition()
        self._idle: deque[NetworkConnection] = deque()
        self._live = 0  # idle + checked out
        self._closed = False
        self.dials_total = 0
        self.checkouts_total = 0
        self.health_replacements_total = 0

    # -- checkout / checkin --------------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> NetworkConnection:
        """Check out a healthy connection; dial lazily up to ``size``."""
        deadline = time.perf_counter() + (timeout if timeout is not None else ACQUIRE_TIMEOUT_S)
        while True:
            with self._condition:
                if self._closed:
                    raise ConfigurationError("pool is closed")
                if self._idle:
                    candidate = self._idle.popleft()
                elif self._live < self.size:
                    self._live += 1
                    candidate = None  # dial outside the lock
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._condition.wait(timeout=remaining):
                        raise PoolExhaustedError(
                            f"no free connection among {self.size} within the timeout"
                        )
                    continue
            if candidate is None:
                try:
                    candidate = self._dial()
                except BaseException:
                    with self._condition:
                        self._live -= 1
                        self._condition.notify()
                    raise
            elif not self._healthy(candidate):
                # Replace the dead member; the slot is already ours.
                candidate.close()
                with self._condition:
                    self.health_replacements_total += 1
                try:
                    candidate = self._dial()
                except BaseException:
                    with self._condition:
                        self._live -= 1
                        self._condition.notify()
                    raise
            with self._condition:
                self.checkouts_total += 1
            return candidate

    def release(self, connection: NetworkConnection) -> None:
        """Return a checked-out connection (broken ones are discarded)."""
        with self._condition:
            if self._closed or not connection.usable:
                connection.close()
                self._live -= 1
            else:
                self._idle.append(connection)
            self._condition.notify()

    @contextmanager
    def connection(self, timeout: float | None = None):
        """``with pool.connection() as conn:`` — checkout scoped to the block."""
        connection = self.acquire(timeout=timeout)
        try:
            yield connection
        finally:
            self.release(connection)

    # -- internals -----------------------------------------------------------------------

    def _dial(self) -> NetworkConnection:
        with self._condition:
            self.dials_total += 1
        return connect(self.host, self.port, timeout=self.timeout)

    def _healthy(self, connection: NetworkConnection) -> bool:
        if not connection.usable:
            return False
        return connection.ping(timeout=min(self.timeout or 5.0, 5.0))

    # -- observability / lifecycle -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Pool counters, mirror-ready for a metrics provider."""
        with self._condition:
            return {
                "size": self.size,
                "live": self._live,
                "idle": len(self._idle),
                "dials_total": self.dials_total,
                "checkouts_total": self.checkouts_total,
                "health_replacements_total": self.health_replacements_total,
            }

    def close(self) -> None:
        """Close every idle connection and refuse further checkouts.

        Checked-out connections are closed by :meth:`release` when they come
        back (the pool is marked closed, so they are not re-idled).
        """
        with self._condition:
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._live -= len(idle)
            self._condition.notify_all()
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
