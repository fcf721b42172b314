"""Request batcher: coalesce concurrent Single Entity reads.

Figure 5's lesson is that per-statement overhead, not classification work,
caps Single Entity read throughput.  The batcher exploits it: client threads
submit individual reads and get a handle back; a collector thread drains the
submission queue and executes whole batches at once through the maintainers'
:meth:`~repro.core.maintainers.base.ViewMaintainer.read_many` path, which
charges the statement dispatch once per *batch* instead of once per read.

Batching is load-adaptive.  With ``max_wait_s=0`` (the default) the collector
never sleeps: a lone client sees batches of one and zero added latency, while
under concurrency requests pile up behind the executing batch and the next
round drains them together — throughput rises exactly when it matters.  A
positive ``max_wait_s`` additionally holds the first request of a round open
for stragglers, trading a bounded latency hit for fuller batches.

With ``adaptive=True`` the window is not configured at all: an
:class:`AdaptiveBatchWindow` tracks an EWMA of observed inter-arrival times
and sizes the wait to what would plausibly fill a batch — near zero when
requests are sparse (a lone client never waits for stragglers that are not
coming), approaching ``max_wait_cap_s`` only when arrivals are dense enough
that a short hold genuinely coalesces work.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Sequence

from repro.obs import TraceContext, current_trace

__all__ = ["ReadBatcher", "AdaptiveBatchWindow", "PendingRead"]

_SHUTDOWN = object()


class PendingRead:
    """One submitted read: answered once by the collector, awaited by its client."""

    def __init__(self) -> None:
        self._answered = threading.Event()
        self._answer: object = None

    def answer(self, value: object) -> None:
        """Resolve the read; an exception instance fails it with that error."""
        self._answer = value
        self._answered.set()

    def result(self, timeout: float | None = None) -> object:
        """Block until answered; the answer, or the error it is, raised."""
        if not self._answered.wait(timeout):
            raise TimeoutError("read not answered within timeout")
        if isinstance(self._answer, BaseException):
            raise self._answer
        return self._answer


class AdaptiveBatchWindow:
    """Derives a batching window from an EWMA of request inter-arrival times.

    The policy, with ``a`` the smoothed inter-arrival time:

    * no arrivals observed yet → window 0 (never penalize the first client);
    * ``a >= max_wait_cap_s`` → window 0 — at that rate even a full cap-length
      hold would coalesce at most one extra request, so waiting is pure
      latency;
    * otherwise → ``min(a * (max_batch - 1), max_wait_cap_s)`` — long enough
      to plausibly fill a batch at the observed rate, never above the cap.

    The window is therefore always inside ``[0, max_wait_cap_s]`` (the bound
    the unit tests pin), and observation is O(1) per request under one lock.
    """

    # Shared-state contract, enforced by repro-lint's lock pass: every
    # request thread calls observe() concurrently.
    _GUARDED_BY = {"_last_arrival": "_lock", "_interarrival_s": "_lock"}

    def __init__(
        self, max_batch: int, max_wait_cap_s: float = 0.002, alpha: float = 0.2
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_cap_s < 0:
            raise ValueError("max_wait_cap_s must be >= 0")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._max_batch = int(max_batch)
        self.max_wait_cap_s = float(max_wait_cap_s)
        self._alpha = float(alpha)
        self._lock = threading.Lock()
        self._last_arrival: float | None = None
        self._interarrival_s: float | None = None

    def observe(self, now: float) -> None:
        """Fold one request arrival (monotonic timestamp) into the EWMA."""
        with self._lock:
            if self._last_arrival is not None:
                delta = max(0.0, now - self._last_arrival)
                if self._interarrival_s is None:
                    self._interarrival_s = delta
                else:
                    self._interarrival_s = (
                        self._alpha * delta + (1.0 - self._alpha) * self._interarrival_s
                    )
            self._last_arrival = now

    @property
    def interarrival_s(self) -> float | None:
        """The smoothed inter-arrival estimate (None until two arrivals)."""
        with self._lock:
            return self._interarrival_s

    def window_s(self) -> float:
        """The wait the collector should use for the next round."""
        with self._lock:
            interarrival = self._interarrival_s
        if interarrival is None or interarrival >= self.max_wait_cap_s:
            return 0.0
        return min(interarrival * (self._max_batch - 1), self.max_wait_cap_s)


class ReadBatcher:
    """Coalesces submitted keys into batched calls of ``execute_batch``.

    Parameters
    ----------
    execute_batch:
        Called with a list of unique keys; returns ``{key: result}``.  Runs on
        the collector thread.  A ``BaseException`` instance as a *value* fails
        only that key's waiters (per-key error isolation — one bad key must
        not poison the rest of the round); raising fails the whole round.
    max_batch:
        Hard cap on keys per round.
    max_wait_s:
        How long the collector holds a round open for more arrivals once it
        has at least one request.  0 = drain-only (no added latency).
        Ignored when ``adaptive`` is set.
    adaptive:
        Derive the wait from an :class:`AdaptiveBatchWindow` over observed
        arrival rates instead of the fixed ``max_wait_s``.
    max_wait_cap_s / ewma_alpha:
        Bound and smoothing factor for the adaptive window.
    cost_probe:
        Zero-arg callable returning the cumulative simulated seconds the
        batched reads draw against (the shard ledgers).  When set, each round
        records a ``batcher.round`` span — with the round's simulated-cost
        delta — into every distinct trace whose statement contributed a
        request, so per-query traces stay complete across the thread hop.
    """

    def __init__(
        self,
        execute_batch: Callable[[Sequence[object]], dict[object, object]],
        max_batch: int = 64,
        max_wait_s: float = 0.0,
        adaptive: bool = False,
        max_wait_cap_s: float = 0.002,
        ewma_alpha: float = 0.2,
        cost_probe: Callable[[], float] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute_batch = execute_batch
        self._max_batch = int(max_batch)
        self._max_wait_s = float(max_wait_s)
        self._cost_probe = cost_probe
        self.window = (
            AdaptiveBatchWindow(max_batch, max_wait_cap_s, ewma_alpha) if adaptive else None
        )
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self.rounds = 0
        self.requests = 0
        self.largest_batch = 0
        self._thread = threading.Thread(
            target=self._run, name="hazy-read-batcher", daemon=True
        )
        self._thread.start()

    # -- client side ------------------------------------------------------------------------

    def submit(self, key: object) -> PendingRead:
        """Enqueue one read; it is answered with ``execute_batch``'s value for it."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        if self.window is not None:
            self.window.observe(time.monotonic())
        pending = PendingRead()
        # Capture the submitting statement's trace here, on the client thread:
        # the collector thread has no context of its own, so the trace must
        # ride along with the request.
        self._queue.put((key, pending, current_trace()))
        return pending

    def read(self, key: object, timeout: float | None = None):
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(key).result(timeout=timeout)

    # -- collector thread -------------------------------------------------------------------

    def _collect(self) -> list[tuple[object, PendingRead, TraceContext | None]] | None:
        """Block for the first request, then opportunistically fill the round."""
        item = self._queue.get()
        if item is _SHUTDOWN:
            return None
        batch = [item]
        wait_s = self.window.window_s() if self.window is not None else self._max_wait_s
        deadline = time.monotonic() + wait_s
        while len(batch) < self._max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Re-post so the outer loop terminates after this round.
                self._queue.put(_SHUTDOWN)
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                break
            keys: list[object] = []
            seen: set[object] = set()
            for key, _, _ in batch:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
            self.rounds += 1
            self.requests += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
            cost_before = self._cost_probe() if self._cost_probe is not None else 0.0
            wall_started = time.perf_counter()
            try:
                results = self._execute_batch(keys)
            except BaseException as error:  # propagate to every waiter
                self._record_round(batch, keys, cost_before, wall_started)
                for _, pending, _ in batch:
                    pending.answer(error)
                continue
            # Record spans before answering: a waiter may finalize its trace
            # the instant its read is answered, and the round's span must
            # already be in the tree by then.
            self._record_round(batch, keys, cost_before, wall_started)
            for key, pending, _ in batch:
                pending.answer(results[key])

    def _record_round(
        self,
        batch: list[tuple[object, PendingRead, TraceContext | None]],
        keys: list[object],
        cost_before: float,
        wall_started: float,
    ) -> None:
        """Hang one ``batcher.round`` span under every distinct submitting trace."""
        traces: list[TraceContext] = []
        trace_ids: set[int] = set()
        for _, _, trace in batch:
            if trace is not None and trace.trace_id not in trace_ids:
                trace_ids.add(trace.trace_id)
                traces.append(trace)
        if not traces:
            return
        wall = time.perf_counter() - wall_started
        simulated = (
            self._cost_probe() - cost_before if self._cost_probe is not None else 0.0
        )
        detail = f"coalesced {len(batch)} requests into {len(keys)} keys"
        for trace in traces:
            trace.add_span(
                "batcher.round",
                parent_id=trace.cross_thread_parent_id,
                simulated_seconds=simulated,
                wall_seconds=wall,
                rows=len(keys),
                detail=detail,
            )

    # -- lifecycle ---------------------------------------------------------------------------

    def close(self) -> None:
        """Stop the collector; in-flight rounds finish, late submits fail fast."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)
        self._thread.join()
        # Fail anything that slipped in after the sentinel.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                _, pending, _ = item
                pending.answer(RuntimeError("batcher is closed"))

    def stats(self) -> dict[str, float]:
        """Coalescing counters (average batch size is the interesting one).

        Keys are canonical ``snake_case`` with ``_total`` / ``_seconds``
        suffixes.
        """
        stats: dict[str, float] = {
            "rounds_total": self.rounds,
            "requests_total": self.requests,
            "largest_batch": self.largest_batch,
            "avg_batch": self.requests / self.rounds if self.rounds else 0.0,
        }
        if self.window is not None:
            stats["adaptive_window_seconds"] = self.window.window_s()
        return stats
