"""Request batcher: coalesce concurrent Single Entity reads.

Figure 5's lesson is that per-statement overhead, not classification work,
caps Single Entity read throughput.  The batcher exploits it: readers queue
their keys, and whole rounds execute at once through the maintainers'
:meth:`~repro.core.maintainers.base.ViewMaintainer.read_many` path, which
charges the statement dispatch once per *round* instead of once per read.

The batcher has no thread: rounds run one at a time, each on the thread of
a reader (leader/follower combining).  A reader that finds no round running
runs one; the others wait.  The reader running a round answers every request
it drained, then passes the next round to the oldest waiter — itself while
keys of its own are still queued, and never once they are all answered.

Batching is load-adaptive.  With ``max_wait_s=0`` (the default) no round ever
sleeps: a lone reader runs a round of one with no hand-off, while under
concurrency requests pile up behind the executing round and the next round
drains them together — throughput rises exactly when it matters.
A positive ``max_wait_s`` additionally holds a round open for stragglers,
trading a bounded latency hit for fuller rounds.

With ``adaptive=True`` the window is not configured at all: an
:class:`AdaptiveBatchWindow` tracks an EWMA of observed inter-arrival times
and sizes the wait to what would plausibly fill a batch — near zero when
requests are sparse (a lone client never waits for stragglers that are not
coming), approaching ``max_wait_cap_s`` only when arrivals are dense enough
that a short hold genuinely coalesces work.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence

from repro.obs import TraceContext, current_trace

__all__ = ["ReadBatcher", "AdaptiveBatchWindow"]


@dataclasses.dataclass(slots=True)
class _Request:
    """One queued key: answered once by the reader that runs its round."""

    key: object
    reader: int
    trace: TraceContext | None
    answer: object = None
    answered: bool = False


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
        """The wait the next round should hold open for stragglers."""
        with self._lock:
            interarrival = self._interarrival_s
        if interarrival is None or interarrival >= self.max_wait_cap_s:
            return 0.0
        return min(interarrival * (self._max_batch - 1), self.max_wait_cap_s)


class ReadBatcher:
    """Coalesces concurrently read keys into batched calls of ``execute_batch``.

    Parameters
    ----------
    execute_batch:
        Called with a list of unique keys; returns ``{key: result}``.  Runs on
        the thread of the reader that runs the round.  A ``BaseException``
        instance as a *value* fails only that key's waiters (per-key error
        isolation — one bad key must not poison the rest of the round);
        raising fails the whole round.
    max_batch:
        Hard cap on keys per round.
    max_wait_s:
        How long a round is held open for more arrivals before it drains.
        0 = drain-only (no added latency).  Ignored when ``adaptive`` is set.
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
        request, so per-query traces stay complete whichever reader ran it.
    """

    # Shared-state contract, enforced by repro-lint's lock pass: the queue,
    # the turn to run the next round and the counters are read and written
    # by every reader.
    _GUARDED_BY = {
        "_queue": "_lock",
        "_leader": "_lock",
        "rounds": "_lock",
        "requests": "_lock",
        "largest_batch": "_lock",
    }

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
        self._lock = threading.Lock()
        #: Notified when the queue grows behind a round (one held open for
        #: stragglers waits on it) and when a round is answered (readers wait).
        self._queued = threading.Condition(self._lock)
        self._answered = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        #: The thread that runs the next round: None while no round is running
        #: or due, and then the queue is empty.
        self._leader: int | None = None
        self.rounds = 0
        self.requests = 0
        self.largest_batch = 0

    # -- readers -----------------------------------------------------------------------------

    def read(self, key: object) -> object:
        """One key's ``execute_batch`` value; an error value is raised."""
        answer = self.read_many((key,))[key]
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def read_many(self, keys: Iterable[object]) -> dict[object, object]:
        """Every distinct key's ``execute_batch`` value, errors as instances.

        The keys queue as one burst, so they coalesce into as few rounds as
        ``max_batch`` allows; a failed round answers each of its keys with its
        error.  Returns once every key is answered, having run rounds on this
        thread whenever it was this reader's turn.
        """
        reader = threading.get_ident()
        # Capture the reading statement's trace here, on its own thread: the
        # round may run on another reader's thread, so the trace must ride
        # along with the request.
        trace = current_trace()
        mine = [_Request(key, reader, trace) for key in dict.fromkeys(keys)]
        if not mine:
            return {}
        if self.window is not None:
            self.window.observe(time.monotonic())
        with self._lock:
            self._queue.extend(mine)
            if self._leader is None:
                self._leader = reader
            else:
                self._queued.notify_all()
        try:
            # Rounds answer the queue in order, so the last key answered means all.
            while True:
                with self._lock:
                    while not mine[-1].answered and self._leader != reader:
                        self._answered.wait()
                    if mine[-1].answered:
                        break
                    batch = self._drain()
                self._run_round(batch)
        except BaseException:
            # Interrupted while waiting: withdraw this reader's keys, so that
            # no round is ever handed to a reader that has left.
            with self._lock:
                self._queue = deque(request for request in self._queue if request.reader != reader)
                if self._leader == reader:
                    self._leader = self._queue[0].reader if self._queue else None
                    self._answered.notify_all()
            raise
        return {request.key: request.answer for request in mine}

    # -- rounds ------------------------------------------------------------------------------

    def _drain(self) -> list[_Request]:  # repro: locked(_lock)
        """Hold the round open for its window, then take up to ``max_batch``."""
        wait_s = self.window.window_s() if self.window is not None else self._max_wait_s
        if wait_s > 0:
            self._queued.wait_for(lambda: len(self._queue) >= self._max_batch, wait_s)
        batch = [self._queue.popleft() for _ in range(min(len(self._queue), self._max_batch))]
        self.rounds += 1
        self.requests += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        return batch

    def _run_round(self, batch: list[_Request]) -> None:
        """Execute one drained round on this thread, answer it, pass the next on.

        Every distinct reading trace gets one ``batcher.round`` span first: a
        waiter may finalize its trace the instant its read is answered, and
        the round's span must already be in the tree by then.
        """
        keys = list(dict.fromkeys(request.key for request in batch))
        wall_started = time.perf_counter()
        cost_before = 0.0
        try:
            cost_before = self._cost_probe() if self._cost_probe is not None else 0.0
            results = self._execute_batch(keys)
            answers = [results[request.key] for request in batch]
        except BaseException as error:  # the round fails for every waiter in it
            # This reader's own key is always in the round it runs, so an
            # interrupt here reaches it as that key's answer.
            answers = [error] * len(batch)
        traces = {
            request.trace.trace_id: request.trace
            for request in batch
            if request.trace is not None
        }
        if traces:
            wall = time.perf_counter() - wall_started
            simulated = (
                self._cost_probe() - cost_before if self._cost_probe is not None else 0.0
            )
            detail = f"coalesced {len(batch)} requests into {len(keys)} keys"
            for trace in traces.values():
                trace.add_span(
                    "batcher.round",
                    parent_id=trace.cross_thread_parent_id,
                    simulated_seconds=simulated,
                    wall_seconds=wall,
                    rows=len(keys),
                    detail=detail,
                )
        with self._lock:
            for request, answer in zip(batch, answers):
                request.answer = answer
                request.answered = True
            self._leader = self._queue[0].reader if self._queue else None
            self._answered.notify_all()

    # -- counters ----------------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Coalescing counters (average batch size is the interesting one).

        Keys are canonical ``snake_case`` with ``_total`` / ``_seconds``
        suffixes.
        """
        with self._lock:
            stats: dict[str, float] = {
                "rounds_total": self.rounds,
                "requests_total": self.requests,
                "largest_batch": self.largest_batch,
                "avg_batch": self.requests / self.rounds if self.rounds else 0.0,
            }
        if self.window is not None:
            stats["adaptive_window_seconds"] = self.window.window_s()
        return stats
