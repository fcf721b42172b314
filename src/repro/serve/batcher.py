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

A round never waits: it drains up to :data:`MAX_READ_BATCH` queued keys and
runs at once.  A lone reader runs a round of one with no hand-off, while
under concurrency requests pile up behind the running round and the next
round drains them together — batches grow exactly when load does, with no
window to configure.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence

from repro.obs import TraceContext, current_trace

__all__ = ["MAX_READ_BATCH", "ReadBatcher"]

#: Most keys one round drains.
MAX_READ_BATCH = 64


@dataclasses.dataclass(slots=True)
class _Request:
    """One queued key: answered once by the reader that runs its round."""

    key: object
    reader: int
    trace: TraceContext | None
    answer: object = None
    answered: bool = False


class ReadBatcher:
    """Coalesces concurrently read keys into batched calls of ``execute_batch``.

    Combining across readers earns its keep.  Two readers on one served view
    (``perf/run.py --workload wire_reads --trace 1``,
    ``serve.concurrent2_reads_per_s``, seeds 4202–4204, a 2-CPU machine) read
    49.7k / 57.4k / 48.3k keys/s through shared rounds and 40.4k / 20.8k /
    19.4k/s when each reader ran rounds of its own keys only — with rounds of
    1.001–1.002 keys on average, so the gain is not from larger batches.

    Parameters
    ----------
    execute_batch:
        Called with a list of unique keys; returns ``{key: result}``.  Runs on
        the thread of the reader that runs the round.  A ``BaseException``
        instance as a *value* fails only that key's waiters (per-key error
        isolation — one bad key must not poison the rest of the round);
        raising fails the whole round.
    cost_probe:
        Zero-arg callable returning the cumulative simulated seconds the
        batched reads draw against (the shard ledgers).  When set, each round
        records a ``batcher.round`` span — with the round's simulated-cost
        delta — into every distinct trace whose statement contributed a
        request, so per-query traces stay complete whichever reader ran it.
        A round no trace reads is not probed.
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
        cost_probe: Callable[[], float] | None = None,
    ):
        self._execute_batch = execute_batch
        self._cost_probe = cost_probe
        self._lock = threading.Lock()
        #: Notified when a round is answered (waiting readers check their keys).
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
        :data:`MAX_READ_BATCH` allows; a failed round answers each of its keys
        with its error.  Returns once every key is answered, having run rounds
        on this thread whenever it was this reader's turn.
        """
        reader = threading.get_ident()
        # Capture the reading statement's trace here, on its own thread: the
        # round may run on another reader's thread, so the trace must ride
        # along with the request.
        trace = current_trace()
        mine = [_Request(key, reader, trace) for key in dict.fromkeys(keys)]
        if not mine:
            return {}
        with self._lock:
            self._queue.extend(mine)
            if self._leader is None:
                self._leader = reader
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
        """Take up to :data:`MAX_READ_BATCH` queued requests, oldest first."""
        batch = [self._queue.popleft() for _ in range(min(len(self._queue), MAX_READ_BATCH))]
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
        traces = {
            request.trace.trace_id: request.trace
            for request in batch
            if request.trace is not None
        }
        probe = self._cost_probe if traces else None
        wall_started = time.perf_counter()
        cost_before = 0.0
        try:
            cost_before = probe() if probe is not None else 0.0
            results = self._execute_batch(keys)
            answers = [results[request.key] for request in batch]
        except BaseException as error:  # the round fails for every waiter in it
            # This reader's own key is always in the round it runs, so an
            # interrupt here reaches it as that key's answer.
            answers = [error] * len(batch)
        if traces:
            wall = time.perf_counter() - wall_started
            simulated = probe() - cost_before if probe is not None else 0.0
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
            return {
                "rounds_total": self.rounds,
                "requests_total": self.requests,
                "largest_batch": self.largest_batch,
                "avg_batch": self.requests / self.rounds if self.rounds else 0.0,
            }
