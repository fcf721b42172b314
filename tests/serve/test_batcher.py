"""Unit tests for the read batcher: readers run the rounds, and coalesce.

A round never waits, so coalescing is tested the only way it happens: the
first round is held on an ``Event``, readers queue behind it, and the next
round drains them together.  The tests wait on the batcher's own queue
(swapped for one that announces arrivals on the batcher's lock) instead of
on a timer.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import deque

import pytest

from repro.obs import TraceContext, use_trace
from repro.serve.batcher import MAX_READ_BATCH, ReadBatcher


class WatchedQueue(deque):
    """A batcher queue that notifies ``grew`` (on the batcher's lock, which
    every ``extend`` runs under) whenever readers queue keys."""

    def __init__(self, lock):
        super().__init__()
        self.grew = threading.Condition(lock)

    def extend(self, requests):
        super().extend(requests)
        self.grew.notify_all()


def watched(batcher: ReadBatcher) -> ReadBatcher:
    """``batcher`` with a :class:`WatchedQueue`, before any reader starts."""
    batcher._queue = WatchedQueue(batcher._lock)
    return batcher


def wait_until_queued(batcher: ReadBatcher, count: int) -> None:
    """Block until ``count`` keys wait in a :func:`watched` batcher's queue."""
    with batcher._lock:
        assert batcher._queue.grew.wait_for(lambda: len(batcher._queue) == count, timeout=10)


class HeldFirstRound:
    """An ``execute_batch`` whose first round blocks until released.

    Records each round's keys and the thread that ran it; ``fail_round``
    names a round (0-based) that raises instead of answering.
    """

    def __init__(self, fail_round: int | None = None):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.rounds: list[list[object]] = []
        self.threads: list[int] = []
        self.fail_round = fail_round

    def __call__(self, keys):
        index = len(self.rounds)
        self.rounds.append(list(keys))
        self.threads.append(threading.get_ident())
        if index == 0:
            self.entered.set()
            assert self.release.wait(timeout=10)
        if index == self.fail_round:
            raise ValueError("boom")
        return {key: key * 10 for key in keys}


def start_readers(batcher: ReadBatcher, keys, results: dict) -> list[threading.Thread]:
    """One thread per key, each storing its answer (or raised error) in ``results``."""

    def reader(key):
        try:
            results[key] = batcher.read(key)
        except ValueError as error:
            results[key] = error

    threads = [threading.Thread(target=reader, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    return threads


def start_bursts(batcher: ReadBatcher, bursts, results: dict) -> list[threading.Thread]:
    """One thread per burst of keys, each ``read_many``-ing its burst into ``results``."""

    def reader(keys):
        results.update(batcher.read_many(keys))

    threads = [threading.Thread(target=reader, args=(list(keys),)) for keys in bursts]
    for thread in threads:
        thread.start()
    return threads


def hold_first_round(batcher: ReadBatcher, execute: HeldFirstRound, results: dict):
    """Start a reader of key 0 and return its thread once its round is held."""
    (thread,) = start_readers(batcher, [0], results)
    assert execute.entered.wait(timeout=10)
    return thread


def test_single_read_resolves():
    calls = []

    def execute(keys):
        calls.append(list(keys))
        return {key: key * 10 for key in keys}

    batcher = ReadBatcher(execute)
    assert batcher.read(3) == 30
    assert calls == [[3]]


def test_a_lone_readers_round_runs_on_its_own_thread():
    threads = []

    def execute(keys):
        threads.append(threading.get_ident())
        return {key: key for key in keys}

    batcher = ReadBatcher(execute)
    assert batcher.read(1) == 1
    assert batcher.read_many([2, 3]) == {2: 2, 3: 3}
    assert threads == [threading.get_ident()] * 2


def test_readers_queued_behind_a_running_round_coalesce_into_the_next():
    execute = HeldFirstRound()
    batcher = watched(ReadBatcher(execute))
    results: dict = {}
    first = hold_first_round(batcher, execute, results)
    readers = start_readers(batcher, range(1, 9), results)
    wait_until_queued(batcher, 8)
    execute.release.set()
    for thread in [first, *readers]:
        thread.join(timeout=10)
    assert results == {key: key * 10 for key in range(9)}
    assert len(execute.rounds) == 2 == batcher.rounds
    assert execute.rounds[0] == [0]
    assert sorted(execute.rounds[1]) == list(range(1, 9))
    # The reader of key 0 stops once its own key is answered and passes the
    # next round to the oldest waiter: the reader of its first key.
    assert execute.threads[0] == first.ident
    assert execute.threads[1] == readers[execute.rounds[1][0] - 1].ident
    assert batcher.stats()["avg_batch"] == 4.5
    assert batcher.largest_batch == 8


BURSTS = [1, MAX_READ_BATCH - 1, MAX_READ_BATCH, MAX_READ_BATCH + 1, 2 * MAX_READ_BATCH]


@pytest.mark.parametrize("count", [*BURSTS, 3 * MAX_READ_BATCH + 1])
def test_a_read_many_burst_is_answered_in_rounds_of_max_read_batch(count):
    rounds = []

    def execute(keys):
        rounds.append(list(keys))
        return {key: -key for key in keys}

    batcher = ReadBatcher(execute)
    size = MAX_READ_BATCH
    keys = list(range(count))
    assert batcher.read_many(keys) == {key: -key for key in keys}
    assert rounds == [keys[start : start + size] for start in range(0, count, size)]
    assert batcher.stats()["rounds_total"] == -(-count // size)
    assert batcher.largest_batch == min(count, size)


@pytest.mark.parametrize("count", [MAX_READ_BATCH, MAX_READ_BATCH + 1, 2 * MAX_READ_BATCH + 5])
def test_readers_queued_past_max_read_batch_are_answered_in_full_rounds(count):
    """Queued single-key readers are drained oldest first, at most
    :data:`MAX_READ_BATCH` to a round, each round run as soon as the last
    is answered."""
    execute = HeldFirstRound()
    batcher = watched(ReadBatcher(execute))
    results: dict = {}
    first = hold_first_round(batcher, execute, results)
    readers = start_readers(batcher, range(1, count + 1), results)
    wait_until_queued(batcher, count)
    execute.release.set()
    for thread in [first, *readers]:
        thread.join(timeout=10)
    assert results == {key: key * 10 for key in range(count + 1)}
    full, rest = divmod(count, MAX_READ_BATCH)
    sizes = [1] + [MAX_READ_BATCH] * full + [rest] * (rest > 0)
    assert [len(keys) for keys in execute.rounds] == sizes
    assert batcher.largest_batch == MAX_READ_BATCH
    assert batcher._leader is None and not batcher._queue


@pytest.mark.parametrize("knob", ["max_batch", "max_wait_s", "adaptive"])
def test_the_batcher_takes_no_window_or_batch_size_knob(knob):
    with pytest.raises(TypeError, match=knob):
        ReadBatcher(lambda keys: {}, **{knob: 1})


def test_no_batch_window_is_exported():
    import repro.serve
    import repro.serve.batcher

    assert "AdaptiveBatchWindow" not in repro.serve.__all__
    assert not hasattr(repro.serve, "AdaptiveBatchWindow")
    assert not hasattr(repro.serve.batcher, "AdaptiveBatchWindow")


def test_read_many_deduplicates_and_returns_error_values():
    rounds = []

    def execute(keys):
        rounds.append(list(keys))
        return {key: KeyError(key) if key < 0 else key for key in keys}

    batcher = ReadBatcher(execute)
    answers = batcher.read_many([5, -1, 5, 6])
    assert list(answers) == [5, -1, 6]
    assert isinstance(answers[-1], KeyError)
    assert rounds == [[5, -1, 6]]
    assert batcher.read_many([]) == {}
    with pytest.raises(KeyError):
        batcher.read(-1)


def test_a_failed_round_fails_its_waiters_and_passes_the_next_round_on():
    execute = HeldFirstRound(fail_round=1)
    batcher = watched(ReadBatcher(execute))
    results: dict = {}
    first = hold_first_round(batcher, execute, results)
    # Two bursts queue behind the held round: all of the first and four keys
    # of the second fill the failing round, the second's last two the next.
    bursts = [range(1, MAX_READ_BATCH - 3), range(MAX_READ_BATCH - 3, MAX_READ_BATCH + 3)]
    (earlier,) = start_bursts(batcher, bursts[:1], results)
    wait_until_queued(batcher, MAX_READ_BATCH - 4)
    readers = [earlier, *start_bursts(batcher, bursts[1:], results)]
    wait_until_queued(batcher, MAX_READ_BATCH + 2)
    execute.release.set()
    for thread in [first, *readers]:
        thread.join(timeout=10)
    assert [len(keys) for keys in execute.rounds] == [1, MAX_READ_BATCH, 2]
    assert execute.rounds[2] == [MAX_READ_BATCH + 1, MAX_READ_BATCH + 2]
    assert results[0] == 0
    failed = execute.rounds[1]
    assert all(isinstance(results[key], ValueError) for key in failed)
    assert all(results[key] == key * 10 for key in execute.rounds[2])
    assert batcher._leader is None and not batcher._queue


def test_a_reader_interrupted_while_waiting_withdraws_its_keys():
    """A reader that leaves mid-wait must not be handed a round it will never run."""

    class Interrupt(BaseException):
        pass

    def interrupt():
        raise Interrupt

    execute = HeldFirstRound()
    batcher = ReadBatcher(execute)
    results: dict = {}
    first = hold_first_round(batcher, execute, results)

    def interrupted_reader():
        try:
            batcher.read(1)
        except Interrupt:
            results[1] = "interrupted"

    batcher._answered.wait = interrupt
    try:
        leaver = threading.Thread(target=interrupted_reader)
        leaver.start()
        leaver.join(timeout=10)
    finally:
        del batcher._answered.wait
    assert results == {1: "interrupted"}
    assert not batcher._queue
    execute.release.set()
    first.join(timeout=10)
    later = start_readers(batcher, [5], results)
    later[0].join(timeout=10)
    assert not later[0].is_alive()
    assert results == {0: 0, 1: "interrupted", 5: 50}
    assert execute.rounds == [[0], [5]]


def test_many_readers_lose_no_request_under_rapid_switching():
    def execute(keys):
        return {key: KeyError(key) if key % 7 == 0 else key + 1 for key in keys}

    batcher = ReadBatcher(execute)
    queued = [0] * 8
    failures: list[str] = []

    def reader(index):
        rng = random.Random(index)
        for _ in range(150):
            # Bursts of up to 70 keys over 100 ids: eight readers' queued keys
            # often pass MAX_READ_BATCH, so rounds split bursts too.
            keys = [rng.randrange(100) for _ in range(rng.choice([1, 1, 3, 12, 70]))]
            queued[index] += len(set(keys))
            answers = batcher.read_many(keys)
            for key, answer in answers.items():
                if not (isinstance(answer, KeyError) if key % 7 == 0 else answer == key + 1):
                    failures.append(f"{key}: {answer!r}")
            if set(answers) != set(keys):
                failures.append(f"keys {keys} answered as {sorted(answers)}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert batcher.stats()["requests_total"] == sum(queued)
    assert batcher._leader is None and not batcher._queue


def test_concurrent_reads_coalesce():
    execute = HeldFirstRound()
    batcher = watched(ReadBatcher(execute))
    results: dict = {}
    first = hold_first_round(batcher, execute, results)
    readers = start_readers(batcher, range(1, 17), results)
    wait_until_queued(batcher, 16)
    execute.release.set()
    for thread in [first, *readers]:
        thread.join(timeout=10)
    assert results == {key: key * 10 for key in range(17)}
    # Sixteen readers queued behind one round are one round, not sixteen.
    assert batcher.rounds == 2
    assert batcher.largest_batch == 16


def test_duplicate_keys_share_one_execution():
    execute = HeldFirstRound()
    batcher = watched(ReadBatcher(execute))
    results: dict = {}
    outputs = []
    first = hold_first_round(batcher, execute, results)

    def client():
        outputs.append(batcher.read(7))

    clients = [threading.Thread(target=client) for _ in range(4)]
    for thread in clients:
        thread.start()
    wait_until_queued(batcher, 4)
    execute.release.set()
    for thread in [first, *clients]:
        thread.join(timeout=10)
    assert outputs == [70] * 4
    # Four requests in the round, one execution of their key.
    assert execute.rounds == [[0], [7]]
    assert batcher.stats()["requests_total"] == 5


def test_errors_propagate_to_all_waiters():
    def execute(keys):
        raise ValueError("boom")

    batcher = ReadBatcher(execute)
    with pytest.raises(ValueError, match="boom"):
        batcher.read(1)
    # The failed round handed the turn back: the next read runs a round.
    with pytest.raises(ValueError, match="boom"):
        batcher.read(2)
    assert batcher.rounds == 2


class TestRoundSpans:
    """Each reader's trace gets the round's span, whoever ran the round."""

    def test_two_coalesced_readers_each_get_the_round_span(self):
        execute = HeldFirstRound()
        batcher = watched(ReadBatcher(execute, cost_probe=lambda: 0.0))
        traces = {key: TraceContext(f"read {key}") for key in (1, 2)}
        results: dict = {}

        def traced_reader(key):
            with use_trace(traces[key]):
                results[key] = batcher.read(key)

        first = hold_first_round(batcher, execute, results)
        readers = [threading.Thread(target=traced_reader, args=(key,)) for key in traces]
        for thread in readers:
            thread.start()
        wait_until_queued(batcher, 2)
        execute.release.set()
        for thread in [first, *readers]:
            thread.join(timeout=10)
        assert results == {0: 0, 1: 10, 2: 20}
        assert len(execute.rounds) == 2
        for trace in traces.values():
            (span,) = [span for span in trace.spans() if span.name == "batcher.round"]
            assert span.rows == 2
            assert span.detail == "coalesced 2 requests into 2 keys"

    def test_only_a_traced_round_reads_the_ledgers(self):
        probes = []

        def probe():
            probes.append(len(probes))
            return float(len(probes))

        batcher = ReadBatcher(lambda keys: {key: key for key in keys}, cost_probe=probe)
        assert batcher.read(1) == 1
        assert probes == []  # no trace reads this round's span
        trace = TraceContext("read 2")
        with use_trace(trace):
            assert batcher.read(2) == 2
        assert probes == [0, 1]
        (span,) = [span for span in trace.spans() if span.name == "batcher.round"]
        assert span.simulated_seconds == 1.0
