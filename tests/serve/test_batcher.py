"""Unit tests for the read batcher: readers run the rounds, and coalesce.

Deterministic where it matters: a round is held open on an ``Event`` and the
tests wait on the batcher's own queue (under its lock, through the condition
the queue notifies) instead of on a timer.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.obs import TraceContext, use_trace
from repro.serve.batcher import AdaptiveBatchWindow, ReadBatcher


def wait_until_queued(batcher: ReadBatcher, count: int) -> None:
    """Block until ``count`` keys wait in the batcher's queue."""
    with batcher._lock:
        assert batcher._queued.wait_for(lambda: len(batcher._queue) == count, timeout=10)


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
    batcher = ReadBatcher(execute, max_batch=64)
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


def test_a_read_many_burst_is_answered_in_max_batch_rounds():
    rounds = []

    def execute(keys):
        rounds.append(list(keys))
        return {key: -key for key in keys}

    batcher = ReadBatcher(execute, max_batch=4)
    keys = list(range(3 * 4 + 1))
    assert batcher.read_many(keys) == {key: -key for key in keys}
    assert rounds == [keys[0:4], keys[4:8], keys[8:12], keys[12:]]
    assert batcher.stats()["rounds_total"] == 4


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
    batcher = ReadBatcher(execute, max_batch=4)
    results: dict = {}
    first = hold_first_round(batcher, execute, results)
    readers = start_readers(batcher, range(1, 7), results)
    wait_until_queued(batcher, 6)
    execute.release.set()
    for thread in [first, *readers]:
        thread.join(timeout=10)
    assert [len(keys) for keys in execute.rounds] == [1, 4, 2]
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

    batcher = ReadBatcher(execute, max_batch=5)
    queued = [0] * 8
    failures: list[str] = []

    def reader(index):
        rng = random.Random(index)
        for _ in range(150):
            keys = [rng.randrange(40) for _ in range(rng.choice([1, 1, 3, 12]))]
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
    rounds = []

    def execute(keys):
        rounds.append(len(keys))
        return {key: -key for key in keys}

    batcher = ReadBatcher(execute, max_batch=64, max_wait_s=0.2)
    start = threading.Barrier(16, timeout=5)
    results = {}
    lock = threading.Lock()

    def client(key):
        start.wait()
        value = batcher.read(key)
        with lock:
            results[key] = value

    threads = [threading.Thread(target=client, args=(key,)) for key in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert results == {key: -key for key in range(16)}
    # 16 simultaneous requests with a generous window must not take 16 rounds.
    assert batcher.rounds < 16
    assert batcher.largest_batch > 1


def test_duplicate_keys_share_one_execution():
    seen = []

    def execute(keys):
        seen.extend(keys)
        return {key: "x" for key in keys}

    batcher = ReadBatcher(execute, max_batch=8, max_wait_s=0.2)
    start = threading.Barrier(4, timeout=5)
    outputs = []

    def client():
        start.wait()
        outputs.append(batcher.read(7))

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert outputs == ["x"] * 4
    # The executed key list was deduplicated per round.
    assert seen.count(7) == batcher.rounds


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
        batcher = ReadBatcher(execute, cost_probe=lambda: 0.0)
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


class TestAdaptiveBatchWindow:
    """Pins the adaptation bounds: the derived wait is always in [0, cap]."""

    CAP = 0.002

    def feed(self, window: AdaptiveBatchWindow, interarrival: float, count: int = 50):
        now = 100.0
        for _ in range(count):
            window.observe(now)
            now += interarrival
        return window

    def test_no_arrivals_means_no_wait(self):
        window = AdaptiveBatchWindow(max_batch=64, max_wait_cap_s=self.CAP)
        assert window.window_s() == 0.0
        window.observe(1.0)  # a single arrival still gives no inter-arrival estimate
        assert window.window_s() == 0.0

    def test_sparse_arrivals_collapse_to_zero_wait(self):
        # Inter-arrival above the cap: even a full hold coalesces ~1 request.
        window = self.feed(
            AdaptiveBatchWindow(max_batch=64, max_wait_cap_s=self.CAP), interarrival=0.05
        )
        assert window.window_s() == 0.0

    def test_dense_arrivals_scale_with_rate_and_never_exceed_cap(self):
        dense = self.feed(
            AdaptiveBatchWindow(max_batch=64, max_wait_cap_s=self.CAP), interarrival=1e-5
        )
        denser = self.feed(
            AdaptiveBatchWindow(max_batch=64, max_wait_cap_s=self.CAP), interarrival=1e-6
        )
        assert 0.0 < denser.window_s() <= dense.window_s() <= self.CAP
        # At 10us inter-arrival a 64-batch plausibly fills in 63 * 10us.
        assert dense.window_s() == pytest.approx(63 * 1e-5)

    def test_window_always_within_bounds_across_regimes(self):
        window = AdaptiveBatchWindow(max_batch=32, max_wait_cap_s=self.CAP, alpha=0.5)
        now = 0.0
        for interarrival in (1e-6, 0.5, 1e-5, 0.1, 1e-4, 1e-3, 10.0, 1e-7):
            for _ in range(10):
                window.observe(now)
                now += interarrival
            assert 0.0 <= window.window_s() <= self.CAP

    def test_ewma_tracks_rate_changes(self):
        window = AdaptiveBatchWindow(max_batch=64, max_wait_cap_s=self.CAP, alpha=0.2)
        self.feed(window, interarrival=1e-6)
        fast = window.interarrival_s
        self.feed(window, interarrival=1e-3, count=100)
        assert window.interarrival_s > fast

    def test_max_batch_one_never_waits(self):
        window = self.feed(
            AdaptiveBatchWindow(max_batch=1, max_wait_cap_s=self.CAP), interarrival=1e-6
        )
        assert window.window_s() == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(max_batch=0)
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(max_batch=4, max_wait_cap_s=-1.0)
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(max_batch=4, alpha=0.0)


def test_adaptive_batcher_reports_window_and_serves():
    batcher = ReadBatcher(
        lambda keys: {key: key * 2 for key in keys}, max_batch=8, adaptive=True
    )
    assert batcher.read(3) == 6
    stats = batcher.stats()
    assert "adaptive_window_seconds" in stats
    assert 0.0 <= stats["adaptive_window_seconds"] <= batcher.window.max_wait_cap_s
