"""Unit tests for the readers/writer lock."""

from __future__ import annotations

import threading
import time

from repro.serve.sync import ReadWriteLock


class TestReadWriteLock:
    def test_readers_are_concurrent(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read_locked():
                inside.append(1)
                barrier.wait()  # deadlocks unless all 4 readers are inside together

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(inside) == 4

    def test_writer_is_exclusive(self):
        lock = ReadWriteLock()
        log = []

        def writer():
            with lock.write_locked():
                log.append("w-in")
                time.sleep(0.05)
                log.append("w-out")

        def reader():
            with lock.read_locked():
                log.append("r")

        lock.acquire_read()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.02)  # writer is now waiting on the active reader
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.02)
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        # Writer preference: the queued reader must not slip inside the writer.
        writer_in = log.index("w-in")
        writer_out = log.index("w-out")
        reader_at = log.index("r")
        assert not (writer_in < reader_at < writer_out)
        assert reader_at > writer_in  # reader blocked until after the writer started

    def test_write_lock_reentrancy_not_required(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            pass
        with lock.read_locked():
            pass  # lock is reusable after a writer cycle
