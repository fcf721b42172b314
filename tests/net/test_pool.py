"""ConnectionPool: bounded checkout, health-checked replacement, timeouts."""

from __future__ import annotations

import threading
import time

import pytest

import repro.net.pool
from repro.exceptions import ConfigurationError, PoolExhaustedError
from repro.net import ConnectionPool, SQLServer

from tests.net.conftest import TEST_TIMEOUT_S


@pytest.fixture
def pool(server):
    with ConnectionPool(server.host, server.port, size=3, timeout=TEST_TIMEOUT_S) as pool:
        yield pool


class TestCheckout:
    def test_basic_checkout_and_reuse(self, pool):
        with pool.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 20
        first_dials = pool.stats()["dials_total"]
        with pool.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 20
        # The second checkout reused the idle member, no fresh dial.
        assert pool.stats()["dials_total"] == first_dials
        assert pool.stats()["checkouts_total"] == 2

    def test_dials_lazily_up_to_size(self, pool):
        first = pool.acquire()
        second = pool.acquire()
        third = pool.acquire()
        try:
            stats = pool.stats()
            assert stats["live"] == 3
            assert stats["dials_total"] == 3
        finally:
            for conn in (first, second, third):
                pool.release(conn)

    def test_exhaustion_times_out(self, pool):
        held = [pool.acquire() for _ in range(3)]
        try:
            with pytest.raises(PoolExhaustedError):
                pool.acquire(timeout=0.1)
        finally:
            for conn in held:
                pool.release(conn)

    def test_exhaustion_waits_the_default_acquire_timeout(self, pool, monkeypatch):
        assert repro.net.pool.ACQUIRE_TIMEOUT_S == 30.0
        monkeypatch.setattr("repro.net.pool.ACQUIRE_TIMEOUT_S", 0.1)
        held = [pool.acquire() for _ in range(3)]
        try:
            started = time.perf_counter()
            with pytest.raises(PoolExhaustedError):
                pool.acquire()  # no timeout given: the module's default applies
            assert time.perf_counter() - started < TEST_TIMEOUT_S
        finally:
            for conn in held:
                pool.release(conn)

    def test_release_unblocks_waiter(self, pool):
        held = [pool.acquire() for _ in range(3)]
        got = []

        def waiter():
            conn = pool.acquire(timeout=TEST_TIMEOUT_S)
            got.append(conn)
            pool.release(conn)

        thread = threading.Thread(target=waiter)
        thread.start()
        pool.release(held.pop())
        thread.join(timeout=TEST_TIMEOUT_S)
        assert not thread.is_alive()
        assert len(got) == 1
        for conn in held:
            pool.release(conn)

    def test_size_validation(self, server):
        with pytest.raises(ConfigurationError):
            ConnectionPool(server.host, server.port, size=0)


class TestHealth:
    def test_poisoned_member_replaced_at_checkout(self, pool):
        with pool.connection() as conn:
            conn._poisoned = True  # simulate a timeout having poisoned it
        with pool.connection() as conn:
            assert conn.usable
            assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 20

    def test_dead_idle_member_replaced_by_health_check(self, pool):
        with pool.connection() as conn:
            first_name = conn.server_connection
        # Kill the idle member's socket behind the pool's back.
        idle = pool._idle[0]
        idle._sock.close()
        with pool.connection() as conn:
            assert conn.usable
            assert conn.server_connection != first_name
            assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 20
        assert pool.stats()["health_replacements_total"] == 1

    def test_pool_heals_across_server_restart(self, backend):
        server = SQLServer(backend.engine).start()
        pool = ConnectionPool(server.host, server.port, size=2, timeout=TEST_TIMEOUT_S)
        try:
            with pool.connection() as conn:
                assert conn.ping()
            host, port = server.host, server.port
            server.close()
            restarted = SQLServer(backend.engine, host=host, port=port).start()
            try:
                with pool.connection() as conn:
                    assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 20
            finally:
                restarted.close()
        finally:
            pool.close()

    def test_parallel_clients_each_get_a_connection(self, pool):
        results = []
        errors = []
        barrier = threading.Barrier(3)

        def worker(key: int):
            try:
                barrier.wait(timeout=TEST_TIMEOUT_S)
                with pool.connection() as conn:
                    results.append(
                        conn.execute("SELECT qty FROM items WHERE id = ?", (key,)).scalar()
                    )
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(k,)) for k in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TEST_TIMEOUT_S)
        assert not errors
        assert sorted(results) == [10, 20, 30]


class TestLifecycle:
    def test_close_refuses_further_checkouts(self, server):
        pool = ConnectionPool(server.host, server.port, size=2, timeout=TEST_TIMEOUT_S)
        with pool.connection() as conn:
            assert conn.ping()
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.acquire()

    def test_checked_out_member_discarded_after_close(self, server):
        pool = ConnectionPool(server.host, server.port, size=2, timeout=TEST_TIMEOUT_S)
        conn = pool.acquire()
        pool.close()
        pool.release(conn)  # comes back to a closed pool: discarded, not idled
        assert conn.closed
        assert pool.stats()["idle"] == 0
