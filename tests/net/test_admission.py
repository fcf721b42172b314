"""Lane classification and the two-lane weighted admission controller."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.exceptions import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    ConfigurationError,
)
from repro.net import SQLServer
from repro.net.admission import (
    BULK_LANE,
    POINT_LANE,
    AdmissionController,
    lane_for,
)

from tests.net.conftest import VIEW_DDL, corpus, create_base_tables


class TestLaneClassification:
    @pytest.fixture(scope="class")
    def prepared(self):
        """One connection with plain tables and a served view to plan against."""
        documents = corpus(count=60)
        conn = repro.connect()
        create_base_tables(conn, documents)
        conn.execute(VIEW_DDL)
        conn.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        yield conn
        conn.close()

    def lane_of(self, prepared, sql: str) -> str:
        statement = prepared.prepare(sql)
        return lane_for(statement.statement, statement.plan)

    def test_primary_key_point_read_is_point(self, prepared):
        assert self.lane_of(prepared, "SELECT * FROM papers WHERE id = 3") == POINT_LANE

    def test_served_view_point_read_is_point(self, prepared):
        sql = "SELECT class FROM labeled_papers WHERE id = 3"
        assert self.lane_of(prepared, sql) == POINT_LANE

    def test_system_table_read_is_point(self, prepared):
        assert self.lane_of(prepared, "SELECT * FROM system.metrics") == POINT_LANE

    def test_full_scan_is_bulk(self, prepared):
        assert self.lane_of(prepared, "SELECT * FROM papers") == BULK_LANE

    def test_all_members_scan_is_bulk(self, prepared):
        sql = "SELECT id FROM labeled_papers WHERE class = 'database'"
        assert self.lane_of(prepared, sql) == BULK_LANE

    def test_dml_is_bulk(self, prepared):
        statement = prepared.prepare("INSERT INTO paper_area (label) VALUES ('x')")
        assert lane_for(statement.statement, statement.plan) == BULK_LANE

    def test_unplanned_statement_is_bulk(self):
        assert lane_for(None, None) == BULK_LANE


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(slots=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(point_weight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController().admit("express").__enter__()

    def test_uncontended_admit_is_immediate(self):
        controller = AdmissionController(slots=2)
        with controller.admit(POINT_LANE):
            with controller.admit(BULK_LANE):
                stats = controller.stats()
                assert stats["point.in_flight"] == 1
                assert stats["bulk.in_flight"] == 1
        stats = controller.stats()
        assert stats["point.in_flight"] == 0
        assert stats["bulk.in_flight"] == 0
        assert stats["point.admitted_total"] == 1
        assert stats["bulk.admitted_total"] == 1

    def test_slots_bound_concurrency(self):
        controller = AdmissionController(slots=2, queue_capacity=16)
        running = threading.Semaphore(0)
        finish = threading.Event()
        peak = []

        def worker():
            with controller.admit(POINT_LANE, timeout=10):
                running.release()
                finish.wait(timeout=10)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        assert running.acquire(timeout=5) and running.acquire(timeout=5)
        time.sleep(0.05)  # give a third worker the chance to (wrongly) run
        peak.append(controller.stats()["point.in_flight"])
        finish.set()
        for thread in threads:
            thread.join(timeout=10)
        assert peak[0] == 2
        assert controller.stats()["point.admitted_total"] == 5

    def test_full_lane_rejects_immediately(self):
        controller = AdmissionController(slots=1, queue_capacity=1)
        finish = threading.Event()
        started = threading.Event()

        def occupant():
            with controller.admit(BULK_LANE, timeout=10):
                started.set()
                finish.wait(timeout=10)

        thread = threading.Thread(target=occupant)
        thread.start()
        assert started.wait(timeout=5)

        # One waiter fills the queue...
        waiter_started = threading.Event()

        def waiter():
            waiter_started.set()
            with controller.admit(BULK_LANE, timeout=10):
                pass

        waiting = threading.Thread(target=waiter)
        waiting.start()
        assert waiter_started.wait(timeout=5)
        deadline = time.perf_counter() + 5
        while controller.stats()["bulk.depth"] < 1:
            assert time.perf_counter() < deadline
            time.sleep(0.01)

        # ...and the next submission is rejected, not queued.
        with pytest.raises(AdmissionRejectedError):
            with controller.admit(BULK_LANE, timeout=10):
                pass
        assert controller.stats()["bulk.rejected_total"] == 1
        finish.set()
        thread.join(timeout=10)
        waiting.join(timeout=10)

    def test_wait_timeout_raises_and_withdraws(self):
        controller = AdmissionController(slots=1, queue_capacity=8)
        finish = threading.Event()
        started = threading.Event()

        def occupant():
            with controller.admit(POINT_LANE, timeout=10):
                started.set()
                finish.wait(timeout=10)

        thread = threading.Thread(target=occupant)
        thread.start()
        assert started.wait(timeout=5)
        with pytest.raises(AdmissionTimeoutError):
            with controller.admit(POINT_LANE, timeout=0.05):
                pass
        stats = controller.stats()
        assert stats["point.timeouts_total"] == 1
        assert stats["point.depth"] == 0  # the timed-out ticket withdrew
        finish.set()
        thread.join(timeout=10)
        # The freed slot must not be granted to the withdrawn ticket.
        with controller.admit(POINT_LANE, timeout=5):
            pass

    def test_bulk_never_fills_every_slot(self):
        controller = AdmissionController(slots=3)
        assert controller.bulk_slot_cap == 2
        finish = threading.Event()
        running = threading.Semaphore(0)

        def bulk_worker():
            with controller.admit(BULK_LANE, timeout=10):
                running.release()
                finish.wait(timeout=10)

        threads = [threading.Thread(target=bulk_worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        assert running.acquire(timeout=5) and running.acquire(timeout=5)
        time.sleep(0.05)
        stats = controller.stats()
        assert stats["bulk.in_flight"] == 2  # the third bulk waits
        assert stats["bulk.depth"] == 1
        # The reserved slot admits a point read straight away.
        with controller.admit(POINT_LANE, timeout=5):
            pass
        finish.set()
        for thread in threads:
            thread.join(timeout=10)

    def test_weighted_grants_favor_point_lane(self):
        controller = AdmissionController(slots=1, point_weight=4, bulk_weight=1)
        order: list[str] = []
        order_lock = threading.Lock()
        gate = threading.Event()

        def worker(lane: str):
            gate.wait(timeout=10)
            with controller.admit(lane, timeout=30):
                with order_lock:
                    order.append(lane)
                time.sleep(0.002)

        threads = [threading.Thread(target=worker, args=(POINT_LANE,)) for _ in range(8)]
        threads += [threading.Thread(target=worker, args=(BULK_LANE,)) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let everyone reach the gate before the grant storm
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(order) == 16
        # With 4:1 weights, the first 10 grants should be point-heavy: at
        # least 6 of the first 10 must be point admissions.
        assert order[:10].count(POINT_LANE) >= 6

    def test_stats_shape(self):
        stats = AdmissionController(slots=2, queue_capacity=7).stats()
        assert stats["slots"] == 2
        assert stats["queue_capacity"] == 7
        for lane in ("point", "bulk"):
            for key in (
                "depth",
                "in_flight",
                "admitted_total",
                "rejected_total",
                "timeouts_total",
                "wait_seconds_total",
                "max_wait_seconds",
            ):
                assert f"{lane}.{key}" in stats

    def test_a_server_builds_its_controller_from_its_lane_settings(self):
        conn = repro.connect()
        try:
            server = SQLServer(
                conn.engine,
                slots=3,
                queue_capacity=5,
                point_weight=2,
                bulk_weight=1,
                bulk_slot_cap=1,
            )
            admission = server.admission
            assert (
                admission.slots,
                admission.queue_capacity,
                admission.point_weight,
                admission.bulk_weight,
                admission.bulk_slot_cap,
            ) == (3, 5, 2, 1, 1)
            with pytest.raises(ConfigurationError, match="bulk_slot_cap"):
                SQLServer(conn.engine, slots=2, bulk_slot_cap=3)
        finally:
            conn.close()
