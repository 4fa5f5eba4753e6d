"""Tests for the server's serial lanes over a shared thread pool."""

import threading
import time

import pytest

from repro.service.lanes import FleetExecutor, SerialLane


class TestFleetExecutor:
    def test_lane_preserves_submission_order(self):
        with FleetExecutor(workers=4) as fleet:
            lane = fleet.lane()
            order = []
            futs = [lane.submit(lambda i=i: order.append(i)) for i in range(20)]
            for fut in futs:
                fut.result(timeout=10)
        assert order == list(range(20))

    def test_lane_tasks_never_overlap(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        def task():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.002)
            with lock:
                active -= 1

        with FleetExecutor(workers=8) as fleet:
            lane = fleet.lane()
            futs = [lane.submit(task) for _ in range(10)]
            for fut in futs:
                fut.result(timeout=10)
        assert peak == 1

    def test_independent_lanes_run_concurrently(self):
        """Two lanes blocked on each other's event can only finish if the
        pool runs them at the same time."""
        a, b = threading.Event(), threading.Event()
        with FleetExecutor(workers=4) as fleet:
            fa = fleet.lane().submit(lambda: (a.set(), b.wait(10))[1])
            fb = fleet.lane().submit(lambda: (b.set(), a.wait(10))[1])
            assert fa.result(timeout=10) and fb.result(timeout=10)

    def test_exceptions_delivered_via_future(self):
        with FleetExecutor(workers=2) as fleet:
            lane = fleet.lane()
            boom = lane.submit(lambda: 1 / 0)
            after = lane.submit(lambda: "survived")
            with pytest.raises(ZeroDivisionError):
                boom.result(timeout=10)
            assert after.result(timeout=10) == "survived"

    def test_lane_idle_after_drain(self):
        with FleetExecutor(workers=2) as fleet:
            lane = fleet.lane()
            lane.submit(lambda: None).result(timeout=10)
            assert lane.depth == 0
            # A drained lane accepts new work (the pump restarts).
            assert lane.submit(lambda: 7).result(timeout=10) == 7

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            FleetExecutor(workers=0)

    def test_submit_after_shutdown_raises_and_strands_nothing(self):
        fleet = FleetExecutor(workers=2)
        lane = fleet.lane()
        assert lane.submit(lambda: 1).result(timeout=10) == 1
        fleet.shutdown()
        with pytest.raises(RuntimeError):
            lane.submit(lambda: 2)
        # The doomed task was drained, not left behind a pump that
        # will never run.
        assert lane.depth == 0

    def test_submit_failure_fails_racing_futures(self):
        """A submit racing the losing pump start gets its future failed,
        not stranded forever behind a pump that never runs."""
        box = {}

        class ClosedPool:
            def submit(self, fn):
                # Emulate a second lane.submit landing between the
                # pump flag being set and the pump start failing: it
                # queues without trying to start a pump of its own.
                box["racer"] = box["lane"].submit(lambda: "never runs")
                raise RuntimeError("cannot schedule new futures after shutdown")

        lane = SerialLane(ClosedPool())
        box["lane"] = lane
        with pytest.raises(RuntimeError):
            lane.submit(lambda: "never runs")
        with pytest.raises(RuntimeError, match="shut down"):
            box["racer"].result(timeout=0)
        assert lane.depth == 0
        # The lane stays usable once a pool accepts work again.
        assert not lane._pumping
