"""Tests for queueing resources (repro.sim.resources)."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SerialServer


class TestSerialServer:
    def test_idle_server_starts_immediately(self):
        q = SerialServer()
        assert q.submit(10.0, 5.0) == 15.0

    def test_jobs_queue_back_to_back(self):
        q = SerialServer()
        assert q.submit(0.0, 10.0) == 10.0
        assert q.submit(2.0, 5.0) == 15.0
        assert q.submit(3.0, 1.0) == 16.0

    def test_idle_gap_resets_start(self):
        q = SerialServer()
        q.submit(0.0, 1.0)
        assert q.submit(100.0, 2.0) == 102.0

    def test_backlog(self):
        q = SerialServer()
        q.submit(0.0, 10.0)
        assert q.backlog(4.0) == 6.0
        assert q.backlog(50.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SerialServer().submit(0.0, -1.0)

    def test_counters(self):
        q = SerialServer()
        q.submit(0.0, 3.0)
        q.submit(0.0, 4.0)
        assert q.jobs_served == 2 and q.busy_time == 7.0

    def test_reset(self):
        q = SerialServer()
        q.submit(0.0, 3.0)
        q.reset()
        assert q.free_at == 0.0 and q.jobs_served == 0

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e5)),
                    min_size=1, max_size=30))
    def test_completion_times_monotone_under_sorted_arrivals(self, jobs):
        """FCFS invariant: with arrivals sorted, completions never decrease
        and every completion is at least arrival + duration."""
        q = SerialServer()
        prev_done = 0.0
        for arrive, dur in sorted(jobs):
            done = q.submit(arrive, dur)
            assert done >= arrive + dur
            assert done >= prev_done
            prev_done = done

    @given(st.lists(st.floats(0.001, 100), min_size=1, max_size=20))
    def test_total_busy_time_conserved(self, durations):
        q = SerialServer()
        for d in durations:
            q.submit(0.0, d)
        assert q.free_at == pytest.approx(sum(durations))
