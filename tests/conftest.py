"""Shared test fixtures.

Sweeps append perf records to ``REPRO_BENCH_PATH`` (default: the
committed ``results/BENCH_sweep.json``) and telemetry snapshots to
``REPRO_TELEMETRY_PATH``.  Keep a test run out of both: perf records go
to the test's own temporary directory, and the telemetry sink stays off
(a sink path would also switch telemetry on for every sweep, which the
bulk engine rejects).  Tests that pass an explicit ``bench_path`` or set
the variables themselves are unaffected.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_sinks(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_PATH", str(tmp_path / "BENCH_sweep.json"))
    monkeypatch.setenv("REPRO_TELEMETRY_PATH", "")
