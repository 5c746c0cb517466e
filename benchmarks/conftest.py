"""Each benchmark's BENCH_sweep.json telemetry digest covers that benchmark only."""

import pytest

from benchmarks._common import open_telemetry_window


@pytest.fixture(autouse=True)
def telemetry_window():
    open_telemetry_window()
    yield
