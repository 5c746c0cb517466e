"""Self-tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ["REPRO_TELEMETRY"] = "0"


@pytest.fixture(autouse=True, scope="session")
def _isolated_exploration_cache(tmp_path_factory):
    """Ladders explored by the tests land in a temporary directory."""
    previous = os.environ.get("REPRO_EXPLORATION_CACHE")
    os.environ["REPRO_EXPLORATION_CACHE"] = str(tmp_path_factory.mktemp("exploration"))
    yield
    if previous is None:
        os.environ.pop("REPRO_EXPLORATION_CACHE", None)
    else:
        os.environ["REPRO_EXPLORATION_CACHE"] = previous
