"""Every call the benchmark traces still exists in the program.

``perfbench/tracing.py:install`` wraps each ``TARGETS`` entry on its class
and on every subclass that defines it, and silently skips a class that
does not.  A renamed method would therefore make its benchmark layer read
zero without any error; this test turns that into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subclasses(cls: type) -> list[type]:
    found, stack = [], [cls]
    while stack:
        klass = stack.pop()
        if klass not in found:
            found.append(klass)
            stack.extend(klass.__subclasses__())
    return found


TARGETS = _tracing().TARGETS


@pytest.mark.parametrize(
    "module_name, path", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_target_names_a_defined_callable(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    owners = _subclasses(owner) if isinstance(owner, type) else [owner]
    defined = [vars(klass).get(attr) for klass in owners]
    assert any(callable(fn) for fn in defined), f"{path} is not defined"
