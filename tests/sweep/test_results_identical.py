"""results_identical compares every field of a result, nested ones too.

Each case changes one dataclass field of a result (at the top level, in
an app outcome, in an interval record, in an interval's observation) and
expects the comparison to see it.  The cases are generated from
``dataclasses.fields``, so a field added later gets a case without edits.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.monitor import IntervalObservation
from repro.core.runtime import AppOutcome, ColocationResult, IntervalRecord
from repro.sweep import results_identical

#: Where an instance of each class sits inside the result built below.
LOCATIONS = {
    ColocationResult: (),
    AppOutcome: ("apps", 0),
    IntervalRecord: ("intervals", 0),
    IntervalObservation: ("intervals", 0, "observation"),
}


def _result() -> ColocationResult:
    observation = IntervalObservation(time=1.0, p99=0.5, qos=1.0, sample_count=10)
    return ColocationResult(
        service_name="memcached",
        policy_name="pliant",
        qos=1.0,
        epoch_times=np.array([0.1, 0.2]),
        epoch_p99=np.array([0.4, 0.5]),
        epoch_service_cores=np.array([8, 9]),
        epoch_app_levels={"kmeans": np.array([0, 3])},
        epoch_app_cores={"kmeans": np.array([8, 7])},
        intervals=[IntervalRecord(observation, "kmeans: level 0->3")],
        apps=[AppOutcome("kmeans", 12.0, 1.5, 1, 7, 1, [(1.0, 3)])],
        offered_qps=1000.0,
    )


def _perturb(value):
    """A value of the same shape that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return 1.0
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed[0] += 1
        return changed
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _perturb(value[first])}
    if isinstance(value, list):
        return value[:-1]
    if dataclasses.is_dataclass(value):
        name = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{name: _perturb(getattr(value, name))})
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _changed(obj, path, name):
    """``obj`` with field ``name`` changed on the object at ``path``."""
    if not path:
        return dataclasses.replace(obj, **{name: _perturb(getattr(obj, name))})
    head, *rest = path
    if isinstance(head, int):
        items = list(obj)
        items[head] = _changed(obj[head], rest, name)
        return items
    return dataclasses.replace(obj, **{head: _changed(getattr(obj, head), rest, name)})


CASES = [
    pytest.param(owner, f.name, id=f"{owner.__name__}.{f.name}")
    for owner in LOCATIONS
    for f in dataclasses.fields(owner)
]


def test_copy_is_identical():
    result = _result()
    assert results_identical(result, copy.deepcopy(result))


@pytest.mark.parametrize("owner, name", CASES)
def test_every_field_is_compared(owner, name):
    result = _result()
    changed = _changed(result, LOCATIONS[owner], name)
    assert not results_identical(result, changed)
    assert not results_identical(changed, result)


def test_dict_order_counts():
    result = _result()
    levels = {"a": np.array([1]), "b": np.array([2])}
    a = dataclasses.replace(result, epoch_app_levels=levels)
    b = dataclasses.replace(result, epoch_app_levels=dict(reversed(levels.items())))
    assert not results_identical(a, b)
