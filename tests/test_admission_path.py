"""Roots enter an executor one way: ``SchedulerCore.submit_root``.

``run`` is a one-request serving session over it, so the dynamic and
compiled tiers, one-shot runs and served requests share one admission
state machine.  A backend that overrode either method would bring a
second path back, so this pins both to the core's implementation.
"""

import pytest

from repro.runtime.scheduler import (SchedulerCore, available_executors,
                                     resolve_executor)


@pytest.mark.parametrize("name", available_executors())
@pytest.mark.parametrize("method", ["run", "submit_root"])
def test_executor_admits_roots_through_the_core(name, method):
    assert getattr(resolve_executor(name), method) is getattr(SchedulerCore,
                                                              method)
