"""Shared fixtures: isolated graphs/runtimes per test.

Also implements the ``@pytest.mark.timeout(seconds)`` marker (declared in
pytest.ini) via ``SIGALRM``: workerpool tests use it as a watchdog so
a scheduler deadlock fails the test instead of hanging CI.  The offline
environment has no pytest-timeout plugin; this covers the same need for
main-thread tests on POSIX.

Setting ``REPRO_TEST_TIMEOUT=<seconds>`` additionally arms the watchdog
for every test *without* an explicit marker — ``make check`` sets it so
a wedged serving master fails the run fast instead of hanging CI on a
lock or condition wait.  Explicit markers always win.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

import repro
from repro.runtime.level_plan import HOLES


@pytest.fixture(autouse=True)
def _watchdog(request):
    """Abort a test that outlives its ``timeout`` marker (POSIX only)."""
    marker = request.node.get_closest_marker("timeout")
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    if marker is not None:
        seconds = int(marker.args[0])
    else:
        seconds = int(os.environ.get("REPRO_TEST_TIMEOUT", 0))
        if seconds <= 0:
            yield
            return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds}s watchdog — likely a deadlock "
            "(workerpool master) or a wedged serving thread")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def graph():
    """A fresh graph installed as the default for the test body."""
    g = repro.Graph("test")
    with g.as_default():
        yield g


@pytest.fixture
def runtime():
    """A fresh runtime (variables/accumulators/cache)."""
    return repro.Runtime()


@pytest.fixture
def session(graph, runtime):
    """A single-worker session on the test graph."""
    return repro.Session(graph, runtime)


def run(tensors, feeds=None, *, graph=None, runtime=None, workers=1,
        record=False, **kwargs):
    """One-shot helper: run fetches on a fresh session."""
    target = graph if graph is not None else (
        tensors[0].graph if isinstance(tensors, (list, tuple))
        else tensors.graph)
    sess = repro.Session(target, runtime or repro.Runtime(),
                         num_workers=workers, record=record, **kwargs)
    return sess.run(tensors, feeds)


def assert_one_hole_fallback(stats):
    """A shape profile with ``None`` holes costs exactly one fallback,
    counted by its reason, and compiles nothing."""
    assert stats.level_plan_hits == 0
    assert stats.level_plan_fallbacks == 1
    assert stats.level_plan_fallback_reasons == {HOLES: 1}
    assert stats.level_plan_partial_roots == 0
    assert stats.level_plan_subtree_runs == 0
