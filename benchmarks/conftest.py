"""Bench-suite options: one ``--engine`` flag for every bench script.

``pytest benchmarks --engine workerpool`` routes every bench session /
runner / serving driver through the named executor, resolved by
:func:`repro.runtime.scheduler.resolve_executor` instead of each script
hard-coding engine construction.  The default ("event",
also settable via REPRO_BENCH_ENGINE) is the deterministic virtual-time
backend the recorded BENCH_*.json baselines were measured on.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--engine", default=None,
        help="executor for the benches (event | workerpool)")


def pytest_configure(config):
    engine = config.getoption("--engine", default=None)
    if engine:
        from benchmarks import common
        common.set_bench_engine(engine)
