"""Bench-suite options: one ``--engine`` flag for every bench script.

``pytest benchmarks --engine workerpool`` routes every bench session /
runner / serving driver through the named executor backend, resolved via
the runtime executor registry (:mod:`repro.runtime.scheduler`) instead
of each script hard-coding engine construction.  The default ("event",
also settable via REPRO_BENCH_ENGINE) is the deterministic virtual-time
backend the recorded BENCH_*.json baselines were measured on.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--engine", default=None,
        help="executor backend for the benches (a name registered in the "
             "runtime executor registry, i.e. event | workerpool)")


def pytest_configure(config):
    engine = config.getoption("--engine", default=None)
    if engine:
        from benchmarks import common
        common.set_bench_engine(engine)
