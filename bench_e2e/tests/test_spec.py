import json
import os
import re

from bench_e2e import spec
from bench_e2e.tests.conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_fit_the_contract():
    names = [w.name for w in spec.WORKLOADS]
    names += [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("higher", "lower"), m
        assert m.what, m


def test_counts_and_bounds_fit_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 1 <= spec.RUN_SECONDS <= 60
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in spec.WORKLOADS)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    # set-up time carries the largest bound
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    # every per-layer metric says which end-to-end metric it should move
    assert all(m.moves for m in spec.PER_LAYER)


def test_benchmark_json_is_the_spec_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == spec.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}


def test_readme_explains_every_workload_and_metric():
    with open(os.path.join(ROOT, "bench_e2e", "README.md")) as fh:
        readme = fh.read()
    for name in ([w.name for w in spec.WORKLOADS]
                 + [m.name for m in spec.END_TO_END + spec.PER_LAYER]):
        assert f"`{name}`" in readme, name
