import json
import os
import subprocess
import sys

from bench_e2e import spec
from bench_e2e.__main__ import child_env
from bench_e2e.compare import compare_files, worse_by
from bench_e2e.tests.conftest import ROOT


def test_child_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_LEVEL_PARALLEL", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].startswith(os.path.join(ROOT, "src"))


def test_command_prints_exactly_the_end_to_end_metrics():
    """The contract run: the last stdout line is one JSON object with
    the four keys, and its metrics are BENCHMARK.json's end_to_end."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--workload", "kernel_bound",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_worse_by_respects_the_metric_direction():
    higher = spec.Metric("x_per_s", "1/s", "higher", 0.1)
    lower = spec.Metric("x_s", "s", "lower", 0.1)
    assert worse_by(higher, 100.0, 80.0) == 0.2
    assert worse_by(higher, 100.0, 120.0) == -0.2
    assert worse_by(lower, 2.0, 2.5) == 0.25


def rows(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({"workload": "infer_b10", "metrics": {
                "dyn_inst_per_s": {"value": v, "unit": "1/s"}}}) + "\n")
    return str(path)


def test_compare_reports_ok_worse_and_unresolved(tmp_path, capsys):
    steady = rows(tmp_path / "a", [100, 101, 99, 100, 102])
    assert compare_files(steady, rows(tmp_path / "b", [97, 98, 99])) == 0
    assert " ok " in capsys.readouterr().out
    assert compare_files(steady, rows(tmp_path / "c", [70, 71, 72])) == 1
    assert "WORSE" in capsys.readouterr().out
    noisy = rows(tmp_path / "d", [60, 100, 140, 80, 120])
    assert compare_files(noisy, rows(tmp_path / "e", [70, 71, 72])) == 0
    assert "unresolved" in capsys.readouterr().out
