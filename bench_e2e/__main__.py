"""Command line: ``python3 -m bench_e2e`` (see the package docstring)."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys

from . import spec
from .compare import compare_files, worse_by
from .worker import RESULTS, ROOT

#: the contract allows a run 180 s; a wedged pool must not outlive that
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """The scrubbed environment every workload process runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[knob] = "1"
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own fresh process; returns its result row."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench_e2e.worker", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # the worker's own group: a wedged pool worker dies with it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with code "
                           f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def record(row: dict, out: str) -> None:
    """Append the row to the untracked trajectory (and ``--out``)."""
    os.makedirs(RESULTS, exist_ok=True)
    targets = [os.path.join(RESULTS, "history.jsonl")]
    if out:
        targets.append(out)
    for path in targets:
        with open(path, "a") as fh:
            fh.write(json.dumps(row) + "\n")


def print_table(row: dict) -> None:
    ctx = row["context"]
    print(f"== {row['workload']}  seed={row['seed']}  trace={row['trace']}"
          f"  nodes={ctx['nodes']}  rounds={ctx['rounds']}  "
          f"operations={row['attempted']} failed={row['failed']}  "
          f"probe_ms={ctx['probe_ms']['min']:.2f}/"
          f"{ctx['probe_ms']['median']:.2f}  "
          f"steal={ctx['steal_share']:.1%}")
    for name, metric in row["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    for message in row["failures"]:
        print(f"  FAILED {message}")


def contract(row: dict) -> dict:
    """The four keys the benchmark contract asks for."""
    return {k: row[k] for k in ("correct", "attempted", "failed", "metrics")}


def selfcheck(seed: int, seconds: float) -> int:
    """Run the suite twice; every end-to-end metric must repeat within
    its own bound, the virtual one exactly."""
    bad = 0
    for workload in spec.WORKLOADS:
        a, b = (run_child(workload.name, seed, seconds, 0) for _ in range(2))
        for m in spec.END_TO_END:
            va, vb = (r["metrics"][m.name]["value"] for r in (a, b))
            if m.name.startswith("virt_"):
                ok, limit = va == vb, "exactly"
            else:
                # symmetric: neither run may be worse than the other
                ok = max(worse_by(m, va, vb), worse_by(m, vb, va)) <= m.bound
                limit = f"within {m.bound:.0%}"
            print(f"{'ok  ' if ok else 'FAIL'} {workload.name:<15} "
                  f"{m.name:<16} {va:.6g} vs {vb:.6g}  (must repeat {limit})")
            bad += not ok
        bad += not (a["correct"] and b["correct"])
    return 1 if bad else 0


def main(argv=None) -> int:
    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e",
                                     description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=names)
    mode.add_argument("--all", action="store_true",
                      help="every workload, each in its own process")
    mode.add_argument("--selfcheck", action="store_true",
                      help="run the suite twice and compare with the bounds")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="ratios B/A per (metric, workload) from two "
                           "row files written with --out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--out", default="",
                        help="also append every result row to this file")
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench_e2e: no src/repro next to bench_e2e/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)

    rows = [run_child(name, args.seed, args.seconds, args.trace)
            for name in (names if args.all else [args.workload])]
    for row in rows:
        record(row, args.out)
        print_table(row)
    sys.stdout.flush()
    if args.all:
        print(json.dumps({row["workload"]: contract(row) for row in rows}))
    else:
        print(json.dumps(contract(rows[0])))
    # a printed result exits 0; its "correct" field carries the verdict
    return 0


if __name__ == "__main__":
    sys.exit(main())
