"""One workload in one fresh process: ``python -m bench_e2e.worker``.

The CLI (``bench_e2e.__main__``) starts this module with a scrubbed
environment — BLAS pinned to one thread, every ``REPRO_*`` knob unset —
so a workload never sees another's warmed caches, adaptive-policy state
or RSS high-water mark.  The result row is the last line of stdout;
everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "bench_e2e", "results")


def bench_classes() -> dict:
    from .serve import ServeLongtail
    from .sweep import InferB10, KernelBound, TrainB10
    return {"infer_b10": InferB10, "train_b10": TrainB10,
            "kernel_bound": KernelBound, "serve_longtail": ServeLongtail}


def provenance() -> dict:
    """What produced a row: commit, host, interpreter, knobs."""
    import numpy

    from repro.runtime import available_executors

    from .harness import nproc
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"     # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": nproc(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "executors": available_executors(),
        "repro_env": {k: v for k, v in os.environ.items()
                      if k.startswith("REPRO_")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    from .harness import run_workload
    trace_path = ""
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        trace_path = os.path.join(
            RESULTS, f"trace_{args.workload}_seed{args.seed}.json")
    row = run_workload(bench_classes()[args.workload], args.seed,
                       args.seconds, bool(args.trace), trace_path)
    row["provenance"] = provenance()
    if trace_path:
        row["context"]["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    sys.stdout.flush()
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
