"""bench_e2e — the repo's wall-clock + virtual-time benchmark.

One command measures four seeded workloads end to end and attributes the
result to the layers of ARCHITECTURE.md *from outside*: every number
comes from timing a public call (``repro.Session``, ``Session.serve``,
``repro.gradients``, ``Optimizer.build_apply``, ``FoldingExecutor``),
differencing two timed configs, or reading a public ``RunStats``
counter.  Nothing under ``src/`` knows this package exists.

    python3 -m bench_e2e --workload infer_b10 --seed 7 --seconds 24 --trace 0
    python3 -m bench_e2e --all --trace
    python3 -m bench_e2e --selfcheck
    python3 -m bench_e2e --compare A.jsonl B.jsonl

See ``bench_e2e/README.md`` for the metric glossary, the layer ->
end-to-end table and the noise protocol; ``BENCHMARK.json`` at the repo
root is the contract later PRs are judged by.
"""
