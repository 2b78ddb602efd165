PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-fast check test-batching test-serving \
        soak soak-ci bench bench-fig8 bench-serving bench-serving-slo \
        bench-smoke bench-overhead bench-level \
        bench-memory profile profile-step bench-e2e bench-e2e-selfcheck \
        bench-e2e-compare test-bench-e2e

# Tier-1: the full test suite (what CI gates on).
test:
	$(PYTHON) -m pytest -x -q

# The quick inner-loop subset: everything except the serving suites and
# the long-running stress/soak suites (both still run under `make test`).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not serving and not stress and not soak"

# The pre-push gate: fast tests, the CI-sized soak (~30s: bounded-memory
# and SLO counters under sustained load), plus the bench-smoke canaries
# (tiny fig7/table2 sweeps, the continuous-serving canary and the
# spawn-overhead regression gate).  REPRO_TEST_TIMEOUT arms the conftest
# watchdog for every unmarked test so a wedged serving master fails the
# gate fast instead of hanging it on a lock or condition wait.
check: export REPRO_TEST_TIMEOUT ?= 180
check: test-fast soak-ci bench-smoke test-bench-e2e

# The benchmark harness's own self-tests (outside tier-1's testpaths).
test-bench-e2e:
	$(PYTHON) -m pytest bench_e2e/tests -q

# CI-sized sustained soak (a few thousand requests, ~30s).
soak-ci:
	$(PYTHON) -m pytest -x -q -m soak

# The full sustained soak: 10^5 requests through one long-lived server
# (heavy-tailed tree sizes, deadlines, cancellations, bounded-memory
# assertion); records its row into BENCH_serving.json.
soak:
	SOAK_REQUESTS=100000 SOAK_RECORD=1 $(PYTHON) -m pytest -x -q -m soak -s

# The micro-batching equivalence + stress subset.
test-batching:
	$(PYTHON) -m pytest -q tests/test_batching.py tests/test_batching_stress.py tests/test_recursive_gradients.py

# All paper-reproduction benchmarks (slow).
bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks -q -s

# The serving-path subset (server semantics, latency accounting, soak).
test-serving:
	$(PYTHON) -m pytest -q -m serving

# The inference-throughput bench; refreshes BENCH_fig8.json.
bench-fig8:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_fig8_inference_throughput.py -q -s

# Continuous-batching serving bench; refreshes BENCH_serving.json
# (wave vs continuous admission x unbatched vs batched, tail latency).
bench-serving:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_serving.py -q -s

# SLO serving bench: FIFO+queue-cap vs EDF+cost-shedding under overload
# (goodput and small-tree p99.9); merges the "slo" section into
# BENCH_serving.json.
bench-serving-slo:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_serving_slo.py -q -s

# Tiny-config fig7/table2 canary plus a ~1s continuous-serving canary
# (open-loop arrivals, wave vs continuous): every runner kind, both
# modes, batched backward pass — fast enough to ride along with tier-1.
# Includes the spawn-overhead canary gating on BENCH_overhead.json.
bench-smoke:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_smoke.py -q -s

# Scheduler-overhead microbench: frame-spawn rate and per-instance
# dispatch overhead (host wall-clock); refreshes BENCH_overhead.json
# ("after" block — the recorded "before" is the pre-FramePlan engine).
bench-overhead:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_overhead.py -q -s

# Level-plan compilation bench: paired dynamic-vs-compiled dispatch at
# the paper's batch sizes (infer + train); merges the "level_plan"
# section into BENCH_overhead.json and gates on the >=1.5x bar at
# batch 10.  The fast equivalence canary rides `make check` via
# bench-smoke; this is the full paired measurement.
bench-level:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_level_plan.py -q -s

# Memory-aware execution bench: dense vs sparse embedding gradients and
# unbounded vs budgeted dispatch on a large-vocab TreeLSTM training step
# (peak live-scratch estimate + process RSS per row); merges the
# "memory" section into BENCH_overhead.json and gates on the >=5x
# peak-scratch reduction at >=0.95x throughput.  A miniature peak-RSS
# canary rides `make check` via bench-smoke.
bench-memory:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/bench_memory.py -q -s

# The wall-clock + virtual-time benchmark PRs are judged by
# (BENCHMARK.json): every workload, one fresh process each.
bench-e2e:
	$(PYTHON) -m bench_e2e --all

# The suite twice on one seed; must repeat within its own bounds.
bench-e2e-selfcheck:
	$(PYTHON) -m bench_e2e --selfcheck

# Before/after table of two recorded runs:
#   make bench-e2e-compare A=parent.jsonl B=change.jsonl
bench-e2e-compare:
	$(PYTHON) -m bench_e2e --compare $(A) $(B)

# TreeLSTM continuous-serving canary under cProfile: prints the top-20
# cumulative hot spots of the scheduler/serving path.
profile:
	PYTHONPATH=src:. $(PYTHON) benchmarks/profile_serving.py

# One warm bench_e2e step taken apart: cProfile, kernel time per op type
# and the operand-copy bytes of the compiled sweep (BLAS on one thread,
# like the benchmark's worker); for a compiled config also how the warm
# plan's imports are wired, per family and segment (alias / slice / take
# / multi / multi + permutation), and how many deferred blocks the value
# cache holds after the sweep:
#   make profile-step W=train_b10 C=lvl
#   make profile-step W=infer_b10 F=1    (warm step vs bare-kernel replay)
#   make profile-step W=serve_longtail C=lvl   (per-burst split of warm bursts)
W ?= train_b10
C ?= lvl
profile-step:
	OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. $(PYTHON) benchmarks/profile_step.py --workload $(W) --config $(C) $(if $(F),--floor)
