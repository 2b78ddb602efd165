import repro
from bench_e2e import estimator, harness
from bench_e2e.harness import Bench, Config, measure
from bench_e2e.trace import Tracer
from bench_e2e.verify import Checker


class FakeBench(Bench):
    """Two steps whose 'outputs' are just the step index."""

    name = "fake"
    nodes = [10, 20]

    def __init__(self, boom=None):
        super().__init__(0, Tracer(), Checker())
        self.order = []
        self.boom = boom

    def step(self, config, s):
        self.order.append((config.name, s))
        if (config.name, s) == self.boom:
            raise RuntimeError("kernel raised")
        return s, {"virtual_s": 0.5, "ops": 3}

    def verify(self, config, s, step_id, raw):
        self.checker.expect(step_id, raw == s, "wrong step")


CONFIGS = [Config("a", "event", 1), Config("b", "event", 1),
           Config("c", "event", 1, rounds=1)]


def test_rounds_interleave_configs_and_rotate_the_order():
    bench = FakeBench()
    run = measure(bench, CONFIGS[:2], label="r", rounds=2)
    assert bench.order == [("a", 0), ("b", 0), ("b", 1), ("a", 1),
                           ("b", 0), ("a", 0), ("a", 1), ("b", 1)]
    assert all(len(run.wall[n]) == 2 and len(run.wall[n][0]) == 2
               for n in "ab")
    assert (bench.checker.attempted, bench.checker.failed) == (8, 0)
    assert run.total("a", "virtual_s", 1) == 1.0
    assert run.rate("a", 30) == 30 / run.floor("a")
    assert run.rate("never_ran", 30) == 0.0


def test_side_configs_run_their_own_number_of_rounds():
    run = measure(FakeBench(), CONFIGS, label="side")
    assert [len(run.wall[n]) for n in "abc"] == [3, 3, 1]


def test_a_step_that_raises_is_a_failed_operation_not_a_crash():
    bench = FakeBench(boom=("b", 1))
    run = measure(bench, CONFIGS[:2], label="r", rounds=1)
    assert (bench.checker.attempted, bench.checker.failed) == (4, 1)
    assert run.wall["b"][0][1] == estimator.FAILED
    assert "kernel raised" in bench.checker.messages[0]


def test_an_unregistered_executor_is_skipped_not_failed():
    configs = [Config("dyn", "event", 36),
               Config("gone", "deleted_backend", 2)]
    runnable, skipped = harness._registered(configs)
    assert [c.name for c in runnable] == ["dyn"]
    assert skipped == ["deleted_backend"]
    assert harness._start_cost_s("deleted_backend") == 0.0


def test_stats_info_sums_the_runs_of_one_step():
    a, b = repro.RunStats(), repro.RunStats()
    a.virtual_time, a.ops_executed, a.max_batch = 0.25, 10, 4
    b.virtual_time, b.ops_executed, b.max_batch = 0.5, 5, 9
    a.level_width_hist = {0: {8: 2}, 1: {4: 1}}
    info = harness.stats_info(a, b)
    assert (info["virtual_s"], info["ops"], info["max_batch"]) == (0.75, 15, 9)
    assert (info["width_sum"], info["width_count"]) == (20, 3)
