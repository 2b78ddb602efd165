import random
import statistics

import pytest

from bench_e2e import estimator


def drifting_rounds(true_steps, rounds, seed):
    """The host alternates between 1.0x, 1.6x and 1.3x its best speed in
    phases of 2-4 rounds (so every 12-round run sees a quiet phase, but
    most of its rounds are slow), plus 1% jitter per step."""
    rng = random.Random(seed)
    speeds, phase = [], rng.randrange(3)
    while len(speeds) < rounds:
        speeds += [(1.0, 1.6, 1.3)[phase % 3]] * rng.randint(2, 4)
        phase += 1
    return [[t * speed * (1 + 0.01 * rng.random()) for t in true_steps]
            for speed in speeds[:rounds]]


def test_floor_recovers_the_true_cost_under_drift():
    true_steps = [0.30, 0.45]
    floors, medians = [], []
    for seed in range(10):
        samples = drifting_rounds(true_steps, rounds=12, seed=seed)
        floors.append(estimator.floor_s(samples))
        medians.append(statistics.median(sum(r) for r in samples))
    truth = sum(true_steps)
    assert all(truth <= f <= truth * 1.02 for f in floors)
    # the per-process median is what the floor replaces: it wanders
    assert max(medians) / min(medians) > 1.15
    assert max(floors) / min(floors) < 1.02


def test_floor_takes_each_step_from_its_own_fastest_round():
    # no single round is fastest on both steps
    assert estimator.floor_s([[1.0, 5.0], [3.0, 2.0]]) == 3.0
    assert estimator.floor_s([[1.0, estimator.FAILED], [3.0, 2.0]]) == 3.0


def test_floor_rejects_ragged_or_empty_input():
    with pytest.raises(ValueError):
        estimator.floor_s([])
    with pytest.raises(ValueError):
        estimator.floor_s([[1.0, 2.0], [1.0]])


def test_summarize_keeps_median_and_iqr_as_context():
    out = estimator.summarize([[1.0], [2.0], [3.0], [4.0]])
    assert out["floor_s"] == 1.0 and out["median_s"] == 2.5
    assert out["rounds"] == 4 and out["iqr_s"] > 0


@pytest.mark.parametrize("n, level", [(10_000, 99.9), (1200, 99.0),
                                      (1000, 99.0), (999, 95.0),
                                      (200, 95.0), (199, 90.0),
                                      (100, 90.0), (99, 75.0), (39, None)])
def test_percentile_rule_needs_ten_samples_beyond(n, level):
    assert estimator.supported_percentile(n) == level


def test_tail_refuses_a_percentile_the_sample_cannot_support():
    values = list(range(200))
    assert estimator.tail(values, 95.0) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="ten samples beyond"):
        estimator.tail(values, 99.0)
    with pytest.raises(ValueError):
        estimator.tail(values[:20], 75.0)


def test_iqr_share_is_the_drivers_spread():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.9, 9.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert estimator.iqr_share(values) == pytest.approx((q3 - q1) / med)


def test_host_probe_reads_a_positive_time():
    assert estimator.host_probe_ms() > 0
