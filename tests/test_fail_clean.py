"""A kernel that raises mid-run fails the run cleanly.

On every registered executor and every execution tier (``dynamic``,
``batched``, ``level-plan``), a kernel raising at the first, the middle
or the last instance it executes must:

* surface as one :class:`~repro.runtime.scheduler.EngineError` naming
  the failing op — the run returns, it does not hang;
* leave no executor thread behind;
* leave the session reusable: its next run equals the run before the
  fault bit for bit — fetched values and, in training mode, every
  accumulated gradient and the size of the recorded value cache.

The fault counts *instances*, not kernel calls: a fused bucket of ``n``
members counts ``n``, so the instance it fires on is well defined on
the wall-clock executor too, where bucket composition varies from run
to run.  A compiled sweep's stacked call counts one; its schedule is
fixed.
"""

import threading

import numpy as np
import pytest

import repro
from repro.data import batch_trees, make_treebank
from repro.graph.registry import op_def
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime.scheduler import available_executors

ENGINES = available_executors()
TIERS = ["dynamic", "batched", "level-plan"]
CONFIG = ModelConfig(vocab_size=40, hidden=6, embed_dim=6)


class InjectedFault(RuntimeError):
    pass


class _Fault:
    """Wraps every kernel entry of one op type; the call that executes
    count number ``at`` (1-based, across all entries) raises."""

    def __init__(self, monkeypatch, op_type):
        self.instances = 0
        self.at = None
        self._lock = threading.Lock()
        definition = op_def(op_type)
        wrappers = {"kernel": lambda args: 1,
                    "batched_kernel": lambda args: len(args[0]),
                    "stacked_kernel": lambda args: 1}
        for entry, count in wrappers.items():
            real = getattr(definition, entry)
            if real is not None:
                monkeypatch.setattr(definition, entry,
                                    self._wrap(real, count))

    def _wrap(self, real, count):
        def entry(*args):
            with self._lock:
                first = self.instances + 1
                self.instances += count(args)
                fire = (self.at is not None
                        and first <= self.at <= self.instances)
            if fire:
                raise InjectedFault(f"injected fault at instance {self.at}")
            return real(*args)
        return entry


@pytest.fixture(scope="module")
def trees():
    return make_treebank(num_train=2, num_val=0, vocab_size=40,
                         max_words=9, mean_log_words=2.0, seed=13).train


@pytest.mark.parametrize("mode", ["forward", "train"])
@pytest.mark.parametrize("point", ["first", "middle", "last"])
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.timeout(60)
def test_kernel_fault_fails_cleanly(trees, engine, tier, point, mode,
                                    monkeypatch):
    fault = _Fault(monkeypatch, "Tanh")
    train = mode == "train"
    runtime = repro.Runtime()
    built = TreeRNNSentiment(CONFIG, runtime).build_recursive(len(trees))
    batch = batch_trees(trees)
    fetches = [built.loss, built.root_logits]
    if train:
        with built.graph.as_default():
            _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=3,
                            engine=engine, record=train,
                            batching=tier == "batched")
    kwargs = ({"shape_profile": built.shape_profiles(batch)}
              if tier == "level-plan" else {})
    feeds = built.feed_dict(batch)

    def run():
        runtime.accumulators.zero()
        values = session.run(fetches, feeds, **kwargs)
        assert session.last_stats.level_plan_hits == (tier == "level-plan")
        grads = {n: np.copy(runtime.accumulators.read(n))
                 for n in runtime.accumulators.names()}
        return values, grads, len(runtime.cache)

    before = run()
    total, fault.instances = fault.instances, 0
    assert total >= 3
    fault.at = {"first": 1, "middle": (total + 1) // 2, "last": total}[point]
    threads = threading.active_count()
    with pytest.raises(repro.EngineError,
                       match=r"\(Tanh\).*injected fault at instance"):
        run()
    assert threading.active_count() == threads

    fault.at, fault.instances = None, 0
    after = run()
    assert fault.instances == total
    for ref, got in zip(before[0], after[0]):
        assert np.array_equal(ref, got)
    assert set(before[1]) == set(after[1])
    for name, ref in before[1].items():
        assert np.array_equal(ref, after[1][name]), name
    assert after[2] == before[2]
