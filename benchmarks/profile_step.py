"""``make profile-step W=train_b10 C=lvl``: one warm ``bench_e2e`` step,
taken apart.

Sizing a dispatch optimisation needs three numbers the benchmark does
not print: where the Python time of one warm step goes (cProfile), how
much of it is kernels and of which op types (every registered kernel
entry timed in place), and how many bytes the compiled tier copies to
marshal operands (``take`` / ``stack`` calls of the level sweep).  The
step is the benchmark's own — its workload class, ``Config`` and
``_Program`` are imported from ``bench_e2e`` and driven exactly like
``harness.measure`` drives them — so what is profiled here is what
``python -m bench_e2e --workload W`` times as config ``C``.

The three passes are separate warm steps: the profiler and the timing
wrappers each distort the other's numbers.

For a compiled config it also prints the import-gather time of the
warm step by the path each import took — a whole-column alias, a slice
(a view), one ``take``, one read of a slab (the per-sweep array that
several producer columns fill), or a row slab (a slab that a producer
whose rows did not fit its array turned into a list of rows, read row
by row) — then how the warm plan's imports are *wired*, per family and
segment, by the kind the template decided ("one": one producer block
found by rank, read by a ``take``), and how many
deferred blocks the value cache holds after the sweep
(``ValueCache.store_column``; what a recorded sweep hands over and
nobody split into rows).

``--floor`` (``make profile-step F=1``) instead prints how far a warm
step sits above its *kernel floor*: every kernel entry call of one warm
step is recorded with its prepared arguments and replayed back to back,
so what separates the two numbers is the framework — instantiation
probe, import gathers, register traffic, accounting — and nothing else.

For a training workload it first prints the step's two runs apart:
the gradient run and the optimizer's apply run (its wall time and op
count), and inside the apply each variable's accumulator read.

``--count`` (``make profile-step N=1``) instead counts the Python and C
calls of one warm step (or burst) with the profiler of
``bench_smoke.work_counts`` and lists the most frequent C functions;
no timed pass runs under it.

``serve_longtail`` has no ``Session.run`` step: its step is one burst
(16 submits, then ``drain``) through the benchmark's own
``_Service.burst``.  For it the tool prints the mean per-burst split of
warm bursts — linearising each request's profile at admission, forest
instantiation and, inside it, the forest arrays, the rows (every
import's rows by rank arithmetic, :func:`level_plan.wiring.wire`), the
slab offsets and the block assembly, import gather (a block call's
operands and feeds), block execute and, inside it, the row loops, the
sweep's booking, and the rest (submit, admission, fetches) — then
cProfile of one warm burst.  Template-time wiring is a setup cost: a
warm burst never builds a template.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time
from collections import Counter, defaultdict

import numpy as np

from bench_e2e.harness import confined
from benchmarks.common import call_counts
from bench_e2e.serve import BURSTS
from bench_e2e.sweep import SweepBench
from bench_e2e.trace import Tracer
from bench_e2e.verify import Checker
from bench_e2e.worker import bench_classes
from repro.graph import registry
from repro.runtime import level_plan
from repro.runtime.level_plan import block, forest, sweep, wiring
from repro.runtime.scheduler import _values_bytes

WARM_STEPS = 8
#: warm bursts the serving split averages over
SPLIT_BURSTS = 40
KERNEL_ENTRIES = ("kernel", "stacked_kernel", "keyed_kernel",
                  "batched_kernel")


def _kernel_entries():
    """Every registered kernel entry: ``(op type, OpDef, slot, fn)``."""
    for name in registry.all_op_types():
        defn = registry.op_def(name)
        for entry in KERNEL_ENTRIES:
            fn = getattr(defn, entry, None)
            if fn is not None:
                yield name, defn, entry, fn


class _Probes:
    """Timing wrappers around every registered kernel entry and byte
    counters around the sweep's operand copies; ``reset()`` between
    passes, ``remove()`` restores what was patched."""

    def __init__(self):
        self.kernel_s = defaultdict(float)
        self.kernel_calls = defaultdict(int)
        self.copies = defaultdict(lambda: [0, 0])   # name -> [calls, bytes]
        self.gather = defaultdict(lambda: [0, 0.0])  # wiring -> [calls, s]
        self._undo = []
        for name, defn, entry, fn in list(_kernel_entries()):
            self._patch(defn, entry, self._timed(name, entry, fn))
        for name in ("_take", "_as_column"):
            self._patch(sweep, name,
                        self._counted(name, getattr(sweep, name)))
        self._patch(sweep._Sweep, "operand",
                    self._gathered(sweep._Sweep.operand))

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _timed(self, op_type, entry, fn):
        key = f"{op_type}.{entry}"

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.kernel_s[key] += time.perf_counter() - t0
                self.kernel_calls[key] += 1
        return timed

    def _counted(self, name, fn):
        def counted(*args):
            out = fn(*args)
            view = getattr(out, "base", None) is not None
            tally = self.copies[name + (" (view)" if view else "")]
            tally[0] += 1
            tally[1] += (_values_bytes(out) if isinstance(out, list)
                         else getattr(out, "nbytes", 0))
            return out
        return counted

    def _gathered(self, fn):
        def gathered(state, spec):
            kind = _wiring(spec, state.cols)
            t0 = time.perf_counter()
            try:
                return fn(state, spec)
            finally:
                tally = self.gather[kind]
                tally[0] += 1
                tally[1] += time.perf_counter() - t0
        return gathered

    def reset(self) -> None:
        self.kernel_s.clear()
        self.kernel_calls.clear()
        self.copies.clear()
        self.gather.clear()

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)


def _floor(bench, config, repeats: int = 30) -> tuple:
    """(warm step, bare-kernel replay) in seconds, min of ``repeats``:
    the replay calls every kernel entry of one warm step again with the
    very operands the sweep prepared for it."""
    calls, undo = [], list(_kernel_entries())
    for _, defn, entry, fn in undo:
        def recorded(*args, _fn=fn):
            calls.append((_fn, args))
            return _fn(*args)
        setattr(defn, entry, recorded)
    try:
        _step(bench, config)
    finally:
        for _, defn, entry, fn in undo:
            setattr(defn, entry, fn)
    warm = min(_step(bench, config) for _ in range(repeats))
    replays = []
    for _ in range(repeats):
        # stateful kernels: restored variables and zeroed sums, so every
        # replay accumulates what one real step does
        bench.prepare(config, 0)
        bench.program.runtime.accumulators.zero()
        with confined(config):
            t0 = time.perf_counter()
            for fn, args in calls:
                fn(*args)
            replays.append(time.perf_counter() - t0)
    return warm, min(replays), len(calls)


WIRINGS = ("alias", "slice", "take", "one", "slab", "row slab")


def _wiring(spec, cols=None, wired=None) -> str:
    """How one import of an instantiated block reaches its operand —
    given a sweep's ``cols``, by the path it takes there (a slab turned
    into a list of rows reads row by row); given the template's
    ``wired`` kind, a one-producer import (its producer block found by
    rank, read by a ``take``) is "one"."""
    if len(spec) == 2:
        return ("row slab" if cols is not None
                and cols[spec[0]].__class__ is list else "slab")
    if wired is not None and wired[0] == block._ONE:
        return "one"
    rows = spec[2]
    return ("alias" if rows is None
            else "slice" if isinstance(rows, slice) else "take")


def _mirrors_post_call(cls, refs) -> bool:
    """A gradient import that leads with a forward post-call value."""
    ref = refs[0]
    return (ref[0] == block._M and ref[1][0] == block._S
            and cls.mirror.ops[ref[1][1]].seg == 1)


def _print_wiring(graph, cache) -> None:
    """The import wiring of the most recently used instantiation."""
    plans = graph._level_plans.get("instances")
    if not plans:
        return
    lp = list(plans.values())[-1]
    table = defaultdict(lambda: dict.fromkeys(WIRINGS, 0))
    for blk in (blk for level in lp.program for blk in level):
        cls, prog = blk.prog.cls, blk.prog
        if cls is None:
            continue
        for (refs, _, _), spec, wired in zip(prog.imports, blk.imports,
                                             prog.wiring):
            kind = _wiring(spec, wired=wired)
            table[cls.family, prog.seg][kind] += 1
            if (cls.family, prog.seg) == ("grad", 0) \
                    and _mirrors_post_call(cls, refs):
                table["grad", "0 <- fwd 1"][kind] += 1
    print(f"import wiring of the warm plan ({lp.n_blocks} blocks):")
    print(f"  {'family seg':<18}" + "".join(f"{w:>11}" for w in WIRINGS))
    total = dict.fromkeys(WIRINGS, 0)
    for (family, seg), row in sorted(table.items(), key=str):
        print(f"  {family + ' ' + str(seg):<18}"
              + "".join(f"{row[w]:>11}" for w in WIRINGS))
        if isinstance(seg, int):
            for w in WIRINGS:
                total[w] += row[w]
    print(f"  {'all':<18}" + "".join(f"{total[w]:>11}" for w in WIRINGS))
    pending = cache._pending
    print(f"value cache after the sweep: {len(pending)} pending blocks "
          f"({sum(len(b[0]) for b in pending)} rows), "
          f"{sum(len(s.table) for s in cache._shards)} table entries\n")


class _TrainSplit:
    """Wall time of a training step's gradient run and apply run, the
    apply's op count, and the accumulator reads inside the apply by
    variable, summed over the steps run while installed; ``remove()``
    restores the session and the accumulator."""

    def __init__(self, session, program):
        self.runs = [0.0, 0.0]              # gradient run, apply run
        self.reads = defaultdict(float)
        self.apply_ops = 0
        self._session = session
        self._accs = program.runtime.accumulators
        run, read, apply = session.run, self._accs.read, program.apply_fetches
        in_apply = [False]

        def timed_run(fetches, *args, **kwargs):
            in_apply[0] = fetches is apply
            t0 = time.perf_counter()
            try:
                return run(fetches, *args, **kwargs)
            finally:
                self.runs[in_apply[0]] += time.perf_counter() - t0
                if in_apply[0]:
                    self.apply_ops = session.last_stats.ops_executed
                in_apply[0] = False

        def timed_read(name, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return read(name, *args, **kwargs)
            finally:
                if in_apply[0]:
                    self.reads[name] += time.perf_counter() - t0
        session.run, self._accs.read = timed_run, timed_read

    def remove(self) -> None:
        del self._session.run, self._accs.read


def _print_train_split(bench, config) -> None:
    """The mean split of ``WARM_STEPS`` warm training steps."""
    split = _TrainSplit(bench._sessions[config.name], bench.program)
    try:
        for _ in range(WARM_STEPS):
            _step(bench, config)
    finally:
        split.remove()
    ms = 1e3 / WARM_STEPS
    reads = sum(split.reads.values())
    print(f"training split (ms, mean of {WARM_STEPS} warm steps): gradient "
          f"run {split.runs[0] * ms:.3f}, apply run {split.runs[1] * ms:.3f}"
          f" ({split.apply_ops} ops), of which accumulator reads "
          f"{reads * ms:.3f}:")
    for name, secs in sorted(split.reads.items(), key=lambda kv: -kv[1]):
        print(f"  read {name:<28} {secs * ms:8.3f}")
    print()


def _print_counts(bench, config, top: int) -> int:
    """Python and C calls of one warm step (burst) on the calling
    thread, then the ``top`` C functions by calls."""
    by_function = Counter()
    bench.prepare(config, 0)
    with confined(config):
        py, c = call_counts(lambda: bench.step(config, 0), by_function)
    bench.close(config)
    print(f"one warm step: {py} Python calls, {c} C calls "
          "(calling thread)\nC calls by function:")
    for name, calls in by_function.most_common(top):
        print(f"  {name:<48} {calls:>7}")
    return 0


def _step(bench, config):
    bench.prepare(config, 0)
    with confined(config):
        t0 = time.perf_counter()
        bench.step(config, 0)
        return time.perf_counter() - t0


class _BurstSplit:
    """Wall time of one serving burst's compiled-tier phases, summed over
    the bursts run while installed; ``remove()`` restores the module."""

    PHASES = ("linearise", "instantiate", "  forest arrays", "  rows",
              "  slab offsets", "import gather", "block execute",
              "  of which row loops", "booking")

    def __init__(self):
        self.secs = dict.fromkeys(self.PHASES, 0.0)
        self.loops = [0, 0]                 # looped steps, scalar calls
        self.forests = 0
        self._undo = []
        call = sweep._BlockCall
        # admission resolves ``linearise`` on the package at call time
        self._wrap(level_plan, "linearise", "linearise")
        self._wrap(forest, "instance_for", "instantiate", self._forest)
        self._wrap(forest._Forest, "__init__", "  forest arrays")
        self._wrap(wiring, "wire", "  rows")
        self._wrap(wiring, "_lay_slabs", "  slab offsets")
        self._wrap(sweep, "_book", "booking")
        self._wrap(call, "__init__", "import gather")
        self._wrap(call, "execute", "block execute")
        self._wrap(call, "_loop", "  of which row loops", self._count)

    def _forest(self, *args):
        self.forests += 1

    def _count(self, call, st, operands, inv, ctxs):
        self.loops[0] += 1
        self.loops[1] += len(ctxs) if ctxs else call.blk.m * len(st.ops)

    def _wrap(self, owner, attr, phase, note=None) -> None:
        fn = getattr(owner, attr)
        secs = self.secs

        def timed(*args, **kwargs):
            if note is not None:
                note(*args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[phase] += time.perf_counter() - t0
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, timed)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)


def _profile_bursts(bench, config, top: int, count: bool) -> int:
    """The per-burst split of warm serving bursts, then cProfile (or,
    with ``count``, the calls of one warm burst)."""
    bench.setup(keep=True, cold=config.name)
    bench.open(config)
    for s in range(WARM_STEPS):
        bench.step(config, s % BURSTS)
    if count:
        return _print_counts(bench, config, top)
    split, walls = _BurstSplit(), []
    try:
        with confined(config):
            for s in range(SPLIT_BURSTS):
                t0 = time.perf_counter()
                bench.step(config, s % BURSTS)
                walls.append(time.perf_counter() - t0)
    finally:
        split.remove()
    n, wall = len(walls), sum(walls) / len(walls)
    nodes = sum(bench.nodes) / len(bench.nodes)
    print(f"{bench.name}/{config.name} seed={bench.seed}: "
          f"{nodes:.0f} nodes a burst, warm burst {wall * 1e3:.2f} ms "
          f"({nodes / wall:.0f} inst/s), mean of {n} instrumented bursts\n")
    # the slab offsets are laid out inside the wiring: show them apart
    split.secs["  rows"] -= split.secs["  slab offsets"]
    split.secs["  block assembly"] = split.secs["instantiate"] - sum(
        split.secs[phase] for phase in _BurstSplit.PHASES[2:5])
    print(f"per-burst split (ms, mean; {split.forests / n:.1f} forests "
          "instantiated a burst):")
    for phase in _BurstSplit.PHASES[:5] + ("  block assembly",) \
            + _BurstSplit.PHASES[5:]:
        print(f"  {phase:<22} {split.secs[phase] / n * 1e3:8.2f}")
    top_level = sum(secs for phase, secs in split.secs.items()
                    if not phase.startswith(" "))
    print(f"  {'rest':<22} {(wall - top_level / n) * 1e3:8.2f}"
          "   (submit, admission, fetches)")
    print(f"row loops: {split.loops[0] / n:.1f} looped steps and "
          f"{split.loops[1] / n:.1f} scalar calls a burst; "
          f"level_row_loop_steps "
          f"{bench._servers[config.name].stats.level_row_loop_steps}\n")
    profiler = cProfile.Profile()
    with confined(config):
        profiler.enable()
        bench.step(config, 0)
        profiler.disable()
    bench.close(config)
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="profile_step")
    parser.add_argument("--workload", default="train_b10")
    parser.add_argument("--config", default="lvl")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--floor", action="store_true",
                        help="warm step vs bare-kernel replay, then exit")
    parser.add_argument("--count", action="store_true",
                        help="Python and C calls of one warm step, then exit")
    args = parser.parse_args(argv)

    cls = bench_classes()[args.workload]
    bench = cls(args.seed, Tracer(), Checker())
    config = bench.config(args.config)
    if not issubclass(cls, SweepBench):     # a serving workload
        if args.floor:
            parser.error("--floor needs a Session.run workload")
        return _profile_bursts(bench, config, args.top, args.count)
    bench.setup(keep=True, cold=config.name)
    bench.open(config)
    walls = [_step(bench, config) for _ in range(WARM_STEPS)]
    if args.count:
        return _print_counts(bench, config, args.top)
    nodes = bench.nodes[0]
    print(f"{args.workload}/{config.name} seed={args.seed}: {nodes} nodes, "
          f"warm step {min(walls) * 1e3:.2f} ms "
          f"({nodes / min(walls):.0f} inst/s) unprofiled\n")
    if bench.program.apply_fetches is not None:
        _print_train_split(bench, config)
    if args.floor:
        warm, floor, n = _floor(bench, config)
        bench.close(config)
        print(f"warm step {warm * 1e3:.2f} ms vs bare-kernel replay "
              f"{floor * 1e3:.2f} ms ({n} kernel calls): "
              f"{warm / floor:.2f}x its kernel floor")
        return 0

    probes = _Probes()
    try:
        _step(bench, config)            # the wrappers' own first-call cost
        probes.reset()
        wall = _step(bench, config)
    finally:
        probes.remove()
    total = sum(probes.kernel_s.values())
    print(f"kernel time by op type ({total * 1e3:.2f} ms of a "
          f"{wall * 1e3:.2f} ms instrumented step):")
    for key, secs in sorted(probes.kernel_s.items(),
                            key=lambda kv: -kv[1])[:args.top]:
        print(f"  {key:<34} n={probes.kernel_calls[key]:<6} "
              f"{secs * 1e3:8.3f} ms")
    print("operand marshalling of the compiled sweep (views copy nothing):")
    for name, (calls, nbytes) in sorted(probes.copies.items()):
        print(f"  {name:<18} calls={calls:<6} {nbytes / 2**20:8.2f} MiB")
    if probes.gather:
        print("import gather by wiring (row slab: read row by row):")
        for kind in WIRINGS:
            calls, secs = probes.gather.get(kind, (0, 0.0))
            print(f"  {kind:<18} n={calls:<6} {secs * 1e3:8.3f} ms")
        print(f"  {'all':<18} n={sum(c for c, _ in probes.gather.values()):<6}"
              f" {sum(t for _, t in probes.gather.values()) * 1e3:8.3f} ms")
    print()
    if config.compiled:
        # the sweep alone: a training step's apply run clears the cache
        program, batch = bench.program, bench.batches[0]
        bench.prepare(config, 0)
        program.runtime.accumulators.zero()
        bench._sessions[config.name].run(
            program.fetches, program.built.feed_dict(batch),
            record=program.apply_fetches is not None,
            shape_profile=program.built.shape_profiles(batch))
        _print_wiring(program.built.graph, program.runtime.cache)

    profiler = cProfile.Profile()
    bench.prepare(config, 0)
    with confined(config):
        profiler.enable()
        bench.step(config, 0)
        profiler.disable()
    bench.close(config)
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
