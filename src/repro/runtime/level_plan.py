"""Level-synchronous tree compilation: the compiled fast path.

The dynamic runtime discovers batching at execution time — every tree
node is a frame spawn, and the coalescer finds same-signature work in
the live ready queue.  That flexibility costs a per-node scheduling
floor (frame spawn, signature matching, bucket bookkeeping) that
dominates on small trees.  When the *shape* of a recursive input is
known at admission (the data loader has it — ``TreeBatch.profiles``),
none of that discovery is necessary: the entire frame tree, every
branch decision, and every fusable wavefront can be computed once per
shape and replayed.

This module compiles a per-(root plan, shape profile, record mode)
:class:`LevelPlan`: the recursion is unrolled into a flat node list
(placeholder bindings, kernels, and call-site "finisher" nodes that
replicate the async starters' completion semantics), leveled with a
Kahn pass, pre-bucketed — per level, kernel nodes sharing a batch
signature prefix form one fused dispatch — and lowered to *columns*
(:func:`_wire_columns`): each bucket produces one array per output
with its members on axis 0, and every bucket input is wired at compile
time to the producer column itself (same members, same order), a
precomputed row-index array into it (one ``take``), or an invariant
(``Const`` / ``ReadVariable`` / a feed every member reads whole: one
value, never copied per member).  Executing a LevelPlan is a fixed
sequence of stacked kernel calls over those columns; no frames are
spawned, no signatures matched, no per-member Python runs.  Several
concurrent roots with the *same* profile share one wavefront: every
column extends run-major across runs (cross-request level merging in
serving mode).

Equivalence contract: values and gradients are bit-identical to the
dynamic path.  The compiler replays the exact binding semantics of the
four async starters (Invoke, Cond, InvokeGrad, CondGrad), derives
frame cache keys from the same ``child_key`` suffix scheme (so
selective-cache stores write the same entries; a compiled
``CacheLookup`` reads its frame's stored column directly), and
executes stateful kernels (``AccumGrad``) with the same frame keys
— the canonical-order :class:`GradientAccumulator` then makes the
replayed backward schedule sum gradients in the dynamic order.

Eligibility (anything else raises an internal marker and the root
falls back to the dynamic coalescer, counted in
``RunStats.level_plan_fallbacks``):

* every root ``Invoke`` targets one shared recursive SubGraph, one
  profile per call site;
* structure is profile-determined: a profiled body either contains
  exactly as many recursive call sites as the profile has children, or
  exactly one ``Cond`` whose branches differ in recursive-call count
  (the profile selects the branch — the sweep *verifies* each level's
  predicates at run time, one vector compare, and raises on mismatch);
* no ``Loop``/``LoopGrad``, no async op behind a control dependency,
  no unbound placeholders.

Plans are memoized on ``graph._level_plans`` keyed by the root
FramePlan object, invalidated by graph mutation and by the op-registry
version stamp (via :func:`plan_for` — a LevelPlan additionally records
the body FramePlans it baked in and revalidates their identity on
every cache hit, so ``set_cache_filter`` on a body graph recompiles).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque, namedtuple
from typing import Optional

import numpy as np

from repro.core.autodiff import cond_grad_slot_tensors
from repro.graph.registry import ExecContext, OpDef
from repro.ops import tensor_array
from repro.ops.common import role_captures

from .plan import plan_for
from .plan import _PERSISTENT_ALIAS_OPS
from .scheduler import EngineError, SchedulerCore, _values_bytes, densify
from .stats import RunStats

__all__ = ["LevelPlan", "level_plan_for", "execute_level_plan",
           "execute_level_call", "complete_level_call"]

#: LRU caps for the per-graph plan memo — compiled plans are a few KB
#: each, the ineligible sentinel is one dict row; both grow without
#: bound on adversarial long-tail shape streams unless capped
LEVEL_PLAN_CAP = int(os.environ.get("REPRO_LEVEL_PLAN_CAP", "256"))
LEVEL_PLAN_INELIGIBLE_CAP = int(
    os.environ.get("REPRO_LEVEL_PLAN_INELIGIBLE_CAP", "512"))

# node kinds
_KERNEL = 0        # synchronous op: run its kernel
_BIND_FEED = 1     # root placeholder: read the run's feed map
_BIND_ALIAS = 2    # bound op in a child frame: alias the wired value
_FIN_PASS = 3      # Invoke finisher: forward the child frame's outputs
_FIN_COND = 4      # Cond finisher: verify predicate, forward branch outputs
_FIN_IGRAD = 5     # InvokeGrad finisher: forward outputs + done flag
_FIN_CGRAD = 6     # CondGrad finisher: scatter grads / zeros + done flag



def _profile_depth(profile) -> int:
    """Node depth of a shape profile: a leaf ``()`` is depth 1."""
    if not profile:
        return 1
    return 1 + max(_profile_depth(child) for child in profile)


def _profile_has_holes(profile) -> bool:
    """True when any subtree of the profile is undetermined (``None``)."""
    if profile is None:
        return True
    return any(_profile_has_holes(child) for child in profile)


class _Ineligible(Exception):
    """Internal: this root cannot be level-compiled; use the dynamic path."""


class _CNode:
    """One compiled node: a value producer in the flattened frame tree."""

    __slots__ = ("kind", "frame_idx", "op", "defn", "inputs", "extra_deps",
                 "store_mask", "graph_id", "sig_prefix", "expected",
                 "recipe")

    def __init__(self, kind, frame_idx, op, defn):
        self.kind = kind
        self.frame_idx = frame_idx
        self.op = op
        self.defn = defn
        #: value inputs: tuple of (producer node id, output index)
        self.inputs = ()
        #: ordering-only dependencies (node ids) for the level assignment
        self.extra_deps = ()
        #: per-output store booleans (None when this node records nothing)
        self.store_mask = None
        self.graph_id = -1
        #: interned batch-signature prefix (kernel nodes only)
        self.sig_prefix = None
        #: expected predicate value (Cond/CondGrad finishers)
        self.expected = False
        #: per-output take-grad/zero booleans (CondGrad finisher)
        self.recipe = ()


class _CFrame:
    """Stand-in for :class:`Frame` inside compiled ExecContexts.

    Kernels only touch ``ctx.frame.key`` (cache keys, accumulator order
    keys) and ``ctx.frame.record``; compiled execution never needs the
    rest of the frame machinery.
    """

    __slots__ = ("key", "record")

    def __init__(self, key, record):
        self.key = key
        self.record = record


#: One frame context queued for expansion (BFS over the frame tree).
#: ``mode``: "root" | "subroot" | "node" | "branch" | "helper" | "grad";
#: ``profile``: children profiles (profiled frames) or None; ``bindings``:
#: op id -> (node id, out idx) in child frames; ``fill``: finisher wiring
#: callback, run after the scan.
_FrameJob = namedtuple("_FrameJob", "plan suffix depth mode profile "
                       "bindings frame_idx fill")


class LevelPlan:
    """A compiled level-synchronous schedule for one (root plan, profile).

    ``levels`` is the wavefront schedule — per level, a tuple of scalar
    node ids (binds, finishers, unfusable kernels) and a tuple of fused
    buckets (node-id tuples sharing a batch-signature prefix) — kept for
    the cost model; ``program`` is its executable columnar form (see
    :func:`_wire_columns`).  ``suffixes`` / ``records`` hold each
    compiled frame's key suffix and record flag; a run's frame key is
    its root key plus the suffix, which is exactly the dynamic
    ``child_key`` chain.
    """

    __slots__ = ("levels", "suffixes", "records", "root_node_of",
                 "body_deps", "max_depth", "num_nodes", "scalar_counts",
                 "program", "step_m", "root_refs", "booked")

    def __init__(self, nodes, levels, frames, root_node_of, body_deps,
                 max_depth, scalar_counts):
        self.levels = levels
        self.suffixes = tuple(suffix for suffix, _ in frames)
        self.records = tuple(record for _, record in frames)
        self.root_node_of = root_node_of
        self.body_deps = body_deps
        self.max_depth = max_depth
        self.num_nodes = len(nodes)
        #: per-plan op counts for the scalar schedule (op type -> count):
        #: the fixed schedule makes scalar accounting static
        self.scalar_counts = scalar_counts
        #: per level: predicate check, master-side steps, bucket steps,
        #: bucket accounting, cache stores, and the column groups whose
        #: last reader sits in that level (dropped right after it)
        self.program, self.step_m, self.root_refs = _wire_columns(
            nodes, levels, any(self.records))
        #: memoised accounting of one sweep: ``(key, RunStats delta)``
        self.booked = None

    def __repr__(self):
        return (f"<LevelPlan nodes={self.num_nodes} levels={len(self.levels)} "
                f"frames={len(self.suffixes)} depth={self.max_depth}>")


def level_plan_for(graph, root_plan, shape_profile, record: bool,
                   stats=None, subtree=None) -> Optional["LevelPlan"]:
    """Compile (or fetch the memoized) LevelPlan for one root shape.

    ``shape_profile`` is a sequence of per-root-call-site shape profiles
    in op-id order — ``TreeBatch.profiles`` for the tree models.
    Returns ``None`` when the root is not eligible (the caller falls
    back to the dynamic path).  Memoized on ``graph._level_plans``;
    ineligible shapes are memoized too, so repeated fallbacks are one
    dict probe.  The memo is LRU-bounded (``REPRO_LEVEL_PLAN_CAP`` /
    ``REPRO_LEVEL_PLAN_INELIGIBLE_CAP``) so adversarial long-tail shape
    streams cannot grow it without bound.

    When ``subtree`` is a recursive SubGraph, the compiled plan covers
    one *subtree* of the recursion (``shape_profile`` is that node's
    children tuple) — the partial-compilation path launched from a
    dynamic spine frame.  When ``stats`` (a RunStats) is given, cache
    probes book ``level_plan_cache_hits``/``_misses`` and compile time
    accrues into ``level_plan_compile_ms``.
    """
    try:
        profiles = tuple(shape_profile)
    except TypeError:
        return None
    if subtree is None:
        key = (root_plan, profiles, bool(record))
    else:
        key = (root_plan, profiles, bool(record), "sub")
    # two insertion-ordered maps, one per verdict, so a miss evicts in
    # O(1) instead of scanning the whole memo for entries of its kind
    cache = graph._level_plans
    compiled = cache.setdefault("compiled", {})
    ineligible = cache.setdefault("ineligible", {})
    if key in ineligible:
        if stats is not None:
            stats.level_plan_cache_hits += 1
        return None
    entry = compiled.get(key)
    if entry is not None:
        # revalidate baked-in body plans: set_cache_filter (installed by
        # differentiate_subgraph) invalidates a *body* graph's frame
        # plans without touching this root graph's caches
        if all(plan_for(g) is p for g, p in entry.body_deps):
            if stats is not None:
                stats.level_plan_cache_hits += 1
            with graph._lock:
                if compiled.get(key) is entry:  # LRU touch: move to end
                    del compiled[key]
                    compiled[key] = entry
            return entry
    if stats is not None:
        stats.level_plan_cache_misses += 1
    t0 = time.perf_counter()
    try:
        lp = _compile(root_plan, profiles, record, subtree)
    except _Ineligible:
        lp = None
    if stats is not None:
        stats.level_plan_compile_ms += (time.perf_counter() - t0) * 1e3
    with graph._lock:
        if lp is None:
            compiled.pop(key, None)  # a stale plan that no longer compiles
            memo, cap = ineligible, LEVEL_PLAN_INELIGIBLE_CAP
        else:
            memo, cap = compiled, LEVEL_PLAN_CAP
        memo[key] = lp
        while cap > 0 and len(memo) > cap:
            del memo[next(iter(memo))]
            if stats is not None:
                stats.level_plan_evictions += 1
    return lp


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _compile(root_plan, profiles, session_record, subtree=None) -> "LevelPlan":
    # -- pre-pass: identify the recursive SubGraph at the root ------------
    if subtree is not None:
        # partial compilation: the "root" of this plan is one recursive
        # subtree body, launched from a dynamic spine frame; its feed is
        # the runtime binding dict the starter would have passed to
        # spawn_frame, and ``profiles`` is the subtree node's children
        s_rec = subtree
        if not s_rec.finalized:
            raise _Ineligible("recursive SubGraph is not finalized")
    else:
        root_invokes = [op for op in root_plan.ops if op.op_type == "Invoke"]
        if not root_invokes:
            raise _Ineligible("no recursive call sites in the root plan")
        s_rec = root_invokes[0].attrs["subgraph"]
        for op in root_invokes[1:]:
            if op.attrs["subgraph"] is not s_rec:
                raise _Ineligible(
                    "root call sites target multiple SubGraphs")
        if len(root_invokes) != len(profiles):
            raise _Ineligible("profile count does not match root call sites")
        if not s_rec.finalized:
            raise _Ineligible("recursive SubGraph is not finalized")

    nodes: list[_CNode] = []
    frames: list[tuple] = []
    body_deps: dict = {}          # body graph -> FramePlan baked in
    cond_roles: dict = {}         # (frame suffix, cond op id) -> "true"/"false"
    store_index: dict = {}        # (suffix, graph_id, op_id, out_idx) -> node
    root_node_of: dict = {}       # root op id -> node id
    jobs: deque = deque()
    max_depth = [0]

    def body_plan(g):
        p = body_deps.get(g)
        if p is None:
            p = body_deps[g] = plan_for(g)
        return p

    def struct_count_of(sg):
        """Recursive call sites (Invokes of s_rec) in a SubGraph body."""
        return sum(1 for o in body_plan(sg.graph).ops
                   if o.op_type == "Invoke"
                   and o.attrs.get("subgraph") is s_rec)

    def add_job(plan, suffix, depth, mode, profile, bindings, fill):
        if mode == "root":
            record = False
        else:
            record = (session_record
                      and not getattr(plan.graph, "is_backward_body", False))
        frame_idx = len(frames)
        frames.append((suffix, record))
        if depth > max_depth[0]:
            max_depth[0] = depth
        jobs.append(_FrameJob(plan, suffix, depth, mode, profile, bindings,
                              frame_idx, fill))

    def forward_outputs(node, child_plan, out_locs, head, base_extra):
        """Finisher wiring: ``head`` + the child frame's output values,
        ordered after every node of the child frame."""
        def fill(child_nos, own):
            node.inputs = head + tuple(
                (child_nos[child_plan.index_of[oid]], i)
                for oid, i in out_locs)
            node.extra_deps = base_extra + own
        return fill

    def _scan(job):
        plan = job.plan
        suffix = job.suffix
        frame_idx = job.frame_idx
        record = frames[frame_idx][1]
        index_of = plan.index_of
        node_of_slot: list = [None] * plan.num_slots
        first_node = len(nodes)
        children = job.profile
        cursor = 0
        cond_seen = False

        def emit(kind, op, defn, slot):
            nid = len(nodes)
            node = _CNode(kind, frame_idx, op, defn)
            if record:
                mask = plan.store_masks[slot]
                if any(mask):
                    node.store_mask = mask
                    node.graph_id = plan.graph_id
                    for i, m in enumerate(mask):
                        if m:
                            store_index[(suffix, plan.graph_id, op.id, i)] = nid
            nodes.append(node)
            node_of_slot[slot] = nid
            return nid, node

        # -- pass 1: bound / fed slots (bypass deps, like seed_frame) ------
        # Capture placeholders can sit at *later* plan slots than their
        # in-frame consumers (they are created lazily at capture time), so
        # every binding node must exist before the wiring pass reads it.
        fed, bindings = job.mode in ("root", "subroot"), job.bindings
        for slot, op in enumerate(plan.ops):
            if fed:
                if op.op_type == "Placeholder":
                    emit(_BIND_FEED, op, plan.defs[slot], slot)
            else:
                bound = bindings.get(op.id)
                if bound is not None:
                    _, node = emit(_BIND_ALIAS, op, plan.defs[slot], slot)
                    node.inputs = (bound,)
                elif op.op_type == "Placeholder":
                    raise _Ineligible(f"unbound placeholder {op.name}")

        # -- pass 2: kernels and call sites in slot order ------------------
        for slot, op in enumerate(plan.ops):
            if node_of_slot[slot] is not None:
                continue
            defn = plan.defs[slot]
            op_type = op.op_type

            # -- value wiring + control dependencies ----------------------
            in_refs = []
            for s, i in plan.input_locs[slot]:
                src = node_of_slot[s]
                if src is None:
                    raise _Ineligible(f"unwired input of {op.name}")
                in_refs.append((src, i))
            extra = ()
            if op.control_inputs:
                if defn.is_async:
                    # the dynamic path gates the *spawn* on control deps;
                    # a compiled child would not wait — bail out
                    raise _Ineligible("control dependency on a call site")
                ex = []
                for c in op.control_inputs:
                    s2 = index_of.get(c.id)
                    if s2 is None or node_of_slot[s2] is None:
                        raise _Ineligible("control producer outside the plan")
                    ex.append(node_of_slot[s2])
                extra = tuple(ex)

            if not defn.is_async:
                if op_type == "CacheLookup":
                    skey = (suffix, op.attrs["target_graph_id"],
                            op.attrs["target_op_id"],
                            op.attrs["target_out_idx"])
                    storer = store_index.get(skey)
                    if storer is None:
                        raise _Ineligible(
                            "cache lookup without a compiled producer")
                    # the producer is compiled in: the lookup reads its
                    # column (ordered after it) instead of the cache
                    in_refs = [(storer, skey[3])]
                nid, node = emit(_KERNEL, op, defn, slot)
                node.inputs = tuple(in_refs)
                node.extra_deps = extra
                node.sig_prefix = plan.sig_prefixes[slot]
                continue

            # -- async call sites: finisher node + child frame job ---------
            if op_type == "Invoke":
                sg = op.attrs["subgraph"]
                if not sg.finalized:
                    raise _Ineligible("call target is not finalized")
                if sg is s_rec:
                    if job.mode in ("helper", "grad"):
                        raise _Ineligible(
                            "recursive call outside the profiled structure")
                    if children is None or cursor >= len(children):
                        raise _Ineligible("more call sites than the profile")
                    child_profile = children[cursor]
                    cursor += 1
                    child_mode = "node"
                else:
                    child_profile = None
                    child_mode = "helper"
                input_ids = sg.input_op_ids[:op.attrs["n_args"]]
                if len(in_refs) < len(input_ids):
                    raise _Ineligible("call site is missing arguments")
                bindings = dict(zip(input_ids, in_refs))
                for ph_id, pos in role_captures(op, "main"):
                    if pos >= len(in_refs):
                        raise _Ineligible("capture position out of range")
                    bindings[ph_id] = in_refs[pos]
                child_plan = body_plan(sg.graph)
                nid, node = emit(_FIN_PASS, op, defn, slot)
                add_job(child_plan, suffix + (op.id,), job.depth + 1,
                        child_mode, child_profile, bindings,
                        forward_outputs(node, child_plan, sg.output_locs,
                                        (), extra))

            elif op_type == "Cond":
                if job.mode not in ("node", "subroot") or cond_seen:
                    raise _Ineligible("data-dependent control flow here")
                cond_seen = True
                c = len(children)
                t_sg = op.attrs["true_subgraph"]
                f_sg = op.attrs["false_subgraph"]
                if not (t_sg.finalized and f_sg.finalized):
                    raise _Ineligible("branch body is not finalized")
                tc, fc = struct_count_of(t_sg), struct_count_of(f_sg)
                if tc == c and fc != c:
                    role = "true"
                elif fc == c and tc != c:
                    role = "false"
                else:
                    raise _Ineligible(
                        "branch is not determined by the shape profile")
                cond_roles[(suffix, op.id)] = role
                chosen = t_sg if role == "true" else f_sg
                bindings = {}
                for ph_id, pos in role_captures(op, role):
                    if pos >= len(in_refs):
                        raise _Ineligible("capture position out of range")
                    bindings[ph_id] = in_refs[pos]
                pred = in_refs[0]
                child_plan = body_plan(chosen.graph)
                nid, node = emit(_FIN_COND, op, defn, slot)
                node.expected = (role == "true")
                add_job(child_plan, suffix + (op.id,), job.depth + 1,
                        "branch", children, bindings,
                        forward_outputs(node, child_plan, chosen.output_locs,
                                        (pred,), extra))

            elif op_type == "InvokeGrad":
                if job.mode not in ("root", "grad"):
                    raise _Ineligible("backward call in a forward body")
                fwd = op.attrs["fwd_subgraph"]
                if fwd._grad_subgraph is None:
                    raise _Ineligible("gradient body not built yet")
                gsg = fwd.grad_subgraph
                if not gsg.finalized:
                    raise _Ineligible("gradient body is not finalized")
                if len(in_refs) < len(gsg.input_op_ids):
                    raise _Ineligible("backward call is missing seeds")
                bindings = dict(zip(gsg.input_op_ids, in_refs))
                site_id = op.attrs["site_id"]
                child_plan = body_plan(gsg.graph)
                nid, node = emit(_FIN_IGRAD, op, defn, slot)
                add_job(child_plan, suffix + (site_id,), job.depth + 1,
                        "grad", None, bindings,
                        forward_outputs(node, child_plan, gsg.output_locs,
                                        (), extra))

            elif op_type == "CondGrad":
                if job.mode not in ("root", "grad"):
                    raise _Ineligible("backward branch in a forward body")
                site_id = op.attrs["site_id"]
                role = cond_roles.get((suffix, site_id))
                if role is None:
                    raise _Ineligible("no compiled branch decision to mirror")
                sg = op.attrs[f"{role}_subgraph"]
                if sg._grad_subgraph is None:
                    raise _Ineligible("gradient body not built yet")
                backward = sg.grad_subgraph
                if not backward.finalized:
                    raise _Ineligible("gradient body is not finalized")
                n_seeds = op.attrs["n_seeds"]
                entries = op.attrs["cap_entries"]
                if len(in_refs) < 1 + n_seeds:
                    raise _Ineligible("backward branch is missing seeds")
                pred = in_refs[0]
                seeds = in_refs[1:1 + n_seeds]
                refs = in_refs[1 + n_seeds:]
                if len(refs) != len(entries):
                    raise _Ineligible("capture entries out of sync")
                if len(seeds) < len(backward.input_op_ids):
                    raise _Ineligible("backward branch is missing seeds")
                bindings = dict(zip(backward.input_op_ids, seeds))
                slot_tensors = cond_grad_slot_tensors(sg)
                child_plan = body_plan(backward.graph)
                nid, node = emit(_FIN_CGRAD, op, defn, slot)
                node.expected = (role == "true")

                def fill(child_nos, own, node=node, child_plan=child_plan,
                         pred=pred, refs=tuple(refs), entries=entries,
                         role=role, slot_tensors=slot_tensors,
                         base_extra=extra):
                    srcs = []
                    takes = []
                    for (entry_role, ph_id), ref in zip(entries, refs):
                        t = (slot_tensors.get(ph_id)
                             if entry_role == role else None)
                        if t is not None:
                            srcs.append(
                                (child_nos[child_plan.index_of[t.op.id]],
                                 t.index))
                            takes.append(True)
                        else:
                            srcs.append(ref)
                            takes.append(False)
                    node.inputs = (pred,) + tuple(srcs)
                    node.recipe = tuple(takes)
                    node.extra_deps = base_extra + own

                add_job(child_plan, suffix + (site_id,), job.depth + 1,
                        "grad", None, bindings, fill)

            else:
                raise _Ineligible(f"async op {op_type} is not compilable")

        # -- structural accounting ----------------------------------------
        if children is not None:
            if cond_seen:
                if cursor != 0:
                    raise _Ineligible(
                        "mixed direct recursion and branch recursion")
            elif cursor != len(children):
                raise _Ineligible("fewer call sites than the profile")
        if job.mode in ("root", "subroot"):
            for slot, op in enumerate(plan.ops):
                root_node_of[op.id] = node_of_slot[slot]
        if job.fill is not None:
            job.fill(node_of_slot, tuple(range(first_node, len(nodes))))

    if subtree is not None:
        add_job(body_plan(s_rec.graph), (), 0, "subroot", profiles,
                None, None)
    else:
        add_job(root_plan, (), 0, "root", profiles, None, None)
    while jobs:
        _scan(jobs.popleft())

    _collapse_aliases(nodes)
    levels, scalar_counts = _level_schedule(nodes)
    return LevelPlan(nodes, levels, frames, root_node_of,
                     tuple(body_deps.items()), max_depth[0], scalar_counts)


def _collapse_aliases(nodes) -> None:
    """Forward consumers of pure ``_BIND_ALIAS`` nodes to their source.

    A binding alias is pure data movement (a child placeholder reading
    the parent's wired value) — one scheduled node per binding per frame,
    a large fraction of the scalar sweep on deep trees.  Rewriting every
    value input and ordering dep through store-less aliases leaves them
    unreferenced; ``_level_schedule`` then drops them from the schedule.
    Aliases that record to the value cache keep their node (the store is
    a side effect the schedule must retain), so chains stop there: a dep
    pointing at a recording alias still orders after its store.
    """
    pure = [node.kind == _BIND_ALIAS and node.store_mask is None
            for node in nodes]

    def resolve(nid, idx):
        while pure[nid]:
            nid, idx = nodes[nid].inputs[0]
        return nid, idx

    for node in nodes:
        if node.inputs:
            node.inputs = tuple([resolve(s, i) if pure[s] else (s, i)
                                 for s, i in node.inputs])
        if node.extra_deps:
            node.extra_deps = tuple([resolve(d, 0)[0] if pure[d] else d
                                     for d in node.extra_deps])


def _level_schedule(nodes) -> tuple:
    """Kahn-level the node DAG and pre-bucket each level.

    Level of a node = longest dependency chain below it; per level,
    kernel nodes with the same batch-signature prefix form one fused
    bucket and everything else (bindings, finishers, unfusable or
    stateful kernels) runs scalar in node-id order.  Collapsed aliases
    (store-less ``_BIND_ALIAS`` nodes left unreferenced by
    :func:`_collapse_aliases`) are dropped from the schedule entirely.
    Returns ``(levels, scalar_counts)``: the wavefront schedule and the
    static per-op-type counts of scheduled scalar nodes that the dynamic
    path would have booked through ``note_op``.
    """
    n = len(nodes)
    indeg = [0] * n
    out: list = [[] for _ in range(n)]  # dependants; empty: unreferenced
    level = [0] * n
    for nid, node in enumerate(nodes):
        deps = set(node.extra_deps)
        for s, _ in node.inputs:
            deps.add(s)
        indeg[nid] = len(deps)
        for d in deps:
            out[d].append(nid)
    queue = deque(nid for nid in range(n) if indeg[nid] == 0)
    seen = 0
    while queue:
        nid = queue.popleft()
        seen += 1
        base = level[nid] + 1
        for c in out[nid]:
            if base > level[c]:
                level[c] = base
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if seen != n:
        raise _Ineligible("compiled schedule has a cycle")

    by_level: dict = {}
    for nid in range(n):
        by_level.setdefault(level[nid], []).append(nid)
    levels = []
    scalar_counts: dict = {}
    for li in sorted(by_level):
        scalars = []
        buckets: dict = {}
        for nid in by_level[li]:
            node = nodes[nid]
            kind = node.kind
            if kind == _KERNEL and node.sig_prefix is not None:
                buckets.setdefault(node.sig_prefix, []).append(nid)
                continue
            if kind == _BIND_ALIAS and node.store_mask is None \
                    and not out[nid]:
                continue  # collapsed: every consumer reads the source
            scalars.append(nid)
            if kind != _BIND_FEED and kind != _BIND_ALIAS:
                op_type = node.op.op_type
                scalar_counts[op_type] = scalar_counts.get(op_type, 0) + 1
        if scalars or buckets:
            levels.append((tuple(scalars),
                           tuple(tuple(b) for b in buckets.values())))
    return tuple(levels), tuple(scalar_counts.items())


# ---------------------------------------------------------------------------
# column wiring
# ---------------------------------------------------------------------------

class _Step:
    """Members of one level that execute as one columnar call.

    A step owns column group ``cid``: one column per output, member
    ``j`` of run ``r`` on row ``r * m + j``.  ``inputs[p]`` wires input
    ``p`` (see :func:`_input_spec`).  ``once`` steps are invariants
    (``Const``, ``ReadVariable`` and pure ops over them, canonicalised
    to one step per op): their kernel runs once per sweep.  ``frames``
    (stateful kernels only) is each member's compiled frame, for its
    cache / accumulator key.
    """

    __slots__ = ("cid", "defn", "op", "m", "frames", "inputs", "n_out",
                 "once", "scratch")

    def __init__(self, cid, defn, op, m, frames, inputs, once=False):
        self.cid = cid
        self.defn = defn
        self.op = op
        self.m = m
        self.frames = frames
        self.inputs = inputs
        self.n_out = 1 if defn is _ZEROS else len(op.outputs)
        self.once = once
        self.scratch = op.op_type not in _PERSISTENT_ALIAS_OPS


def _zeros_stacked(op, cols, inv, ctx):
    return [np.zeros_like(cols[0])]


#: pseudo-op behind a CondGrad finisher's untaken outputs: a zero
#: gradient shaped like the forward value
_ZEROS = OpDef(
    name="CondGradZeros", infer=None, stacked_kernel=_zeros_stacked,
    kernel=lambda op, ins, ctx: [tensor_array.zero_value_like(ins[0])])


def _statically_big(op) -> bool:
    """True unless every output is statically known to be tiny: a tiny
    invariant is cheaper to materialise per member than to split a
    bucket on (the per-tree ``Const`` batch index, a gather position)."""
    for t in op.outputs:
        if t.shape is None or None in t.shape or math.prod(t.shape) > 64:
            return True
    return False


def _input_spec(refs, step_m) -> tuple:
    """Wire one input from its per-member ``(cid, out, row)`` addresses.

    ``(cid, out, rows)`` when one producer feeds every member (``rows is
    None``: the column itself — same members, same order; else an
    ``intp`` row index for one ``take``), otherwise ``(parts, perm)``:
    one such triple per producer, and the permutation that puts their
    concatenation into member order (``None`` when it already is).
    """
    by_src: dict = {}
    for pos, (cid, out, row) in enumerate(refs):
        src = by_src.get((cid, out))
        if src is None:
            src = by_src[(cid, out)] = ([], [])
        src[0].append(row)
        src[1].append(pos)
    if len(by_src) == 1:
        cid, out, _ = refs[0]
        rows = src[0]
        if len(rows) == step_m[cid] and rows == list(range(len(rows))):
            return cid, out, None
        return cid, out, np.array(rows, dtype=np.intp)
    parts = tuple((cid, out, np.array(rows, dtype=np.intp))
                  for (cid, out), (rows, _) in by_src.items())
    order = [pos for _, positions in by_src.values() for pos in positions]
    perm = (None if order == sorted(order)
            else np.argsort(order).astype(np.intp))
    return parts, perm


def _producers(spec):
    """The column groups a wired input reads."""
    return (spec[0],) if len(spec) == 3 else (p[0] for p in spec[0])


def _wire_columns(nodes, levels, recording: bool) -> tuple:
    """Lower the level schedule to columnar steps with index wiring.

    Every scheduled value gets a static address ``(cid, out, row)``.
    Kernel nodes are grouped into :class:`_Step` s — scalar kernels per
    op, bucket members per (static input specs, big-invariant sources),
    so one step's members agree on shapes and share their loop-invariant
    operands — and bindings / finishers dissolve into their sources'
    addresses, leaving behind only what they *do*: predicate checks,
    cache stores, zero gradients.  Returns ``(program, step_m,
    root_refs)``: per level ``(checks, steps, bucket_steps, books,
    stores, release)``, the member count per column group, and the
    addresses of every root-frame value (fetch candidates, pinned).
    """
    n = len(nodes)
    made = [None] * n     # kernel / feed node -> (cid, row)
    fwd = [None] * n      # binding / finisher node -> per-output addresses
    step_m = [1]          # cid 0: the shared ``True`` done flag
    static_inv = [True]
    big = [False]         # split buckets on this source (feeds, weights)
    once_of: dict = {}    # invariant key -> cid
    spec_ids: dict = {}
    last_use: dict = {}
    born = []             # (cid, level) of every releasable column group
    program = []

    def address(s, i):
        f = fwd[s]
        if f is not None:
            return f[i]
        cid, row = made[s]
        return (cid, i, row)

    def new_cid(m, inv=False, is_big=False):
        step_m.append(m)
        static_inv.append(inv)
        big.append(is_big)
        return len(step_m) - 1

    def static_spec(op):
        sid = spec_ids.get(op)
        if sid is None:
            spec = tuple((t.dtype, t.shape) for t in op.inputs)
            sid = spec_ids[op] = spec_ids.setdefault(spec, len(spec_ids))
        return sid

    for li, (scalars, buckets) in enumerate(levels):
        groups: dict = {}   # key -> (defn, booked, [(target, refs, frame)])
        steps, bucket_steps, books, stores = [], [], [], []
        preds, expected, names = [], [], []

        def enlist(key, defn, booked, member):
            group = groups.get(key)
            if group is None:
                groups[key] = (defn, booked, [member])
            else:
                group[2].append(member)

        def kernel_member(nid, node, bucket):
            """Route one kernel node: invariant, or member of a step."""
            defn, op = node.defn, node.op
            refs, split = [], []
            invariant = not node.extra_deps
            for s, i in node.inputs:
                f = fwd[s]
                ref = f[i] if f is not None else (made[s][0], i, made[s][1])
                refs.append(ref)
                cid = ref[0]
                if not static_inv[cid]:
                    invariant = False
                split.append(cid if big[cid] else -1)
            if op.op_type == "CacheLookup":
                fwd[nid] = refs  # an alias of the value its frame stored
                return 0
            if invariant and (not defn.stateful if refs else
                              op.op_type in _PERSISTENT_ALIAS_OPS):
                key = (op if bucket < 0 else node.sig_prefix, tuple(refs))
                cid = once_of.get(key)
                if cid is None:
                    cid = once_of[key] = new_cid(1, True, _statically_big(op))
                    steps.append(_Step(
                        cid, defn, op, 1, (),
                        tuple(_input_spec([r], step_m) for r in refs),
                        once=True))
                made[nid] = (cid, 0)
                return cid
            if bucket < 0:
                key = (-1, op)
            else:
                # ops sharing a stacked kernel differ only in attrs it
                # never reads (``batch_attrs`` are in the bucket key);
                # a row loop runs each op's own scalar kernel
                key = (bucket,
                       op if defn.stacked_kernel is None else static_spec(op),
                       tuple(split))
            enlist(key, defn, bucket >= 0, (nid, refs, node.frame_idx))
            return None

        for nid in scalars:
            node = nodes[nid]
            kind = node.kind
            if kind == _KERNEL:
                kernel_member(nid, node, -1)
            elif kind == _BIND_FEED:
                cid = new_cid(1, False, True)
                steps.append(_Step(cid, None, node.op, 1, (), ()))
                made[nid] = (cid, 0)
                born.append((cid, li))
            elif kind in (_BIND_ALIAS, _FIN_PASS):
                fwd[nid] = [address(s, i) for s, i in node.inputs]
            else:
                refs = [address(s, i) for s, i in node.inputs]
                if kind != _FIN_IGRAD:
                    preds.append(refs.pop(0))
                    expected.append(node.expected)
                    names.append(node.op.name)
                if kind == _FIN_CGRAD:
                    for pos, (take, (s, i)) in enumerate(
                            zip(node.recipe, node.inputs[1:])):
                        if not take:
                            t = nodes[s].op.outputs[i]
                            enlist(("zeros", t.dtype, t.shape), _ZEROS, False,
                                   ((nid, pos), (refs[pos],), node.frame_idx))
                if kind != _FIN_COND:
                    refs.append((0, 0, 0))  # done flag
                fwd[nid] = refs
        for bi, bucket in enumerate(buckets):
            first = nodes[bucket[0]]
            items: dict = {}
            for nid in bucket:
                cid = kernel_member(nid, nodes[nid], bi)
                if cid is not None:
                    items[cid] = items.get(cid, 0) + 1
            books.append((first.op.op_type, first.sig_prefix, items))

        for key, (defn, booked, members) in groups.items():
            cid = new_cid(len(members))
            first = members[0][0]
            op = nodes[first if booked or key[0] == -1 else first[0]].op
            arity = len(members[0][1])
            step = _Step(
                cid, defn, op, len(members),
                tuple(f for _, _, f in members) if defn.stateful else (),
                tuple(_input_spec([refs[p] for _, refs, _ in members],
                                  step_m) for p in range(arity)))
            for row, (target, _, _) in enumerate(members):
                if defn is _ZEROS:
                    fwd[target[0]][target[1]] = (cid, 0, row)
                else:
                    made[target] = (cid, row)
            born.append((cid, li))
            if booked:
                books[key[0]][2][cid] = len(members)
                bucket_steps.append(step)
            else:
                steps.append(step)

        touched = set()
        for step in steps + bucket_steps:
            for spec in step.inputs:
                touched.update(_producers(spec))
        check = None
        if preds:
            check = (_input_spec(preds, step_m),
                     np.array(expected, dtype=bool), tuple(names))
            touched.update(_producers(check[0]))
        for nid in (scalars + tuple(x for b in buckets for x in b)
                    if recording else ()):
            node = nodes[nid]
            if node.store_mask is not None:
                for i, keep in enumerate(node.store_mask):
                    if keep:
                        cid, out, row = address(nid, i)
                        touched.add(cid)
                        stores.append((cid, out, row, node.frame_idx,
                                       node.graph_id, node.op.id, i))
        for cid in touched:
            last_use[cid] = li
        program.append((check, tuple(steps), tuple(bucket_steps),
                        tuple((t, p, tuple(items.items()))
                              for t, p, items in books),
                        tuple(stores)))

    root_refs = {}
    pinned = set()
    for nid, node in enumerate(nodes):
        if node.frame_idx == 0 and (made[nid] or fwd[nid]) is not None:
            refs = (fwd[nid] if fwd[nid] is not None else
                    [address(nid, i) for i in range(len(node.op.outputs))])
            root_refs[nid] = tuple(refs)
            pinned.update(cid for cid, _, _ in refs)
    release = [[] for _ in program]
    for cid, li in born:
        if cid not in pinned:
            release[last_use.get(cid, li)].append(cid)
    return (tuple(level + (tuple(cids),)
                  for level, cids in zip(program, release)),
            tuple(step_m), root_refs)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class _Inv:
    """A column whose every row is the same value: an invariant, or a
    feed all merged runs share.  Never copied per member — kernels get
    it as a shared operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _as_column(values: list):
    """Stack row values into an array column when they agree on dtype and
    shape; otherwise keep the list (its consumers loop over rows)."""
    first = values[0]
    if not isinstance(first, (np.ndarray, np.generic)):
        return values
    shape, dtype = first.shape, first.dtype
    for v in values:
        if not (isinstance(v, (np.ndarray, np.generic))
                and v.shape == shape and v.dtype == dtype):
            return values
    return np.stack(values)


def columns_of(results: list, n_out: int) -> list:
    """Per-member output lists (a row loop, a pool reply) as columns."""
    cols = []
    for j in range(n_out):
        values = [outputs[j] for outputs in results]
        first = values[0]
        cols.append(_Inv(first) if all(v is first for v in values)
                    else _as_column(values))
    return cols


def _take(col, rows, k: int, m: int):
    """Member ``rows`` of a producer column holding ``k`` run-major runs
    of ``m`` members each."""
    if col.__class__ is list:
        return _as_column([col[r * m + i] for r in range(k) for i in rows])
    if k == 1:
        return col.take(rows, 0)
    tail = col.shape[1:]
    return (col.reshape((k, m) + tail).take(rows, 1)
            .reshape((k * len(rows),) + tail))


class _Sweep:
    """Mutable state of one wavefront sweep: the live runs and their
    columns (``cols[cid][out]``: ndarray with rows on axis 0, a list of
    row values, or an :class:`_Inv`)."""

    __slots__ = ("core", "lp", "live", "k", "cols", "sigs", "keys", "ctx",
                 "bytes")

    def __init__(self, core, lp, live):
        self.core = core
        self.lp = lp
        self.live = live
        self.k = len(live)
        self.cols = [None] * len(lp.step_m)
        self.cols[0] = [_Inv(np.bool_(True))]
        #: per column group, its call's member signature (bucket steps;
        #: group 0 stands in for zero-input members: the empty signature)
        self.sigs = [None] * len(lp.step_m)
        self.sigs[0] = ()
        self.keys = None
        #: shared by every pure kernel; kernels that read ``ctx.frame``
        #: are stateful and get one context per row
        self.ctx = ExecContext(core.runtime, None, False)
        self.bytes = {} if core._track_live else None

    def frame_keys(self) -> list:
        """Per live run, the cache key of every compiled frame."""
        if self.keys is None:
            suffixes = self.lp.suffixes
            self.keys = [suffixes if not run.prefix else
                         [run.prefix + suffix for suffix in suffixes]
                         for run in self.live]
        return self.keys

    def operand(self, spec):
        """Gather one wired input: a column in member order."""
        cols, k, step_m = self.cols, self.k, self.lp.step_m
        if len(spec) == 3:
            cid, out, rows = spec
            col = cols[cid][out]
            if col.__class__ is _Inv:
                return col
            if rows is None:
                return _as_column(col) if col.__class__ is list else col
            return _take(col, rows, k, step_m[cid])
        parts, perm = spec
        pieces = []
        for cid, out, rows in parts:
            col = cols[cid][out]
            if col.__class__ is not _Inv:
                pieces.append(_take(col, rows, k, step_m[cid]))
            elif isinstance(col.value, (np.ndarray, np.generic)):
                pieces.append(np.broadcast_to(
                    col.value, (k * len(rows),) + col.value.shape))
            else:
                pieces.append([col.value] * (k * len(rows)))
        first = pieces[0]
        sizes = [len(rows) for _, _, rows in parts]
        if all(p.__class__ is np.ndarray and p.dtype == first.dtype
               and p.shape[1:] == first.shape[1:] for p in pieces):
            if k == 1:
                joined = np.concatenate(pieces)
                return joined if perm is None else joined.take(perm, 0)
            tail = first.shape[1:]
            joined = np.concatenate(
                [p.reshape((k, n) + tail) for p, n in zip(pieces, sizes)],
                axis=1)
            if perm is not None:
                joined = joined.take(perm, 1)
            return joined.reshape((-1,) + tail)
        # producers disagree on member shape or dtype: a list column
        column = []
        for r in range(k):
            run = [v for p, n in zip(pieces, sizes)
                   for v in p[r * n:(r + 1) * n]]
            column.extend(run if perm is None else [run[i] for i in perm])
        return column

    def value(self, ref, r: int):
        """The value at a static address for live run ``r``."""
        cid, out, row = ref
        col = self.cols[cid][out]
        if col.__class__ is _Inv:
            return col.value
        return col[r * self.lp.step_m[cid] + row]

    def drop_cancelled(self) -> None:
        """Compact every live column down to the runs still wanted."""
        keep = [r for r, run in enumerate(self.live) if not run.cancelled]
        k, step_m = self.k, self.lp.step_m
        for cid, outs in enumerate(self.cols):
            if outs is None:
                continue
            m = step_m[cid]
            kept = []
            for col in outs:
                if col.__class__ is np.ndarray:
                    tail = col.shape[1:]
                    col = (col.reshape((k, m) + tail)[keep]
                           .reshape((-1,) + tail))
                elif col.__class__ is list:
                    col = [v for r in keep for v in col[r * m:(r + 1) * m]]
                kept.append(col)
            self.cols[cid] = kept
        self.live = [self.live[r] for r in keep]
        self.k = len(keep)
        self.keys = None


class _LevelCall:
    """One prepared kernel dispatch of a level.

    The master builds these (operand gather, per-row contexts for
    stateful kernels) so that *executing* one — the kernel invocation
    alone, in :func:`execute_level_call` — is free of shared mutable
    state and can run on a pool thread or be shipped to a worker
    process.  Column hand-over and live-bytes accounting happen back on
    the master in :func:`complete_level_call`, in original call order.
    """

    __slots__ = ("step", "operands", "inv", "stackable", "shared", "rows",
                 "ctx", "ctxs", "sig")

    #: duck-type marker: pool workers discriminate task payloads without
    #: importing this module at load time
    is_level_call = True

    def __init__(self, sweep, step):
        self.step = step
        self.rows = sweep.k * step.m
        self.ctx = sweep.ctx
        #: operands as kernels take them: an array column (a list when
        #: rows disagree on shape), or — where ``inv`` — the one value
        #: every row shares
        self.operands = operands = []
        inv, sig = [], []
        self.stackable = True
        for spec in step.inputs:
            o = sweep.operand(spec)
            shared = o.__class__ is _Inv
            if shared:
                o = o.value
            inv.append(shared)
            operands.append(o)
            # members' dtype + shape per input: what the dynamic
            # coalescer would have bucketed on
            if o.__class__ is np.ndarray:
                sig.append((o.dtype.num, o.shape if shared else o.shape[1:]))
            elif shared and isinstance(o, np.generic):
                sig.append((-1, o.dtype.num))
            else:  # rows that disagree on shape, or not a numpy value
                sig.append(None)
                self.stackable = False
        self.inv = tuple(inv)
        self.sig = tuple(sig)
        stateful = step.defn.stateful
        #: no operand has a batch axis: one scalar kernel call
        self.shared = step.once or (not stateful and all(inv))
        self.ctxs = None
        if stateful and not step.once:
            runtime, records = sweep.core.runtime, sweep.lp.records
            self.ctxs = [
                ExecContext(runtime, _CFrame(keys[f], records[f]), records[f])
                for keys in sweep.frame_keys() for f in step.frames]

    def member_inputs(self) -> list:
        """Per-member input lists (row views), for the scalar kernel."""
        rows = self.rows
        if not self.operands:
            return [[] for _ in range(rows)]
        return [list(ins) for ins in zip(*(
            [o] * rows if shared else o
            for o, shared in zip(self.operands, self.inv)))]


def execute_level_call(call) -> list:
    """Run one prepared call's kernel; return its output columns.

    The only piece of a sweep that may leave the master thread.  An
    invariant runs its scalar kernel once; a step with a stacked kernel
    and array columns is one columnar call; anything else (no stacked
    form, members disagreeing on shape, a kernel declining) loops the
    scalar kernel over rows.  EngineError passes through, any other
    error is wrapped with the offending op.
    """
    step = call.step
    defn, op = step.defn, step.op
    try:
        if call.shared:
            return [_Inv(v) for v in defn.kernel(op, call.operands, call.ctx)]
        if call.stackable and defn.stacked_kernel is not None:
            outs = defn.stacked_kernel(op, call.operands, call.inv, call.ctx)
            if outs is not None:
                if len(outs) != step.n_out or len(outs[0]) != call.rows:
                    raise EngineError(
                        f"stacked kernel for {op.op_type} returned a "
                        f"malformed result for {call.rows} members")
                return outs
        ctxs = call.ctxs or [call.ctx] * call.rows
        return columns_of([defn.kernel(op, ins, ctx) for ins, ctx
                           in zip(call.member_inputs(), ctxs)], step.n_out)
    except EngineError:
        raise
    except Exception as exc:  # noqa: BLE001 - wrapped like the dynamic path
        raise SchedulerCore._wrap_error(exc, op) from exc


def complete_level_call(sweep, call, outs) -> None:
    """Master-side completion: publish the columns, book their bytes."""
    step = call.step
    sweep.cols[step.cid] = outs
    sweep.sigs[step.cid] = call.sig
    if sweep.bytes is not None and step.scratch:
        added = sweep.bytes[step.cid] = sum(
            _values_bytes(col) if col.__class__ is list
            else getattr(col, "nbytes", 0) for col in outs)
        core = sweep.core
        peak = (core._live_bytes + added
                + core.runtime.accumulators.retained_bytes)
        core._live_bytes += added
        if peak > core.stats.peak_live_bytes:
            core.stats.peak_live_bytes = peak


def _feed_column(sweep, step) -> list:
    try:
        values = [run.feed[step.op.id] for run in sweep.live]
    except KeyError:
        raise EngineError(
            f"placeholder {step.op.name} was not fed") from None
    return columns_of([[v] for v in values], 1)


def _verify_predicates(sweep, check) -> None:
    """One vector compare per level: every Cond/CondGrad predicate of
    the level against the branch the shape profile compiled in."""
    spec, expected, names = check
    col = sweep.operand(spec)
    if col.__class__ is _Inv:
        got = np.full(len(expected), bool(np.asarray(col.value)))
    elif col.__class__ is list:
        got = np.array([bool(np.asarray(v)) for v in col])
    else:
        got = col.astype(bool)
    wrong = got.reshape(-1, len(expected)) != expected
    if wrong.any():
        raise EngineError(
            f"shape profile mismatch at {names[int(wrong.any(0).argmax())]}"
            ": the fed data disagrees with the compiled branch decision")


def _book(sweep, widths: tuple) -> None:
    """Account one sweep's ops exactly like the dynamic tier would have
    grouped them: scalars per node, buckets per member signature.

    The schedule is static, so the bookings are too once the runs per
    level (``widths``) and the member signatures are fixed: they are
    built once as a RunStats delta, memoised on the plan and merged per
    sweep (runs cancelled mid-sweep keep their scalar counts, matching
    the dynamic path's best-effort stats under cancellation).
    """
    lp = sweep.lp
    key = (widths, tuple(sweep.sigs))
    if lp.booked is None or lp.booked[0] != key:
        delta, sigs = RunStats(), sweep.sigs
        for op_type, count in lp.scalar_counts if widths else ():
            delta.ops_executed += count * widths[0]
            delta.per_type_count[op_type] = count * widths[0]
        for level_idx, k in enumerate(widths):
            hist = {}
            for op_type, prefix, items in lp.program[level_idx][3]:
                groups: dict = {}
                for cid, count in items:
                    groups[sigs[cid]] = groups.get(sigs[cid], 0) + count * k
                for sig, width in groups.items():
                    if width == 1:
                        delta.note_op(op_type, 0.0)
                    else:
                        delta.note_batch(op_type, width, 0.0,
                                         prefix + (sig,))
                    hist[width] = hist.get(width, 0) + 1
            if hist:
                delta.level_width_hist[level_idx] = hist
        lp.booked = (key, delta)
    sweep.core.stats.merge(lp.booked[1])


def execute_level_plan(core: SchedulerCore, lp: LevelPlan, runs) -> list:
    """Execute one wavefront sweep for ``runs`` (same LevelPlan).

    Buckets widen across runs — concurrent same-profile roots extend
    every column run-major and share one fused dispatch per step.
    Returns one entry per run: the fetched values, or ``None`` for runs
    cancelled mid-sweep.
    """
    sweep = _Sweep(core, lp, [run for run in runs if not run.cancelled])
    cols = sweep.cols
    widths = []
    for check, steps, bucket_steps, _, stores, release in lp.program:
        if any(run.cancelled for run in sweep.live):
            sweep.drop_cancelled()
        if not sweep.live:
            break
        widths.append(sweep.k)
        if check is not None:
            _verify_predicates(sweep, check)
        for step in steps:
            if step.defn is None:
                cols[step.cid] = _feed_column(sweep, step)
            else:
                call = _LevelCall(sweep, step)
                complete_level_call(sweep, call, execute_level_call(call))
        if bucket_steps:
            core._execute_level_calls(
                lp, [_LevelCall(sweep, step) for step in bucket_steps], sweep)
        if stores:
            # one bulk store per level, after every step of the level —
            # CacheLookup consumers are ordered into later levels
            core.runtime.cache.store_many([
                (run_keys[frame_idx], gid, oid, i, sweep.value(ref, r))
                for r, run_keys in enumerate(sweep.frame_keys())
                for *ref, frame_idx, gid, oid, i in stores])
        for cid in release:
            cols[cid] = None
            if sweep.bytes is not None:
                core._live_bytes -= sweep.bytes.pop(cid, 0)
    _book(sweep, tuple(widths))
    if sweep.bytes is not None:
        core._live_bytes -= sum(sweep.bytes.values())
    row_of = {id(run): r for r, run in enumerate(sweep.live)}
    results = []
    for run in runs:
        r = row_of.get(id(run))
        if r is None or run.cancelled:
            results.append(None)
            continue
        values = [sweep.value(lp.root_refs[nid][i], r)
                  for nid, i in run.fetch_locs]
        # root fetches leave the runtime dense; a subtree boundary hands
        # back raw values (incl. sparse IndexedSlices) exactly like the
        # dynamic finish_async
        results.append([densify(v) for v in values]
                       if run.densify_fetches else values)
    return results
