"""Shape-generic level templates: the compiled fast path.

When the *shape* of a recursive input is known at admission
(``TreeBatch.profiles``) the dynamic runtime's discovery — a frame per
tree node, signature matching in the ready queue — is unnecessary.  The
paper's point is that a recursive *definition* gives the runtime the
relation between nodes instead of a per-input topological index; this
module takes it literally (ARCHITECTURE.md, "Two-tier dispatch", has the
full account):

**Template** — once per (root plan, record mode[, subtree SubGraph]).
Every *frame class* — the root frame, per recursive child count ``c``
the node body with the ``Cond`` branch ``c`` selects and helper bodies
inlined (``U_c``), and its ``InvokeGrad`` / ``CondGrad`` mirror
(``GU_c``) — is scanned once, with the async starters' binding
semantics, into kernel ops with *symbolic* inputs.  Ops split into a
pre-call segment (feeds a recursive call or a ``Cond`` predicate) and a
post-call segment, Kahn-levelled and pre-bucketed into steps; the root
frame is staged around its call sites.  Ineligibility is a property of
the definition, recorded once with its reason.

**Instantiate** — per admitted forest (all runs flushed together, of
any shapes).  One linearisation walk per run yields per-node arrays;
members of a step are the nodes of its class at one depth (pre-call,
top-down) or one height (post-call, bottom-up), and every input spec is
filled by numpy index arithmetic: Python work is O(instantiated steps)
plus O(nodes) for frame-key suffixes — never O(nodes × body ops).

**Sweep** — a fixed sequence of stacked kernel calls over columns (one
array per step output, members on axis 0).  No frames are spawned, no
signatures matched, no per-member Python runs.

Values, gradients, selective-cache entries and accumulator sums are
bit-identical to the dynamic path (same ``child_key`` frame keys, same
stateful-kernel contexts), and the sweep *verifies* every ``Cond``
predicate against the branch the profile selected.  Anything ineligible
falls back to the dynamic coalescer, counted by reason in
``RunStats.level_plan_fallback_reasons``.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple
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
from .variables import order_key

__all__ = ["LevelPlan", "Template", "template_for", "linearise",
           "instance_for", "level_plan_for", "execute_level_plan",
           "execute_level_call", "complete_level_call"]

#: LRU cap of the per-graph instantiation memo: an instantiation holds
#: index arrays proportional to its forest, so adversarial long-tail
#: shape streams must not grow the memo without bound
LEVEL_PLAN_CAP = int(os.environ.get("REPRO_LEVEL_PLAN_CAP", "256"))

# symbolic value references: (_S, op index, out) a member op of the same
# class; (_O, cid, out) an invariant; (_B, placeholder id) bound by the
# parent frame; (_C, site index, out) a recursive call site's output;
# (_M, ref) a value of the mirrored forward class
_S, _O, _B, _C, _M = range(5)
#: the shared ``True`` completion flag of gradient call sites (cid 0)
_DONE = (_O, 0, 0)
#: sentinel reason: the profile has undetermined (``None``) subtrees
HOLES = "profile has undetermined subtrees"


class _Ineligible(Exception):
    """Internal: not compilable; ``args[0]`` is the countable reason."""


#: stand-in for :class:`Frame` inside compiled ExecContexts: kernels only
#: touch ``ctx.frame.key`` (cache / accumulator order keys) and ``.record``
_CFrame = namedtuple("_CFrame", "key record")


#: pseudo-op behind a CondGrad's untaken outputs: a zero gradient shaped
#: like the forward value
_ZEROS = OpDef(
    name="CondGradZeros", infer=None,
    stacked_kernel=lambda op, cols, inv, ctx: [np.zeros_like(cols[0])],
    kernel=lambda op, ins, ctx: [tensor_array.zero_value_like(ins[0])])


def _statically_big(op) -> bool:
    """True unless every output is statically known to be tiny: a tiny
    invariant is cheaper to materialise per member than to split a
    bucket on (the per-tree ``Const`` batch index, a gather position)."""
    return any(t.shape is None or None in t.shape or math.prod(t.shape) > 64
               for t in op.outputs)


# ---------------------------------------------------------------------------
# template: every frame class scanned once
# ---------------------------------------------------------------------------

class _Op:
    """One member op of a class (a kernel, a root feed or a zero fill):
    ``inputs`` are value refs; ``step`` is its template step and ``k``
    its position among the ops merged there."""

    __slots__ = ("op", "defn", "frame", "inputs", "prefix", "seg", "level",
                 "step", "k")

    def __init__(self, op, defn, frame, inputs, prefix=None):
        self.op, self.defn, self.frame = op, defn, frame  # defn None: feed
        #: ``prefix``: the batch-signature prefix, None for a scalar step
        self.inputs, self.prefix = tuple(inputs), prefix
        self.seg = self.level = self.k = 0
        self.step = None


#: template step: same-signature ops of one level of one segment
_TStep = namedtuple("_TStep", "index defn booked ops")
#: one frame inlined into a class: ``rel`` is its key suffix below the
#: class's node frame (its length the frame-depth offset), ``refs[slot]``
#: its per-output value refs
_SubFrame = namedtuple("_SubFrame", "plan rel record refs")


#: a recursive call site — the child frame is another class member:
#: ``family`` is the child's ("fwd" | "grad"), ``child`` which child node
#: it is, ``path`` the child's key suffix below the node frame, ``bind``
#: maps the child's placeholder ids to refs in this class
_Site = namedtuple("_Site", "family child path bind")


class _Class:
    """One frame class: the root frame, the unit ``U_c`` of a node with
    ``c`` children, or its gradient mirror ``GU_c``."""

    def __init__(self, index, family, count, mirror=None):
        self.index, self.family, self.count = index, family, count
        self.mirror = mirror
        self.frames: list = []
        self.ops: list = []
        self.sites: list = []
        self.checks: list = []    # (pred ref, expected, Cond name)
        self.stores: list = []    # (ref, frame, graph id, op id, out)
        self.counts: dict = {}    # op type -> ops per member (all kinds)
        self.cond_roles: dict = {}  # (rel, Cond op id) -> "true"/"false"
        self.outputs: tuple = ()  # refs of the node frame's outputs
        #: per segment: levels ``(scalar steps, bucket steps, checks)``,
        #: and the stores that ride the segment's last level
        self.segments: list = []
        self.seg_stores: list = []
        self.static: tuple = ()   # counts of ops outside bucket steps


class Template:
    """The compiled definition: frame classes with symbolic wiring."""

    def __init__(self, graph, root_plan, record, subtree):
        self.graph = graph
        self.record = record
        self.body_deps: dict = {}     # body graph -> FramePlan baked in
        self.once: list = []          # prologue steps, cid = 1 + index
        self._once_of: dict = {}
        self._once_big = [False]
        self._spec_ids: dict = {}
        self._tsteps = 0
        #: a value address packs ``cid << out_bits | out`` into one
        #: integer: wide enough for the most outputs any scanned op has
        self.out_bits = 0
        self.classes: list = []
        self.fwd: dict = {}           # child count -> U_c
        self.grad: dict = {}          # child count -> GU_c
        self.s_rec = subtree
        if subtree is None:
            targets = {id(op.attrs["subgraph"]): op.attrs["subgraph"]
                       for op in root_plan.ops if op.op_type == "Invoke"}
            if len(targets) != 1:
                raise _Ineligible(
                    "root call sites target multiple SubGraphs" if targets
                    else "no recursive call sites in the root plan")
            self.s_rec, = targets.values()
        if not self.s_rec.finalized:
            raise _Ineligible("recursive SubGraph is not finalized")
        body = self._body_plan(self.s_rec.graph)
        for c in self._child_counts(body):
            cls = self.fwd[c] = self._new_class("fwd", c)
            frame = self._scan(cls, body, (), "node", lambda op: (_B, op.id))
            cls.outputs = self._values(frame, self.s_rec.output_locs)
        self.root = root = self._new_class("root", None)
        #: what a subtree run hands back: its one call site's outputs
        self.fetch_refs = ()
        if subtree is None:
            self._scan(root, root_plan, (), "root", None)
        else:
            # the root of a *subtree* template is one call site whose
            # bound placeholders are fed from the spine frame's bindings
            feeds = {op.id: (_S, self._add_op(root, op, None, 0, ()), 0)
                     for op in body.ops if op.op_type == "Placeholder"}
            root.sites.append(_Site("fwd", 0, (), feeds))
            self.fetch_refs = tuple(
                (_C, 0, j) for j in range(len(self.s_rec.output_locs)))
        self.root_sites = [s for s in root.sites if s.family == "fwd"]
        for family, classes in (("fwd", self.fwd), ("grad", self.grad)):
            self._check_family(classes, family)
        self._stage_root()
        for cls in self.classes:
            self._segment(cls)
        self.inherited = {"fwd": self._inherited(self.fwd, "fwd"),
                          "grad": self._inherited(self.grad, "grad")}
        for cls in self.classes:
            self._form_steps(cls)
        #: frame levels per recursion level, and below the deepest node
        self.stride = 1 + max([len(s.path) - 1 for cls in self.fwd.values()
                               for s in cls.sites], default=0)
        self.depth_off = max(len(f.rel) for cls in self.classes
                             if cls.family != "root" for f in cls.frames)
        #: most ops any one step merges (sizes the shared index ramp)
        self.max_merge = max([len(o.step.ops) for cls in self.classes
                              for o in cls.ops], default=1)
        self.body_deps = tuple(self.body_deps.items())

    @property
    def num_steps(self) -> int:
        """Template steps over all classes: independent of any shape."""
        return self._tsteps + len(self.once)

    # -- scanning ------------------------------------------------------------

    def _new_class(self, family, count, mirror=None) -> _Class:
        cls = _Class(len(self.classes), family, count, mirror)
        self.classes.append(cls)
        return cls

    def _body_plan(self, g):
        p = self.body_deps.get(g)
        if p is None:
            p = self.body_deps[g] = plan_for(g)
        return p

    def _rec_sites(self, sg) -> int:
        """Direct recursive call sites (Invokes of s_rec) in a body."""
        return sum(1 for o in self._body_plan(sg.graph).ops
                   if o.op_type == "Invoke"
                   and o.attrs.get("subgraph") is self.s_rec)

    def _child_counts(self, body) -> tuple:
        """The child counts the definition can realise: its direct call
        sites, or what its one ``Cond`` selects between."""
        conds = [op for op in body.ops if op.op_type == "Cond"]
        direct = self._rec_sites(self.s_rec)
        if not conds:
            return (direct,)
        if len(conds) > 1:
            raise _Ineligible("data-dependent control flow here")
        if direct:
            raise _Ineligible("mixed direct recursion and branch recursion")
        branches = [conds[0].attrs[f"{role}_subgraph"]
                    for role in ("true", "false")]
        if not all(sg.finalized for sg in branches):
            raise _Ineligible("branch body is not finalized")
        tc, fc = (self._rec_sites(sg) for sg in branches)
        if tc == fc:
            raise _Ineligible("branch is not determined by the shape profile")
        return (tc, fc)

    @staticmethod
    def _add_op(cls, op, defn, frame, inputs, prefix=None) -> int:
        cls.ops.append(_Op(op, defn, frame, inputs, prefix))
        return len(cls.ops) - 1

    @staticmethod
    def _values(frame, locs) -> tuple:
        index_of = frame.plan.index_of
        return tuple(frame.refs[index_of[oid]][i] for oid, i in locs)

    def _scan(self, cls, plan, rel, mode, bind) -> _SubFrame:
        """Inline one frame into ``cls`` with the starters' binding
        semantics.  ``mode``: "root" | "node" | "branch" | "helper" |
        "grad"; ``bind(op)`` is a bound placeholder's ref (None: unbound)."""
        record = (mode != "root" and self.record
                  and not getattr(plan.graph, "is_backward_body", False))
        frame = _SubFrame(plan, rel, record, [None] * plan.num_slots)
        fi = len(cls.frames)
        cls.frames.append(frame)
        refs = frame.refs
        for slot, op in enumerate(plan.ops):
            # bound / fed slots first, like seed_frame: capture
            # placeholders can sit at later slots than their consumers
            if op.op_type == "Placeholder":
                if mode == "root":
                    ref = (_S, self._add_op(cls, op, None, fi, ()), 0)
                else:
                    ref = bind(op)
                    if ref is None:
                        raise _Ineligible("unbound placeholder")
                refs[slot] = [ref]
                self._note_stores(cls, fi, frame, slot, refs[slot])
        for slot, op in enumerate(plan.ops):
            if refs[slot] is not None:
                continue
            defn = plan.defs[slot]
            in_refs = [refs[s][i] for s, i in plan.input_locs[slot]]
            if op.control_inputs:
                raise _Ineligible("control dependency in a compiled body")
            cls.counts[op.op_type] = cls.counts.get(op.op_type, 0) + 1
            if op.op_type == "CacheLookup":
                refs[slot] = [self._lookup(cls, frame, op)]
            elif not defn.is_async:
                refs[slot] = self._kernel(cls, fi, plan.sig_prefixes[slot],
                                          op, defn, in_refs)
            elif hasattr(self, "_call_" + op.op_type):
                refs[slot] = getattr(self, "_call_" + op.op_type)(
                    cls, frame, op, in_refs, mode)
            else:
                raise _Ineligible(f"async op {op.op_type} is not compilable")
            self._note_stores(cls, fi, frame, slot, refs[slot])
        return frame

    @staticmethod
    def _note_stores(cls, fi, frame, slot, refs) -> None:
        if frame.record:
            plan = frame.plan
            for i, keep in enumerate(plan.store_masks[slot]):
                if keep:
                    cls.stores.append((refs[i], fi, plan.graph_id,
                                       plan.ops[slot].id, i))

    def _kernel(self, cls, fi, prefix, op, defn, in_refs) -> list:
        """Route one kernel op: an invariant (``Const``, ``ReadVariable``
        and pure ops over them, canonicalised to one prologue step per
        op), or a member op of the class."""
        n_out = len(op.outputs)
        self.out_bits = max(self.out_bits, (n_out - 1).bit_length())
        if (all(r[0] == _O for r in in_refs)
                and (not defn.stateful if in_refs
                     else op.op_type in _PERSISTENT_ALIAS_OPS)):
            key = (op if prefix is None else prefix, tuple(in_refs))
            cid = self._once_of.get(key)
            if cid is None:
                cid = self._once_of[key] = len(self.once) + 1
                self._once_big.append(_statically_big(op))
                self.once.append(_Step(
                    cid, defn, op, 1,
                    tuple((r[1], r[2], None) for r in in_refs), once=True))
            return [(_O, cid, i) for i in range(n_out)]
        opx = self._add_op(cls, op, defn, fi, in_refs,
                           None if defn.stateful else prefix)
        return [(_S, opx, i) for i in range(n_out)]

    def _lookup(self, cls, frame, op):
        """A compiled ``CacheLookup`` is an alias of the value its
        forward frame stored."""
        out = op.attrs["target_out_idx"]
        for fwd in (cls.mirror.frames if cls.mirror is not None else ()):
            slot = fwd.plan.index_of.get(op.attrs["target_op_id"])
            if (fwd.rel == frame.rel and fwd.record and slot is not None
                    and fwd.plan.graph_id == op.attrs["target_graph_id"]
                    and fwd.plan.store_masks[slot][out]):
                ref = fwd.refs[slot][out]
                return ref if ref[0] == _O else (_M, ref)
        raise _Ineligible("cache lookup without a compiled producer")

    def _inline(self, cls, frame, sg, site, mode, bindings) -> tuple:
        """Inline the frame a non-recursive call site spawns; returns
        it and its output refs."""
        if not sg.finalized:
            raise _Ineligible("call target is not finalized")
        child = self._scan(cls, self._body_plan(sg.graph),
                           frame.rel + (site,), mode,
                           lambda o: bindings.get(o.id))
        return child, list(self._values(child, sg.output_locs))

    def _call_Invoke(self, cls, frame, op, in_refs, mode) -> list:
        sg = op.attrs["subgraph"]
        ids = sg.input_op_ids[:op.attrs["n_args"]]
        bindings = dict(zip(ids, in_refs))
        for ph_id, pos in role_captures(op, "main"):
            bindings[ph_id] = in_refs[pos]
        if sg is not self.s_rec:
            return self._inline(cls, frame, sg, op.id, "helper",
                                bindings)[1]
        if mode in ("helper", "grad"):
            raise _Ineligible("recursive call outside the profiled structure")
        child = sum(1 for s in cls.sites if s.family == "fwd")
        cls.sites.append(_Site("fwd", child, frame.rel + (op.id,), bindings))
        return [(_C, len(cls.sites) - 1, j)
                for j in range(len(sg.output_locs))]

    def _call_Cond(self, cls, frame, op, in_refs, mode) -> list:
        if mode != "node":
            raise _Ineligible("data-dependent control flow here")
        role = ("true" if self._rec_sites(op.attrs["true_subgraph"])
                == cls.count else "false")
        cls.cond_roles[(frame.rel, op.id)] = role
        cls.checks.append((in_refs[0], role == "true", op.name))
        bindings = {ph_id: in_refs[pos]
                    for ph_id, pos in role_captures(op, role)}
        return self._inline(cls, frame, op.attrs[f"{role}_subgraph"],
                            op.id, "branch", bindings)[1]

    def _grad_body(self, fwd, mode, seeds):
        if mode not in ("root", "grad"):
            raise _Ineligible("backward call in a forward body")
        if fwd._grad_subgraph is None:
            raise _Ineligible("gradient body not built yet")
        gsg = fwd.grad_subgraph  # too few seeds: an unbound placeholder
        return gsg, dict(zip(gsg.input_op_ids, seeds))

    def _call_InvokeGrad(self, cls, frame, op, in_refs, mode) -> list:
        fwd, site_id = op.attrs["fwd_subgraph"], op.attrs["site_id"]
        gsg, bindings = self._grad_body(fwd, mode, in_refs)
        if fwd is not self.s_rec:
            return self._inline(cls, frame, gsg, site_id, "grad",
                                bindings)[1] + [_DONE]
        # the mirror of forward call site ``site_id``: same child, same
        # key suffix
        path = frame.rel + (site_id,)
        sites = (self.root if cls.family == "root" else cls.mirror).sites
        mirrored = [s for s in sites if s.family == "fwd" and s.path == path]
        if not mirrored or not gsg.finalized:
            raise _Ineligible("gradient call sites do not mirror the "
                              "forward recursion")
        if not self.grad:  # scan GU_c for every forward class, once
            body = self._body_plan(gsg.graph)
            for c, fwd_cls in self.fwd.items():
                self.grad[c] = self._new_class("grad", c, mirror=fwd_cls)
            for gcls in self.grad.values():
                top = self._scan(gcls, body, (), "grad",
                                 lambda o: (_B, o.id))
                gcls.outputs = self._values(top, gsg.output_locs)
        cls.sites.append(_Site("grad", mirrored[0].child, path, bindings))
        return [(_C, len(cls.sites) - 1, j)
                for j in range(len(gsg.output_locs))] + [_DONE]

    def _call_CondGrad(self, cls, frame, op, in_refs, mode) -> list:
        site_id, n_seeds = op.attrs["site_id"], op.attrs["n_seeds"]
        role = (cls.mirror.cond_roles.get((frame.rel, site_id))
                if cls.mirror is not None else None)
        if role is None:
            raise _Ineligible("no compiled branch decision to mirror")
        sg = op.attrs[f"{role}_subgraph"]
        backward, bindings = self._grad_body(sg, mode,
                                             in_refs[1:1 + n_seeds])
        entries, fwd_refs = op.attrs["cap_entries"], in_refs[1 + n_seeds:]
        if len(fwd_refs) != len(entries):
            raise _Ineligible("capture entries out of sync")
        slot_tensors = cond_grad_slot_tensors(sg)
        child = self._inline(cls, frame, backward, site_id, "grad",
                             bindings)[0]
        fi = cls.frames.index(frame)
        outs = []
        for pos, ((entry_role, ph_id), ref) in enumerate(
                zip(entries, fwd_refs)):
            t = slot_tensors.get(ph_id) if entry_role == role else None
            if t is not None:
                outs.append(child.refs[child.plan.index_of[t.op.id]][t.index])
            else:  # untaken: a zero gradient shaped like the forward value
                like = op.inputs[1 + n_seeds + pos]
                outs.append((_S, self._add_op(
                    cls, op, _ZEROS, fi, (ref,),
                    ("zeros", like.dtype, like.shape)), 0))
        return outs + [_DONE]

    # -- static analysis -----------------------------------------------------

    def _check_family(self, classes, family) -> None:
        """Every class of a family must be enterable from every call
        site (all placeholders bound, gradient sites mirroring the
        forward ones one for one), recurse at one frame depth, and never
        hand a recursive result straight back up (an unbounded alias
        chain)."""
        if not classes:
            return
        first = next(iter(classes.values()))
        names = [op.id for op in first.frames[0].plan.ops
                 if op.op_type == "Placeholder"]
        for cls in [self.root, *classes.values()]:
            sites = [s for s in cls.sites if s.family == family]
            want = (len(self.root_sites) if cls is self.root else cls.count)
            # forward sites number their children as scanned; a gradient
            # site is missing when a call's result never reaches the loss
            if sorted(s.child for s in sites) != list(range(want)):
                raise _Ineligible("gradient call sites do not mirror the "
                                  "forward recursion")
            if any(n not in s.bind for s in sites for n in names):
                raise _Ineligible("unbound placeholder")
            if cls is not self.root and any(r[0] == _C for r in cls.outputs):
                raise _Ineligible("a recursive result is returned unchanged")

    def _inherited(self, classes, family) -> frozenset:
        """Bound placeholders every recursive site passes down unchanged
        (the batch index, every captured feed): their value is the tree
        root's.  Any other cycle through the bindings would be an
        unbounded alias chain."""
        edges: dict = {}
        for cls in classes.values():
            for site in cls.sites:
                for ph_id, ref in site.bind.items():
                    edges.setdefault(ph_id, set()).add(
                        ref[1] if ref[0] == _B else None)
        inherited = frozenset(n for n, to in edges.items() if to == {n})
        hop = set(edges) - inherited
        for _ in edges:  # a rename chain longer than the names: a cycle
            hop = {to for n in hop for to in edges[n]
                   if to in edges and to not in inherited}
        if hop:
            raise _Ineligible("bindings permute across recursion levels")
        return inherited

    def _stage_root(self) -> None:
        """Stage the root frame: stage ``s + 1`` consumes the call sites
        of stage ``s``; each family's sites must share one stage."""
        root = self.root
        of_site: dict = {}

        def stage(ref):
            if ref[0] == _S:
                return root.ops[ref[1]].seg
            if ref[0] != _C:
                return 0
            if ref[1] not in of_site:
                of_site[ref[1]] = max(
                    map(stage, root.sites[ref[1]].bind.values()), default=0)
            return of_site[ref[1]] + 1

        for o in root.ops:  # scan order is a topological order
            o.seg = max(map(stage, o.inputs), default=0)
        self.stages = {}
        for i, site in enumerate(root.sites):
            at = stage((_C, i, 0)) - 1
            if self.stages.setdefault(site.family, at) != at:
                raise _Ineligible("root call sites depend on each other")
        if self.stages.get("grad", math.inf) <= self.stages["fwd"]:
            raise _Ineligible("root call sites depend on each other")

    def _segment(self, cls) -> None:
        """Split a class into its pre-call segment — what feeds a
        recursive call or a ``Cond`` predicate, scheduled top-down by
        depth — and its post-call segment (the rest, bottom-up by
        height); then Kahn-level each segment."""
        ops = cls.ops
        if cls.family != "root":
            for o in ops:
                o.seg = 1
            stack = [r for site in cls.sites for r in site.bind.values()]
            if cls.sites:
                stack += [check[0] for check in cls.checks]
            while stack:
                ref = stack.pop()
                if ref[0] == _C:
                    raise _Ineligible(
                        "call argument depends on a call result")
                if ref[0] == _S and ops[ref[1]].seg:
                    ops[ref[1]].seg = 0
                    stack += ops[ref[1]].inputs
        for o in ops:  # scan order is a topological order
            o.level = max([ops[r[1]].level + 1 for r in o.inputs
                           if r[0] == _S and ops[r[1]].seg == o.seg],
                          default=0)

    def _big(self, cls, ref):
        """Identity of the big invariant behind a ref (a feed, a weight:
        buckets split on it so one step shares the operand), else -1."""
        if ref[0] == _O:
            return ref if self._once_big[ref[1]] else -1
        if ref[0] == _S:
            return ref if cls.ops[ref[1]].defn is None else -1
        if ref[0] == _B and cls.family != "root" \
                and ref[1] in self.inherited[cls.family]:
            roots = {site.bind[ref[1]] for site in self.root.sites
                     if site.family == cls.family}
            if len(roots) == 1:
                return self._big(self.root, next(iter(roots)))
        return -1

    def _form_steps(self, cls) -> None:
        """Pre-bucket each level: ops sharing a batch-signature prefix,
        static input specs and big-invariant sources form one step."""
        n_seg = 1 + max([o.seg for o in cls.ops]
                        + ([1] if cls.family != "root" else
                           [s + 1 for s in self.stages.values()]))
        cls.segments = [[] for _ in range(n_seg)]
        cls.seg_stores = [[] for _ in range(n_seg)]
        groups: dict = {}
        static = dict(cls.counts)
        for opx, o in enumerate(cls.ops):
            booked = False
            if o.defn is None or o.prefix is None:
                key = opx
            elif o.defn is _ZEROS:
                key = o.prefix
            else:
                # ops sharing a stacked kernel differ only in attrs it
                # never reads (``batch_attrs`` are in the prefix); a row
                # loop runs each op's own scalar kernel
                spec = tuple((t.dtype, t.shape) for t in o.op.inputs)
                key = (o.prefix,
                       o.op if o.defn.stacked_kernel is None else
                       self._spec_ids.setdefault(spec, len(self._spec_ids)),
                       tuple(self._big(cls, r) for r in o.inputs))
                booked = True
                static[o.op.op_type] -= 1
            step = groups.get((o.seg, o.level, key))
            if step is None:
                step = groups[(o.seg, o.level, key)] = _TStep(
                    self._tsteps, o.defn, booked, [])
                self._tsteps += 1
                self._level(cls, o.seg, o.level)[booked].append(step)
            o.step, o.k = step, len(step.ops)
            step.ops.append(o)
        cls.static = tuple((t, n) for t, n in static.items() if n)
        first = 0 if cls.family == "root" or cls.sites else 1
        for ref, expected, name in cls.checks:
            o = cls.ops[ref[1]] if ref[0] == _S else None
            seg, level = (o.seg, o.level + 1) if o else (first, 0)
            self._level(cls, seg, level)[2].append((ref, expected, name))
        for store in cls.stores:
            ref = store[0]
            seg = (cls.ops[ref[1]].seg if ref[0] == _S
                   else 1 if ref[0] == _C else first)
            self._level(cls, seg, 0)
            cls.seg_stores[seg].append(store)

    @staticmethod
    def _level(cls, seg, level) -> tuple:
        levels = cls.segments[seg]
        while len(levels) <= level:
            levels.append(([], [], []))
        return levels[level]


def template_for(graph, root_plan, record: bool, subtree=None, stats=None):
    """The (memoized) :class:`Template` of one definition, or the reason
    string it is ineligible.  Memoized on ``graph._level_plans`` keyed by
    the root FramePlan object — dropped by graph mutation and by the
    op-registry version stamp (via :func:`plan_for`); a template also
    revalidates the identity of the body FramePlans it baked in, so
    ``set_cache_filter`` on a body graph recompiles."""
    templates = graph._level_plans.setdefault("templates", {})
    key = (root_plan, bool(record), subtree)
    entry = templates.get(key)
    if entry is not None and (isinstance(entry, str) or all(
            plan_for(g) is p for g, p in entry.body_deps)):
        return entry
    t0 = time.perf_counter()
    try:
        built = Template(graph, root_plan, bool(record), subtree)
    except _Ineligible as exc:
        built = exc.args[0]
    if stats is not None:
        stats.level_plan_compile_ms += (time.perf_counter() - t0) * 1e3
    with graph._lock:
        templates[key] = built
        if entry is not None:  # instantiations of the stale template
            graph._level_plans.pop("instances", None)
    return built


# ---------------------------------------------------------------------------
# linearisation: one walk per admitted profile
# ---------------------------------------------------------------------------

#: one run's profile as per-node lists in BFS order; node 0 is the run's
#: virtual root (the root frame), whose children are the trees;
#: ``max_depth`` is the deepest frame the run would spawn
_Lin = namedtuple("_Lin", "profiles c parent site depth height first tree "
                  "max_depth")


def linearise(tpl: Template, shape_profile):
    """Walk one run's profiles once: returns its :class:`_Lin`, or the
    reason string it cannot be instantiated (:data:`HOLES` when a
    subtree is undetermined — the caller runs a dynamic spine)."""
    try:
        profiles = tuple(shape_profile)
        hash(profiles)  # the instantiation memo keys on it
    except TypeError:
        return "profile is not a nested tuple"
    if len(profiles) != len(tpl.root_sites):
        return "profile count does not match root call sites"
    counts = tpl.fwd
    c, parent, site, depth, first, tree = [], [], [], [], [], []
    frontier = [(profiles, -1, 0)]
    d = -1
    try:
        while frontier:
            d += 1
            base = len(c) + len(frontier)
            nxt = []
            for p, par, s in frontier:
                if p is None:
                    return HOLES
                if d and len(p) not in counts:
                    return "profile child count does not match call sites"
                i = len(c)
                tree.append(i if d < 2 else tree[par])
                first.append(base + len(nxt))
                c.append(len(p))
                parent.append(par)
                site.append(s)
                depth.append(d)
                for j, child in enumerate(p):
                    nxt.append((child, i, j))
            frontier = nxt
    except TypeError:
        return "profile is not a nested tuple"
    height = [0] * len(c)
    for i in range(len(c) - 1, 0, -1):
        par = parent[i]
        if height[par] <= height[i]:
            height[par] = height[i] + 1
    return _Lin(profiles, c, parent, site, depth, height, first, tree,
                1 + (d - 1) * tpl.stride + tpl.depth_off)


# ---------------------------------------------------------------------------
# instantiation: index arithmetic over the linearised forest
# ---------------------------------------------------------------------------

class _Step:
    """Members of one level that execute as one columnar call.

    A step owns column group ``cid``: one column per output, member
    ``j`` of merged op ``k`` on row ``k * (m / ops) + j``.  ``inputs[p]``
    wires input ``p``: ``(cid, out, rows)`` when one producer feeds every
    member (``rows is None``: the column itself — same members, same
    order; a slice: a view of it; else an ``intp`` row index for one
    ``take``), otherwise
    ``(parts, perm)``: one such triple per producer, and the permutation
    that puts their concatenation into member order (``None`` when it
    already is).  ``once`` steps are invariants: their kernel runs once
    per sweep.  ``keys`` (stateful kernels only) addresses each member's
    frame — per merged op ``(runs, suffixes, record)`` — for its cache /
    accumulator key; ``okeys`` memoises the members' order keys, which
    are static while no run carries a key prefix.
    """

    __slots__ = ("cid", "defn", "op", "m", "keys", "okeys", "inputs",
                 "n_out", "once", "scratch", "prefix")

    def __init__(self, cid, defn, op, m, inputs, once=False, keys=None,
                 prefix=None):
        self.cid, self.defn, self.op, self.m = cid, defn, op, m
        self.inputs, self.once, self.keys, self.prefix = (inputs, once, keys,
                                                          prefix)
        self.okeys = None
        self.n_out = 1 if defn is _ZEROS else len(op.outputs)
        self.scratch = op.op_type not in _PERSISTENT_ALIAS_OPS


def _producers(spec):
    """The column groups a wired input reads."""
    return (spec[0],) if len(spec) == 3 else (p[0] for p in spec[0])


class _Pop:
    """The members of one class population — the virtual roots, or the
    nodes of one child count — grouped by depth (kind 0) and by height
    (kind 1): member lists, per-key counts, per-node ranks."""

    __slots__ = ("cnt", "rank", "start", "members")

    def __init__(self, nodes, keys, n):
        self.cnt, self.rank, self.start, self.members = [], [], [], []
        for key in keys:
            k = key[nodes]
            order = np.argsort(k, kind="stable")
            members = nodes[order]
            cnt = np.bincount(k, minlength=int(key.max()) + 2)
            start = np.concatenate(([0], np.cumsum(cnt)))
            rank = np.zeros(n, dtype=np.intp)
            rank[members] = np.arange(len(nodes)) - start[k[order]]
            self.cnt.append(cnt)
            self.rank.append(rank)
            self.start.append(start.tolist())
            self.members.append(members)

    def at(self, kind, key):
        start = self.start[kind]
        return self.members[kind][start[key]:start[key + 1]]


def _kind(cls, seg) -> int:
    """What keys a class segment's members: 0 depth (every root stage,
    pre-call segments), 1 height (post-call segments)."""
    return 1 if cls.family != "root" and seg else 0


class _Forest:
    """The linearised forest of one instantiation and the index
    arithmetic over it; lives only while :class:`LevelPlan` is built."""

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.bits, self.mask = tpl.out_bits, (1 << tpl.out_bits) - 1
        sizes = [len(lin.c) for lin in lins]
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        self.n_nodes = n = sum(sizes)

        def column(name, shift=False):
            return np.concatenate([
                np.asarray(getattr(lin, name), dtype=np.intp)
                + (off if shift else 0) for lin, off in zip(lins, offs)])

        self.C, self.S = column("c"), column("site")
        self.D, self.H = column("depth"), column("height")
        # a virtual root's parent (-1 + off) is never read
        self.P, self.F = column("parent", True), column("first", True)
        self.T = column("tree", True)
        self.R = np.repeat(np.arange(len(lins), dtype=np.intp), sizes)
        self._iota = np.arange(n * tpl.max_merge + 1, dtype=np.intp)
        keys = (self.D, self.H)
        self.pops = {c: _Pop(np.flatnonzero((self.C == c) & (self.D > 0)),
                             keys, n) for c in tpl.fwd}
        self.pops[None] = _Pop(offs.astype(np.intp), keys, n)
        self._resolved: dict = {}     # (class / family, ref) -> arrays
        self._keyed: dict = {}        # (class, frame, segment, key) -> keys
        self._suffixes = None
        # one column group per (template step, depth or height) that has
        # members; ids need not follow execution order
        self.step_m = step_m = [1] * (1 + len(tpl.once))
        self.cidtab: dict = {}
        for cls in tpl.classes:
            for seg, levels in enumerate(cls.segments):
                cnt = self.pops[cls.count].cnt[_kind(cls, seg)]
                present = np.flatnonzero(cnt)
                for scalars, buckets, _ in levels:
                    for ts in scalars + buckets:
                        tab = np.zeros(len(cnt), dtype=np.int64)
                        tab[present] = len(step_m) + self._iota[:len(present)]
                        self.cidtab[ts.index] = tab
                        step_m.extend((cnt[present] * len(ts.ops)).tolist())

    # -- symbolic refs -> (address, row) arrays ------------------------------

    def resolve(self, cls, ref):
        """Per node (valid on the members of ``cls``): the packed column
        address and the row holding ``ref``'s value."""
        key = (cls.family if ref[0] in (_B, _O) else cls.index, ref)
        hit = self._resolved.get(key)
        if hit is not None:
            return hit
        kind = ref[0]
        if kind == _S:
            o = cls.ops[ref[1]]
            pop, by = self.pops[cls.count], _kind(cls, o.seg)
            key_of = self.H if by else self.D
            addr = self.cidtab[o.step.index][key_of] << self.bits | ref[2]
            row = o.k * pop.cnt[by][key_of] + pop.rank[by]
        elif kind == _O:
            addr = np.full(self.n_nodes, ref[1] << self.bits | ref[2])
            row = np.zeros(self.n_nodes, dtype=np.intp)
        elif kind == _M:
            addr, row = self.resolve(cls.mirror, ref[1])
        elif kind == _B:
            addr, row = self._bound(cls.family, ref[1])
        else:
            addr, row = self._called(cls, cls.sites[ref[1]], ref[2])
        self._resolved[key] = addr, row
        return addr, row

    def family(self, name) -> list:
        return list(getattr(self.template, name).values())

    def _read(self, nodes, src, picks):
        """Per node: ``nodes[sel]`` holds what ``src[sel]`` holds for
        ``ref`` in ``cls``, over the ``(cls, ref, mask)`` picks."""
        addr = np.zeros(self.n_nodes, dtype=np.int64)
        row = np.zeros(self.n_nodes, dtype=np.intp)
        for cls, ref, mask in picks:
            sel = np.flatnonzero(mask)
            if len(sel):
                a, r = self.resolve(cls, ref)
                addr[nodes[sel]] = a[src[sel]]
                row[nodes[sel]] = r[src[sel]]
        return addr, row

    def _bound(self, family, name):
        """A bound placeholder: the parent's value at the call site —
        the tree root's call site for names passed down unchanged."""
        inherited = name in self.template.inherited[family]
        nodes = np.flatnonzero(self.D > 0)
        src = self.T[nodes] if inherited else nodes
        par = self.P[src]
        top, pc, ps = self.D[par] == 0, self.C[par], self.S[src]
        root = self.template.root
        return self._read(nodes, par, (
            (cls, site.bind[name], (ps == site.child)
             & (top if cls is root else ~top & (pc == cls.count)))
            for cls in ([root] if inherited else [root, *self.family(family)])
            for site in cls.sites if site.family == family))

    def _called(self, cls, site, j):
        """Output ``j`` of a recursive call site: the child frame's
        output, whichever class the child's own count selects."""
        at = self.pops[cls.count].members[0]
        child = self.F[at] + site.child
        cc = self.C[child]
        return self._read(at, child, ((u, u.outputs[j], cc == u.count)
                                      for u in self.family(site.family)))

    # -- input specs ---------------------------------------------------------

    def _wired(self, rows):
        """A row index as wired: a contiguous ascending run becomes a
        basic slice, so the operand is a view of the producer column
        instead of a copy (kernels never write their inputs)."""
        first, n = int(rows[0]), len(rows)
        if int(rows[-1]) - first == n - 1 and (
                n < 3 or (rows == self._iota[first:first + n]).all()):
            return slice(first, first + n)
        return rows

    def _pack(self, addr, rows):
        """Wire one input from its per-member addresses and rows."""
        first = int(addr[0])
        if int(addr[-1]) == first and (addr == first).all():
            cid, n = first >> self.bits, len(rows)
            if self.step_m[cid] == n and int(rows[0]) == 0 \
                    and (rows == self._iota[:n]).all():
                return cid, first & self.mask, None
            return cid, first & self.mask, self._wired(rows)
        order = np.argsort(addr, kind="stable")
        sa, sr = addr[order], rows[order]
        cuts = [0, *(np.flatnonzero(sa[1:] != sa[:-1]) + 1).tolist(),
                len(sa)]
        parts = tuple((int(sa[b]) >> self.bits, int(sa[b]) & self.mask,
                       self._wired(sr[b:e])) for b, e in zip(cuts, cuts[1:]))
        if (order[1:] > order[:-1]).all():
            return parts, None
        perm = np.empty(len(order), dtype=np.intp)
        perm[order] = self._iota[:len(order)]
        return parts, perm

    def spec(self, cls, refs, seg, key, mem):
        """Input spec of one (possibly merged) step input: ``refs[k]``
        is merged op ``k``'s source."""
        if len(refs) == 1:
            ref = refs[0]
            if ref[0] == _O:
                return ref[1], ref[2], None
            if ref[0] == _S:
                src = cls.ops[ref[1]]
                if src.seg == seg:  # same frame, same segment: an alias
                    cid, m = int(self.cidtab[src.step.index][key]), len(mem)
                    if len(src.step.ops) == 1:
                        return cid, ref[2], None
                    return cid, ref[2], slice(src.k * m, (src.k + 1) * m)
        pairs = [self.resolve(cls, ref) for ref in refs]
        return self._pack(np.concatenate([a[mem] for a, _ in pairs]),
                          np.concatenate([r[mem] for _, r in pairs]))

    def keys(self, cls, fi, seg, key, mem) -> tuple:
        """``(runs, suffixes, record)`` of frame ``fi`` of the members
        ``mem`` of one block — shared by every store and stateful step
        of that frame there.  Node suffixes are O(nodes) tuple
        concatenations along the parent chain — the one per-node Python
        loop, run only when something needs a key."""
        memo_key = (cls.index, fi, seg, key)
        got = self._keyed.get(memo_key)
        if got is not None:
            return got
        if self._suffixes is None:
            tpl = self.template
            paths = {c: [s.path for s in u.sites] for c, u in tpl.fwd.items()}
            roots = [s.path for s in tpl.root_sites]
            C, P, S = self.C.tolist(), self.P.tolist(), self.S.tolist()
            out = self._suffixes = [()] * self.n_nodes
            for n, d in enumerate(self.D.tolist()):
                if d:
                    p = P[n]
                    out[n] = (roots[S[n]] if d == 1
                              else out[p] + paths[C[p]][S[n]])
        base, frame = self._suffixes, cls.frames[fi]
        got = self._keyed[memo_key] = (
            self.R[mem].tolist(), [base[n] + frame.rel for n in mem.tolist()],
            frame.record)
        return got


class LevelPlan:
    """One instantiated forest: the columnar program of a sweep.

    ``program`` is the sweep — per level ``(checks, steps, bucket steps,
    stores, release)`` — and ``step_m`` the member count per column
    group.  A frame's key is its run's root key plus the node's suffix,
    which is exactly the dynamic ``child_key`` chain.  An instantiation
    keeps its program, not its forest.
    """

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.n_runs = len(lins)
        #: memoised accounting of one sweep: ``(sigs, RunStats delta)``
        self.booked = None
        forest = _Forest(tpl, lins)
        self.step_m = forest.step_m
        #: per program level, its block (one class segment at one depth
        #: or height): the key of ``RunStats.level_width_hist``
        self.hist_level = [0]
        #: [scalar members, bucket calls, bucket members]: what the cost
        #: model charges a sweep
        self.cost_terms = [len(tpl.once), 0, 0]
        program = [([], list(tpl.once), [], [])]
        last_use: dict = {}
        born: list = []
        root, block = tpl.root, 0
        forests = {stage: family for family, stage in tpl.stages.items()}
        tops = (int(forest.D.max()), int(forest.H.max()))
        #: (nodes, depth keys, height keys) of the forest
        self.shape = (forest.n_nodes, tops[0], tops[1] + 1)
        for stage in range(len(root.segments)):
            block += 1
            self._block(forest, program, last_use, born, root, stage, 0,
                        block)
            classes = forest.family(forests[stage]) if stage in forests \
                else ()
            for seg in (0, 1):  # top-down by depth, bottom-up by height
                for key in range(1 - seg, tops[seg] + 1):
                    block += 1
                    for cls in classes:
                        self._block(forest, program, last_use, born, cls,
                                    seg, key, block)
        # columns behind any root-frame value stay (fetch candidates):
        # per root op its (column, merge position), per call-site output
        # its per-run address
        self._root = [(int(forest.cidtab[o.step.index][0]), o.k)
                      for o in root.ops]
        self._fetch: dict = {}
        pinned = {cid for cid, _ in self._root}
        at = forest.pops[None].members[0]
        for ref in {r for f in root.frames for rs in f.refs for r in rs
                    if r[0] == _C}.union(tpl.fetch_refs):
            addr, row = forest.resolve(root, ref)
            cids = (addr[at] >> forest.bits).tolist()
            self._fetch[ref] = (cids, (addr[at] & forest.mask).tolist(),
                                row[at].tolist())
            pinned.update(cids)
        release = [[] for _ in program]
        for cid, li in born:
            if cid not in pinned:
                release[last_use.get(cid, li)].append(cid)
        self.program = tuple(
            (tuple(c), tuple(s), tuple(b), tuple(st), tuple(cids))
            for (c, s, b, st), cids in zip(program, release))
        #: per class its member count (accounting)
        self.members = [len(forest.pops[cls.count].members[0])
                        for cls in tpl.classes]

    def fetch_ref(self, ref, r: int) -> tuple:
        """The ``(cid, out, row)`` address of a root value for run ``r``."""
        if ref[0] == _S:
            cid, k = self._root[ref[1]]
            return cid, ref[2], k * self.n_runs + r
        if ref[0] == _O:
            return ref[1], ref[2], 0
        cids, outs, rows = self._fetch[ref]
        return cids[r], outs[r], rows[r]

    def _block(self, forest, program, last_use, born, cls, seg, key,
               block) -> None:
        """Instantiate one class segment for its members at one depth /
        height: steps, predicate checks, cache stores."""
        mem = forest.pops[cls.count].at(_kind(cls, seg), key)
        if not len(mem) or not cls.segments[seg]:
            return

        def wire(refs, li):
            spec = forest.spec(cls, refs, seg, key, mem)
            for cid in _producers(spec):
                last_use[cid] = li
            return spec

        for scalars, buckets, checks in cls.segments[seg]:
            li = len(program)
            level = ([], [], [], [])
            for ref, expected, name in checks:
                level[0].append((wire((ref,), li), expected, name,
                                 forest.R[mem]))
            for ts in scalars + buckets:
                ops = ts.ops
                first = ops[0]
                cid = int(forest.cidtab[ts.index][key])
                inputs = tuple(wire([o.inputs[p] for o in ops], li)
                               for p in range(len(first.inputs)))
                keys = None
                if ts.defn is not None and ts.defn.stateful:
                    keys = [forest.keys(cls, o.frame, seg, key, mem)
                            for o in ops]  # op-major, like the rows
                step = _Step(cid, ts.defn, first.op, len(mem) * len(ops),
                             inputs, keys=keys, prefix=first.prefix)
                born.append((cid, li))
                if ts.booked:
                    level[2].append(step)
                    self.cost_terms[1] += 1
                    self.cost_terms[2] += step.m
                else:
                    level[1].append(step)
                    self.cost_terms[0] += step.m
            program.append(level)
            self.hist_level.append(block)
        li = len(program) - 1
        for ref, fi, gid, oid, i in cls.seg_stores[seg]:
            runs, sufs, _ = forest.keys(cls, fi, seg, key, mem)
            program[li][3].append((wire((ref,), li), runs, sufs, gid, oid, i))


def instance_for(tpl: Template, lins, stats=None) -> "LevelPlan":
    """The instantiation of one forest — ``lins`` in run order.  A probe
    is one LRU lookup keyed by the profile tuple, a miss builds one
    :class:`LevelPlan`; the memo is LRU-bounded (``REPRO_LEVEL_PLAN_CAP``)
    and holds one-run forests only (a repeated ``Session.run`` batch, a
    lone request): a merged forest is keyed by the ordered profiles of
    all its runs, which a request stream does not repeat."""
    graph, stats = tpl.graph, stats or RunStats()
    instances = graph._level_plans.setdefault("instances", {})
    key = (tpl, lins[0].profiles) if len(lins) == 1 else None
    lp = instances.get(key)
    if lp is not None:
        stats.level_plan_cache_hits += 1
        with graph._lock:  # LRU touch: move to end
            instances[key] = instances.pop(key, lp)
        return lp
    stats.level_plan_cache_misses += 1
    t0 = time.perf_counter()
    lp = LevelPlan(tpl, lins)
    stats.level_plan_compile_ms += (time.perf_counter() - t0) * 1e3
    with graph._lock:
        if key is not None:
            instances[key] = lp
        while LEVEL_PLAN_CAP > 0 and len(instances) > LEVEL_PLAN_CAP:
            del instances[next(iter(instances))]
            stats.level_plan_evictions += 1
    return lp


def level_plan_for(graph, root_plan, shape_profile, record: bool,
                   stats=None, subtree=None) -> Optional["LevelPlan"]:
    """Template + linearise + instantiate for one run: the compiled
    program of ``shape_profile`` (per-root-call-site shape profiles in
    op-id order — ``TreeBatch.profiles`` for the tree models), or
    ``None`` when the definition or the profile is not compilable."""
    tpl = template_for(graph, root_plan, record, subtree, stats)
    lin = tpl if isinstance(tpl, str) else linearise(tpl, shape_profile)
    return None if isinstance(lin, str) else instance_for(tpl, [lin], stats)


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


def _take(col, rows):
    """Member ``rows`` of a producer column: a view for a slice."""
    if rows.__class__ is slice:
        return _as_column(col[rows]) if col.__class__ is list else col[rows]
    if col.__class__ is list:
        return _as_column([col[i] for i in rows])
    return col.take(rows, 0)


class _Sweep:
    """Mutable state of one wavefront sweep: the runs and their columns
    (``cols[cid][out]``: ndarray with rows on axis 0, a list of row
    values, or an :class:`_Inv`)."""

    __slots__ = ("core", "lp", "runs", "dead", "cols", "sigs", "ctx",
                 "bytes", "prefixed")

    def __init__(self, core, lp, runs):
        self.core = core
        self.lp = lp
        self.runs = runs
        #: per run: cancelled — its pure rows keep flowing (the index
        #: wiring is fixed), its stores, stateful rows, predicate checks
        #: and result are dropped
        self.dead = None
        self.cols = [None] * len(lp.step_m)
        self.cols[0] = [_Inv(np.bool_(True))]
        #: per column group, its call's member signature (bucket steps)
        self.sigs = [None] * len(lp.step_m)
        #: shared by every pure kernel; kernels that read ``ctx.frame``
        #: are stateful and get one context per row
        self.ctx = ExecContext(core.runtime, None, False)
        self.bytes = {} if core._track_live else None
        self.prefixed = any(run.prefix for run in runs)

    def refresh(self) -> bool:
        """Note runs cancelled since the last level; False when none is
        left to compute for."""
        if any(run.cancelled for run in self.runs):
            self.dead = np.array([run.cancelled for run in self.runs])
            return not self.dead.all()
        return True

    def operand(self, spec):
        """Gather one wired input: a column in member order."""
        cols = self.cols
        if len(spec) == 3:
            cid, out, rows = spec
            col = cols[cid][out]
            if col.__class__ is _Inv:
                return col
            if rows is None:
                return _as_column(col) if col.__class__ is list else col
            return _take(col, rows)
        parts, perm = spec
        pieces = []
        for cid, out, rows in parts:
            col = cols[cid][out]
            if col.__class__ is not _Inv:
                pieces.append(_take(col, rows))
                continue
            n = (rows.stop - rows.start if rows.__class__ is slice
                 else len(rows))
            if isinstance(col.value, (np.ndarray, np.generic)):
                pieces.append(np.broadcast_to(col.value,
                                              (n,) + col.value.shape))
            else:
                pieces.append([col.value] * n)
        first = pieces[0]
        if all(p.__class__ is np.ndarray and p.dtype == first.dtype
               and p.shape[1:] == first.shape[1:] for p in pieces):
            joined = np.concatenate(pieces)
            return joined if perm is None else joined.take(perm, 0)
        # producers disagree on member shape or dtype: a list column
        column = [v for p in pieces for v in p]
        return column if perm is None else [column[i] for i in perm]

    def keys(self, runs, sufs) -> list:
        """Full frame keys: each run's root key plus the frame suffix."""
        if not self.prefixed:
            return sufs
        prefixes = [run.prefix for run in self.runs]
        return [prefixes[r] + s for r, s in zip(runs, sufs)]

    def order_keys(self, step) -> list:
        """Per member of a keyed step, the order key its scalar kernel
        would pass on."""
        keys = step.okeys
        if keys is None:
            op_id = step.op.id
            keys = [order_key((key, op_id)) for runs, sufs, _ in step.keys
                    for key in self.keys(runs, sufs)]
            if not self.prefixed:
                step.okeys = keys
        return keys

    def contexts(self, step) -> list:
        """One kernel context per member of a stateful step."""
        runtime = self.core.runtime
        return [ExecContext(runtime, _CFrame(key, rec), rec)
                for runs, sufs, rec in step.keys
                for key in self.keys(runs, sufs)]


class _LevelCall:
    """One prepared kernel dispatch of a level.

    The master builds these (operand gather; order keys or per-row
    contexts for stateful kernels) so that *executing* one — the kernel
    invocation alone, in :func:`execute_level_call` — is free of shared
    mutable state and can run on a pool thread or be shipped to a worker
    process.  Column hand-over and live-bytes accounting happen back on
    the master in :func:`complete_level_call`, in original call order.
    """

    __slots__ = ("step", "operands", "inv", "stackable", "shared", "rows",
                 "ctx", "ctxs", "keys", "sig", "row_loop")

    #: duck-type marker: pool workers discriminate task payloads without
    #: importing this module at load time
    is_level_call = True

    def __init__(self, sweep, step):
        self.step = step
        self.rows = step.m
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
        self.ctxs = self.keys = None
        #: set by the execution: the step looped its scalar kernel
        self.row_loop = False
        if stateful and not step.once:
            if step.defn.keyed_kernel is not None and not any(inv):
                self.keys = sweep.order_keys(step)
            else:
                self.ctxs = sweep.contexts(step)

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
    invariant runs its scalar kernel once; a step with a stacked (or,
    stateful, a keyed) kernel and array columns is one columnar call;
    anything else (no columnar form, members disagreeing on shape, a
    kernel declining) loops the scalar kernel over rows.  EngineError
    passes through, any other error is wrapped with the offending op.
    """
    step = call.step
    defn, op = step.defn, step.op
    try:
        if call.shared:
            return [_Inv(v) for v in defn.kernel(op, call.operands, call.ctx)]
        if call.keys is not None:
            return defn.keyed_kernel(op, call.operands, call.keys, call.ctx)
        if call.stackable and defn.stacked_kernel is not None:
            outs = defn.stacked_kernel(op, call.operands, call.inv, call.ctx)
            if outs is not None:
                if len(outs) != step.n_out or len(outs[0]) != call.rows:
                    raise EngineError(
                        f"stacked kernel for {op.op_type} returned a "
                        f"malformed result for {call.rows} members")
                return outs
        call.row_loop = True
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
    if call.row_loop:
        loops = sweep.core.stats.level_row_loop_steps
        loops[step.op.op_type] = loops.get(step.op.op_type, 0) + 1
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


def _run_live_rows(sweep, step) -> None:
    """A stateful step while some runs are cancelled: only the live
    rows execute; cancelled rows inherit a live row's outputs (nothing
    of a cancelled run is ever stored, accumulated or returned)."""
    call = _LevelCall(sweep, step)
    live = np.flatnonzero(~sweep.dead[[r for runs, _, _ in step.keys
                                       for r in runs]])
    if len(live) == 0:
        sweep.cols[step.cid] = [_Inv(None)] * step.n_out
        return
    back = np.zeros(call.rows, dtype=np.intp)
    back[live] = np.arange(len(live))
    call.operands = [o if shared else _take(o, live)
                     for o, shared in zip(call.operands, call.inv)]
    if call.keys is not None:
        call.keys = [call.keys[i] for i in live]
    else:
        call.ctxs = [call.ctxs[i] for i in live]
    call.rows = len(live)
    complete_level_call(sweep, call, [
        col if col.__class__ is _Inv else _take(col, back)
        for col in execute_level_call(call)])


def _feed_column(sweep, step) -> list:
    try:
        values = [run.feed[step.op.id] for run in sweep.runs]
    except KeyError:
        raise EngineError(
            f"placeholder {step.op.name} was not fed") from None
    return columns_of([[v] for v in values], 1)


def _verify_predicates(sweep, check) -> None:
    """One vector compare per class per level: every ``Cond`` predicate
    against the branch the shape profile selected."""
    spec, expected, name, runs = check
    col = sweep.operand(spec)
    if col.__class__ is _Inv:
        wrong = np.full(len(runs), bool(np.asarray(col.value)) != expected)
    elif col.__class__ is list:
        wrong = np.array([bool(np.asarray(v)) for v in col]) != expected
    else:
        wrong = col.astype(bool).reshape(-1) != expected
    if sweep.dead is not None:
        wrong &= ~sweep.dead[runs]
    if wrong.any():
        raise EngineError(
            f"shape profile mismatch at {name}"
            ": the fed data disagrees with the compiled branch decision")


def _book(sweep) -> None:
    """Account one sweep's ops exactly like the dynamic tier counts
    them: every op of every frame once, whatever step executed it.

    The schedule is static, so the bookings are too once the member
    signatures are fixed: they are built once as a RunStats delta,
    memoised on the plan and merged per sweep (a sweep abandoned because
    every run was cancelled books nothing — best-effort stats under
    cancellation, like the dynamic path).
    """
    lp = sweep.lp
    sigs = tuple(sweep.sigs)
    if lp.booked is None or lp.booked[0] != sigs:
        delta, tpl = RunStats(), lp.template
        for cls, members in zip(tpl.classes, lp.members):
            for op_type, count in cls.static if members else ():
                delta.ops_executed += count * members
                delta.per_type_count[op_type] = (
                    delta.per_type_count.get(op_type, 0) + count * members)
                # note_op assumes a counted type also has a time entry
                delta.per_type_time.setdefault(op_type, 0.0)
        for level, block in zip(lp.program, lp.hist_level):
            for step in level[2]:
                op_type = step.op.op_type
                if step.m == 1:
                    delta.note_op(op_type, 0.0)
                else:
                    delta.note_batch(op_type, step.m, 0.0,
                                     step.prefix + (sigs[step.cid],))
                hist = delta.level_width_hist.setdefault(block, {})
                hist[step.m] = hist.get(step.m, 0) + 1
        lp.booked = (sigs, delta)
    sweep.core.stats.merge(lp.booked[1])


def execute_level_plan(core: SchedulerCore, lp: LevelPlan, runs) -> list:
    """Execute one wavefront sweep for ``runs`` — the forest ``lp`` was
    instantiated for, in the same order, of any mix of shapes.

    Returns one entry per run: the fetched values, or ``None`` for runs
    cancelled before or during the sweep.
    """
    sweep = _Sweep(core, lp, runs)
    cols = sweep.cols
    cache = core.runtime.cache
    done = True
    for li, (checks, steps, bucket_steps, stores, release) in enumerate(
            lp.program):
        # cancellation is polled every few levels: a cancelled run's
        # rows only stop mattering, they never have to stop flowing
        if not li & 7 and not sweep.refresh():
            done = False
            break
        for check in checks:
            _verify_predicates(sweep, check)
        for step in steps:
            if step.defn is None:
                cols[step.cid] = _feed_column(sweep, step)
            elif step.keys is not None and sweep.dead is not None:
                _run_live_rows(sweep, step)
            else:
                call = _LevelCall(sweep, step)
                complete_level_call(sweep, call, execute_level_call(call))
        if bucket_steps:
            core._execute_level_calls(
                lp, [_LevelCall(sweep, step) for step in bucket_steps], sweep)
        if stores:
            # one bulk store per class segment, after its last level —
            # compiled CacheLookups read the columns, never the cache
            entries = []
            for spec, srun, sufs, gid, oid, i in stores:
                col = sweep.operand(spec)
                values = ([col.value] * len(sufs) if col.__class__ is _Inv
                          else col)
                entries.extend(
                    (key, gid, oid, i, v) for key, v, r
                    in zip(sweep.keys(srun, sufs), values, srun)
                    if sweep.dead is None or not sweep.dead[r])
            cache.store_many(entries)
        for cid in release:
            cols[cid] = None
            if sweep.bytes is not None:
                core._live_bytes -= sweep.bytes.pop(cid, 0)
    if done:
        _book(sweep)
    if sweep.bytes is not None:
        core._live_bytes -= sum(sweep.bytes.values())
    results = []
    for r, run in enumerate(runs):
        if not done or run.cancelled:
            results.append(None)
            continue
        values = []
        for ref in run.fetch_refs:
            cid, out, row = lp.fetch_ref(ref, r)
            col = cols[cid][out]
            values.append(col.value if col.__class__ is _Inv else col[row])
        # root fetches leave the runtime dense; a subtree boundary hands
        # back raw values (incl. sparse IndexedSlices) exactly like the
        # dynamic finish_async
        results.append([densify(v) for v in values]
                       if run.densify_fetches else values)
    return results
