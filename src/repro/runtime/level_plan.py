"""Shape-generic level templates: the compiled fast path.

When the *shape* of a recursive input is known at admission
(``TreeBatch.profiles``) the dynamic runtime's discovery — a frame per
tree node, signature matching in the ready queue — is unnecessary.  The
paper's point is that a recursive *definition* gives the runtime the
relation between nodes instead of a per-input topological index; this
module takes it literally (ARCHITECTURE.md, "Two-tier dispatch", has the
full account):

**Template** — once per (root plan, record mode).  Every *frame class*
— the root frame, per recursive child count ``c`` the node body with
the ``Cond`` branch ``c`` selects and helper bodies inlined (``U_c``),
and its ``InvokeGrad`` / ``CondGrad`` mirror (``GU_c``) — is scanned
once into kernel ops with *symbolic* inputs; every call is bound, keyed
and returned by reading its op's call-site descriptor
(:mod:`repro.core.callsite`), the one the async starters execute.  Ops
split into a pre-call segment (feeds a recursive call or a ``Cond``
predicate) and a post-call segment, Kahn-levelled and pre-bucketed into
steps; the root frame is staged around its call sites.  Each class
segment is then a **block program**: its steps in Kahn order over local
*registers*, with every same-segment operand resolved once, here; what
crosses a block boundary is an *import* (wired per forest) or an
*export* (a column).
Ineligibility is a property of the definition, recorded once with its
reason.

**Instantiate** — per admitted forest (all runs flushed together, of
any shapes).  One linearisation walk per run yields per-node arrays;
members of a block are the nodes of its class at one depth (forward
pre-call, top-down) or one height (post-call, bottom-up; gradient
pre-call, by *descending* height — a parent is higher than its child —
so a backward block has the members, in the order, of the forward
post-call block it mirrors and reads that block's columns in place),
and every import spec is filled by numpy index arithmetic: Python work
is O(blocks) plus O(nodes) for frame-key suffixes — never O(nodes ×
body ops), nor O(template steps × depths).

**Sweep** — a fixed sequence of block dispatches: gather the imports,
run the stacked kernels back to back over registers (one array per step
output, members on axis 0), publish the exports as columns, hand
recorded columns to the value cache whole (``store_column``: deferred).
No frames are spawned, no signatures matched, no per-member Python runs.

Values, gradients, selective-cache entries and accumulator sums are
bit-identical to the dynamic path (same ``child_key`` frame keys, same
stateful-kernel contexts), and the sweep *verifies* every ``Cond``
predicate against the branch the profile selected.  Anything ineligible
— a profile with ``None`` holes included — falls back to the dynamic
coalescer for the whole root, counted by reason in
``RunStats.level_plan_fallback_reasons``.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import namedtuple
from typing import Optional

import numpy as np

from repro.core.callsite import call_site
from repro.core.subgraph import SubGraphError
from repro.graph.registry import ExecContext, OpDef
from repro.ops import tensor_array

from .plan import plan_for
from .plan import _PERSISTENT_ALIAS_OPS
from .scheduler import EngineError, SchedulerCore, _values_bytes, densify
from .stats import RunStats
from .variables import order_key

__all__ = ["LevelPlan", "Template", "template_for", "linearise",
           "instance_for", "level_plan_for", "execute_level_plan"]

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
#: reason: the profile has undetermined (``None``) subtrees — the whole
#: root then runs on the dynamic tier
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


class _TStep:
    """One kernel call of a block program: the same-signature ops of one
    level of a class segment, merged op-major (or one prologue
    invariant, or — ``defn is None`` — a root feed).

    Its outputs are registers ``reg .. reg + n_out - 1`` of the block.
    ``inputs[p]`` reads registers: ``(reg, k0, k1)`` is the whole
    register (``k0 is None``) or the rows of merged ops ``k0 .. k1 - 1``
    of it; ``(pieces, reg, None)`` concatenates several such reads
    (``reg``: the one register all of them read, else ``None``).
    ``xi`` is its export slot (-1: the value never leaves the block),
    ``checks`` the predicate checks that run right after it, ``last``
    the last level of the block that reads it.
    """

    __slots__ = ("defn", "op", "prefix", "booked", "level", "ops", "n_out",
                 "scratch", "reg", "xi", "inputs", "checks", "last")

    def __init__(self, defn, op, prefix, booked, level):
        self.defn, self.op, self.prefix = defn, op, prefix
        self.booked, self.level, self.last = booked, level, level
        self.ops: list = []
        self.n_out = 1 if defn is _ZEROS else len(op.outputs)
        self.scratch = op.op_type not in _PERSISTENT_ALIAS_OPS
        self.reg, self.xi, self.inputs, self.checks = 0, -1, (), ()


def _export(cls, ref) -> None:
    """Mark the step behind a value another block reads."""
    if ref[0] == _M:
        _export(cls.mirror, ref[1])
    elif ref[0] == _S:
        cls.ops[ref[1]].step.xi = 0


class _BlockProg:
    """One class segment (or the prologue) compiled: ``steps`` in Kahn
    order over the block's registers.  ``imports`` are the values that
    cross into the block — per import its refs, one per merged op —
    and ``exports`` the steps whose outputs leave it (read
    by another block, a mirror, a call site or a fetch); everything else
    lives and dies in a register."""

    def __init__(self, cls, seg, once=False):
        self.cls, self.seg, self.once = cls, seg, once
        self.steps: list = []
        self.feeds: list = []      # root placeholders: steps with no kernel
        #: per import ``[refs, last level reading it]``; import ``i`` is
        #: register ``n_regs - len(imports) + i`` (after every step's)
        self.imports: list = []
        self._import_of: dict = {}
        self.checks: list = []     # on imports, run on entry
        self.stores: list = []     # (source, frame, graph id, op id, out)
        self.exports: list = []
        self.frames: tuple = ()    # frames whose keys the block needs
        self.frees: dict = {}      # level -> registers dead after it
        self.n_regs = self.n_levels = 0
        #: [scalar ops, bucket steps, bucket ops] per member: cost terms
        self.terms = [0, 0, 0]

    def add(self, step) -> None:
        (self.feeds if step.defn is None else self.steps).append(step)
        self.n_levels = max(self.n_levels, step.level + 1)

    def source(self, refs, level):
        """Resolve one (possibly merged) operand read at ``level``:
        ``refs[k]`` is merged op ``k``'s source.  A value of this very
        segment is a register; anything else is imported."""
        cls = self.cls
        self.n_levels = max(self.n_levels, level + 1)
        reads: list = []  # [register, k0, k1, merged ops there] | import refs
        for ref in refs:
            o = cls.ops[ref[1]] if ref[0] == _S else None
            last = reads[-1] if reads else None
            if o is None or o.seg != self.seg:
                if last.__class__ is tuple:
                    reads[-1] = last + (ref,)
                else:
                    reads.append((ref,))
                continue
            step = o.step
            step.last = max(step.last, level)
            if (last.__class__ is list and last[0] == step.reg + ref[2]
                    and last[2] == o.k):
                last[2] += 1
            else:
                reads.append([step.reg + ref[2], o.k, o.k + 1,
                              len(step.ops)])
        reads = [[self._import(r, level), 0, len(r), len(r)]
                 if r.__class__ is tuple else r for r in reads]
        if len(reads) == 1:
            reg, k0, k1, n = reads[0]
            return (reg, None, None) if (k0, k1) == (0, n) else (reg, k0, k1)
        # every part reads one register: a shared value stays shared
        regs = {r[0] for r in reads}
        return (tuple(tuple(r[:3]) for r in reads),
                regs.pop() if len(regs) == 1 else None, None)

    def _import(self, refs, level) -> int:
        entry = self._import_of.get(refs)
        if entry is None:
            entry = self._import_of[refs] = [refs, level, self.n_regs]
            self.imports.append(entry)
            self.n_regs += 1
            for ref in refs:
                _export(self.cls, ref)
        entry[1] = max(entry[1], level)
        return entry[2]

    def finish(self) -> None:
        """Number the exports; derive what instantiation and the sweep
        read per block instead of per step."""
        self.exports = [st for st in self.feeds + self.steps if st.xi >= 0]
        frames = {store[1] for store in self.stores}
        for xi, st in enumerate(self.exports):
            st.xi = xi
        for st in self.feeds + self.steps:
            if st.booked:
                self.terms[1] += 1
                self.terms[2] += len(st.ops)
            else:
                self.terms[0] += len(st.ops)
            if st.defn is not None and st.defn.stateful:
                frames.update(o.frame for o in st.ops)
            if st.xi < 0 and st.scratch:
                self.frees.setdefault(st.last, []).append(st.reg)
        self.frames = tuple(sorted(frames))


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
        self.blocks: list = []    # per segment its :class:`_BlockProg`
        self.static: tuple = ()   # counts of ops outside bucket steps


class Template:
    """The compiled definition: frame classes with symbolic wiring."""

    def __init__(self, graph, root_plan, record):
        self.graph = graph
        self.record = record
        self.body_deps: dict = {}     # body graph -> FramePlan baked in
        #: the invariants, one block: step ``i`` owns column group 1 + i
        self.prologue = _BlockProg(None, 0, once=True)
        self.once = self.prologue.steps
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
        self._scan(root, root_plan, (), "root", None)
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
        for cls in self.classes:
            self._wire(cls)
        for prog in [self.prologue, *(p for cls in self.classes
                                      for p in cls.blocks)]:
            prog.finish()
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
        bodies = self._site(conds[0]).bodies
        tc, fc = (self._rec_sites(bodies[role].subgraph)
                  for role in ("true", "false"))
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
                prog, step = self.prologue, _TStep(defn, op, None, False, 0)
                step.reg, step.xi = prog.n_regs, len(self.once)
                step.inputs = tuple((self.once[r[1] - 1].reg + r[2], None,
                                     None) for r in in_refs)
                prog.n_regs += n_out
                prog.add(step)
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

    @staticmethod
    def _site(op):
        """``op``'s call-site descriptor; a site that cannot run yet makes
        the definition ineligible, for the reason it gives."""
        try:
            return call_site(op)
        except SubGraphError as exc:
            raise _Ineligible(str(exc)) from None

    def _inline(self, cls, frame, site, role, in_refs, mode) -> _SubFrame:
        """Inline the frame a non-recursive call spawns, bound like the
        starter binds it."""
        bindings = site.bind(role, in_refs)
        return self._scan(cls,
                          self._body_plan(site.bodies[role].subgraph.graph),
                          frame.rel + (site.suffix,), mode,
                          lambda o: bindings.get(o.id))

    def _call_Invoke(self, cls, frame, op, in_refs, mode) -> list:
        site = self._site(op)
        body = site.bodies["main"]
        if body.subgraph is not self.s_rec:
            child = self._inline(cls, frame, site, "main", in_refs, "helper")
            return list(self._values(child, body.output_locs))
        if mode in ("helper", "grad"):
            raise _Ineligible("recursive call outside the profiled structure")
        child = sum(1 for s in cls.sites if s.family == "fwd")
        cls.sites.append(_Site("fwd", child, frame.rel + (site.suffix,),
                               site.bind("main", in_refs)))
        return [(_C, len(cls.sites) - 1, j)
                for j in range(len(body.output_locs))]

    def _call_Cond(self, cls, frame, op, in_refs, mode) -> list:
        if mode != "node":
            raise _Ineligible("data-dependent control flow here")
        site = self._site(op)
        role = ("true" if self._rec_sites(site.bodies["true"].subgraph)
                == cls.count else "false")
        cls.cond_roles[(frame.rel, site.suffix)] = role
        cls.checks.append((in_refs[0], role == "true", op.name))
        child = self._inline(cls, frame, site, role, in_refs, "branch")
        return list(self._values(child, site.bodies[role].output_locs))

    def _grad_site(self, op, mode):
        if mode not in ("root", "grad"):
            raise _Ineligible("backward call in a forward body")
        return self._site(op)

    def _call_InvokeGrad(self, cls, frame, op, in_refs, mode) -> list:
        site = self._grad_site(op, mode)
        body = site.bodies["main"]
        # a backward body belongs to one forward body: s_rec's is the
        # mirror of a recursive call, any other one a helper's
        if body.subgraph is not self.s_rec._grad_subgraph:
            child = self._inline(cls, frame, site, "main", in_refs, "grad")
            return list(self._values(child, body.output_locs)) + [_DONE]
        # the mirror of the forward call site with the same key suffix
        path = frame.rel + (site.suffix,)
        sites = (self.root if cls.family == "root" else cls.mirror).sites
        mirrored = [s for s in sites if s.family == "fwd" and s.path == path]
        if not mirrored:
            raise _Ineligible("gradient call sites do not mirror the "
                              "forward recursion")
        if not self.grad:  # scan GU_c for every forward class, once
            plan = self._body_plan(body.subgraph.graph)
            for c, fwd_cls in self.fwd.items():
                self.grad[c] = self._new_class("grad", c, mirror=fwd_cls)
            for gcls in self.grad.values():
                top = self._scan(gcls, plan, (), "grad",
                                 lambda o: (_B, o.id))
                gcls.outputs = self._values(top, body.output_locs)
        cls.sites.append(_Site("grad", mirrored[0].child, path,
                               site.bind("main", in_refs)))
        return [(_C, len(cls.sites) - 1, j)
                for j in range(len(body.output_locs))] + [_DONE]

    def _call_CondGrad(self, cls, frame, op, in_refs, mode) -> list:
        site = self._grad_site(op, mode)
        role = (cls.mirror.cond_roles.get((frame.rel, site.suffix))
                if cls.mirror is not None else None)
        if role is None:
            raise _Ineligible("no compiled branch decision to mirror")
        child = self._inline(cls, frame, site, role, in_refs, "grad")
        fi = cls.frames.index(frame)
        outs = []
        for loc, pos in zip(site.bodies[role].output_locs, site.refs):
            if loc is not None:
                outs.append(child.refs[child.plan.index_of[loc[0]]][loc[1]])
            else:  # the other branch's capture: a zero gradient
                like = op.inputs[pos]
                outs.append((_S, self._add_op(
                    cls, op, _ZEROS, fi, (in_refs[pos],),
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
        """Pre-bucket each level — ops sharing a batch-signature prefix,
        static input specs and big-invariant sources form one step — and
        lay each segment's steps out in Kahn order (level by level,
        scalar steps first) over the registers of its block program."""
        n_seg = 1 + max([o.seg for o in cls.ops]
                        + ([1] if cls.family != "root" else
                           [s + 1 for s in self.stages.values()]))
        cls.blocks = [_BlockProg(cls, seg) for seg in range(n_seg)]
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
                    o.defn, o.op, o.prefix, booked, o.level)
                self._tsteps += 1
                cls.blocks[o.seg].add(step)
            o.step, o.k = step, len(step.ops)
            step.ops.append(o)
        cls.static = tuple((t, n) for t, n in static.items() if n)
        for prog in cls.blocks:
            prog.steps.sort(key=lambda st: (st.level, st.booked))
            for st in prog.feeds + prog.steps:
                st.reg, prog.n_regs = prog.n_regs, prog.n_regs + st.n_out
                if cls.family == "root":  # every root value: a fetch candidate
                    st.xi = 0

    def _wire(self, cls) -> None:
        """Resolve every operand, predicate check and cache store of a
        class against its block programs (all steps are formed: marking
        an export may reach into the mirror class)."""
        for ref in [*cls.outputs, *(r for site in cls.sites
                                    for r in site.bind.values())]:
            _export(cls, ref)
        for prog in cls.blocks:
            for st in prog.steps:
                st.inputs = tuple(
                    prog.source([o.inputs[p] for o in st.ops], st.level)
                    for p in range(len(st.ops[0].inputs)))
        first = 0 if cls.family == "root" or cls.sites else 1
        for ref, expected, name in cls.checks:
            if ref[0] == _S:  # right after its producer, inside the block
                o = cls.ops[ref[1]]
                o.step.checks += ((cls.blocks[o.seg].source(
                    (ref,), o.level + 1), expected, name),)
            else:
                prog = cls.blocks[first]
                prog.checks.append((prog.source((ref,), 0), expected, name))
        for ref, *store in cls.stores:  # ride the segment's last level
            prog = cls.blocks[cls.ops[ref[1]].seg if ref[0] == _S
                              else 1 if ref[0] == _C else first]
            prog.stores.append((prog.source(
                (ref,), max(prog.n_levels - 1, 0)), *store))


def template_for(graph, root_plan, record: bool, stats=None):
    """The (memoized) :class:`Template` of one definition, or the reason
    string it is ineligible.  Memoized on ``graph._level_plans`` keyed by
    the root FramePlan object — dropped by graph mutation and by the
    op-registry version stamp (via :func:`plan_for`); a template also
    revalidates the identity of the body FramePlans it baked in, so
    ``set_cache_filter`` on a body graph recompiles."""
    templates = graph._level_plans.setdefault("templates", {})
    key = (root_plan, bool(record))
    entry = templates.get(key)
    if entry is not None and (isinstance(entry, str) or all(
            plan_for(g) is p for g, p in entry.body_deps)):
        return entry
    t0 = time.perf_counter()
    try:
        built = Template(graph, root_plan, bool(record))
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
    subtree is undetermined)."""
    try:
        profiles = tuple(shape_profile)
        # the instantiation memo keys on it: a repeated batch finds its
        # walk there (read-only) instead of redoing it
        lp = tpl.graph._level_plans.get("instances", {}).get((tpl, profiles))
    except TypeError:
        return "profile is not a nested tuple"
    if lp is not None:
        return lp.lin
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

class _Block:
    """One block program instantiated for its members — the nodes of its
    class at one depth or height (:func:`_kind`), in node order: the unit
    of dispatch of a sweep.

    Export slot ``xi`` of the program owns column group ``base + xi``:
    one column per output, member ``j`` of merged op ``k`` on row
    ``k * m + j``.  ``imports[i]`` wires the program's import ``i``:
    ``(cid, out, rows)`` when one producer feeds every member (``rows is
    None``: the column itself — same members, same order; a slice: a
    view of it; else an ``intp`` row index for one ``take``), otherwise
    ``(parts, perm)``: one such triple per producer — per merged op, in
    op order, when each reads one column — and the permutation that puts
    their concatenation into member order (``None`` when it already
    is).  ``keys[frame]`` addresses the members' frames —
    ``(runs, suffixes, record)`` — for cache and accumulator keys;
    ``okeys`` memoises per keyed step the members' order keys, which are
    static while no run carries a key prefix.  ``release`` lists the
    column groups whose last reader is this block, by level; ``memo``
    the member signatures of its steps under the import signature they
    were computed for.
    """

    __slots__ = ("prog", "m", "seq", "hist", "base", "imports", "keys",
                 "runs", "release", "okeys", "memo")

    def __init__(self, prog, m, seq, hist, base, imports=(), keys=None,
                 runs=None):
        self.prog, self.m, self.seq, self.hist = prog, m, seq, hist
        self.base, self.imports, self.keys, self.runs = (base, imports, keys,
                                                         runs)
        self.release: list = []
        self.okeys: dict = {}
        self.memo = None


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
    forward pre-call segments), 1 height (post-call segments; both
    segments of a gradient class, whose blocks thereby have the members,
    in the order, of the forward post-call blocks they mirror)."""
    return 1 if cls.family == "grad" or (seg and cls.family == "fwd") else 0


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
        # one column group per (exported step, depth or height) that has
        # members, a block's exports adjacent; ids need not follow
        # execution order
        self.step_m = step_m = [1] * (1 + len(tpl.once))
        self.base: dict = {}          # (class, segment) -> first cid by key
        for cls in tpl.classes:
            for prog in cls.blocks:
                cnt = self.pops[cls.count].cnt[_kind(cls, prog.seg)]
                present = np.flatnonzero(cnt)
                widths = np.array([len(st.ops) for st in prog.exports],
                                  dtype=np.intp)
                tab = np.zeros(len(cnt), dtype=np.int64)
                tab[present] = (len(step_m)
                                + self._iota[:len(present)] * len(widths))
                self.base[cls.index, prog.seg] = tab
                step_m.extend(np.multiply.outer(cnt[present],
                                                widths).ravel().tolist())

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
            assert o.step.xi >= 0, "a block-local value read across blocks"
            addr = (self.base[cls.index, o.seg][key_of] + o.step.xi
                    << self.bits | ref[2])
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

    def spec(self, cls, refs, mem):
        """Wire one import of a block: ``refs[k]`` is merged op ``k``'s
        source."""
        if len(refs) == 1 and refs[0][0] == _O:
            return refs[0][1], refs[0][2], None
        pairs = [(a[mem], r[mem]) for a, r in (self.resolve(cls, ref)
                                               for ref in refs)]
        heads = [int(a[0]) for a, _ in pairs]
        if len(set(heads)) > 1 and all((a == h).all()
                                       for (a, _), h in zip(pairs, heads)):
            # each merged op reads one producer column: parts in op order
            return tuple((h >> self.bits, h & self.mask, self._wired(r))
                         for (_, r), h in zip(pairs, heads)), None
        return self._pack(np.concatenate([a for a, _ in pairs]),
                          np.concatenate([r for _, r in pairs]))

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
    """One instantiated forest: the block program of a sweep.

    ``program`` is the sweep — per level the :class:`_Block`s of one
    depth or height, one per class with members there, independent of
    each other — and ``step_m`` the member count per column group.  A
    frame's key is its run's root key plus the node's suffix, which is
    exactly the dynamic ``child_key`` chain.  An instantiation keeps its
    program, not its forest (a one-run forest also its read-only
    linearisation: the memo probe hands it back instead of a re-walk).
    """

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.n_runs = len(lins)
        self.lin = lins[0] if len(lins) == 1 else None
        #: memoised accounting of one sweep: ``(sigs, RunStats delta)``
        self.booked = None
        forest = _Forest(tpl, lins)
        self.step_m = forest.step_m
        #: [scalar members, bucket calls, bucket members]: what the cost
        #: model charges a sweep
        self.cost_terms = [len(tpl.once), 0, 0]
        prologue = _Block(tpl.prologue, 1, 0, 0, 1)
        program = [(prologue,)]
        self.n_blocks = 1
        #: per column group the (block, level) that reads it last: while
        #: nobody outside its block does, the block's own last read
        born = [(1 + i, (prologue, 0)) for i in range(len(tpl.once))]
        last_use: dict = {}
        root, hist = tpl.root, 0
        forests = {stage: family for family, stage in tpl.stages.items()}
        tops = (int(forest.D.max()), int(forest.H.max()))
        #: (nodes, depth keys, height keys) of the forest
        self.shape = (forest.n_nodes, tops[0], tops[1] + 1)
        for stage in range(len(root.blocks)):
            hist += 1
            self._level(forest, program, last_use, born, (root,), stage, 0,
                        hist)
            family = forests.get(stage)
            classes = forest.family(family) if family else ()
            # pre-call top-down: by depth, gradients by descending height
            # (a parent is higher than its child); post-call bottom-up
            down = (range(tops[1], -1, -1) if family == "grad"
                    else range(1, tops[0] + 1))
            for seg, keys in ((0, down), (1, range(tops[1] + 1))):
                for key in keys:
                    hist += 1
                    self._level(forest, program, last_use, born, classes,
                                seg, key, hist)
        # columns behind any root-frame value stay (fetch candidates):
        # per root op its (column, merge position), per call-site output
        # its per-run address
        self._root = [(int(forest.base[root.index, o.seg][0]) + o.step.xi,
                       o.k) for o in root.ops]
        self._fetch: dict = {}
        pinned = {cid for cid, _ in self._root}
        at = forest.pops[None].members[0]
        for ref in {r for f in root.frames for rs in f.refs for r in rs
                    if r[0] == _C}:
            addr, row = forest.resolve(root, ref)
            cids = (addr[at] >> forest.bits).tolist()
            self._fetch[ref] = (cids, (addr[at] & forest.mask).tolist(),
                                row[at].tolist())
            pinned.update(cids)
        for cid, at in born:
            if cid not in pinned:
                blk, level = last_use.get(cid, at)
                blk.release.append((level, cid))
        self.program = tuple(program)
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

    def _level(self, forest, program, last_use, born, classes, seg, key,
               hist) -> None:
        """Instantiate one program level: per class with members at this
        depth / height its block — imports wired, export columns
        allocated, frame keys addressed.  O(imports + exports) each."""
        level = []
        for cls in classes:
            prog = cls.blocks[seg]
            mem = forest.pops[cls.count].at(_kind(cls, seg), key)
            if not len(mem) or not prog.n_levels:
                continue
            m = len(mem)
            blk = _Block(
                prog, m, self.n_blocks, hist,
                int(forest.base[cls.index, seg][key]),
                tuple(forest.spec(cls, refs, mem)
                      for refs, _, _ in prog.imports),
                {fi: forest.keys(cls, fi, seg, key, mem)
                 for fi in prog.frames},
                forest.R[mem] if cls.checks else None)
            self.n_blocks += 1
            for spec, (_, at, _) in zip(blk.imports, prog.imports):
                for cid in _producers(spec):
                    seen = last_use.get(cid)
                    if seen is None or seen[0] is not blk or seen[1] < at:
                        last_use[cid] = blk, at
            born.extend((blk.base + st.xi, (blk, st.last))
                        for st in prog.exports)
            scalars, calls, members = prog.terms
            self.cost_terms[0] += scalars * m
            self.cost_terms[1] += calls
            self.cost_terms[2] += members * m
            level.append(blk)
        if level:
            program.append(tuple(level))


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
                   stats=None) -> Optional["LevelPlan"]:
    """Template + linearise + instantiate for one run: the compiled
    program of ``shape_profile`` (per-root-call-site shape profiles in
    op-id order — ``TreeBatch.profiles`` for the tree models), or
    ``None`` when the definition or the profile is not compilable."""
    tpl = template_for(graph, root_plan, record, stats)
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


class _Rag:
    """A column whose rows agree on dtype and rank but not on shape (the
    per-run feeds of a merged forest): one flat ``values`` array and per
    row its start ``off`` and its ``shape`` (an ``[n, rank]`` array).
    Selecting rows is index arithmetic on ``off`` and ``shape``; the one
    consumer that reads it in place is ``Gather`` on axis 0
    (:func:`_rag_gather`), every other reader gets :meth:`rows`."""

    __slots__ = ("values", "off", "shape")

    def __init__(self, values, off, shape):
        self.values, self.off, self.shape = values, off, shape

    @property
    def nbytes(self) -> int:
        """The rows' bytes, as a list column of them would count."""
        return int(self.shape.prod(1).sum()) * self.values.itemsize

    def rows(self) -> list:
        """The row values: views of ``values``."""
        return [self[i] for i in range(len(self.off))]

    def __getitem__(self, rows):
        """One row's value (a view) for an ``int``, else the selected
        rows."""
        if rows.__class__ is int:
            o, s = int(self.off[rows]), tuple(self.shape[rows].tolist())
            return self.values[o:o + math.prod(s)].reshape(s)
        return _rag_column(self.values, self.off[rows], self.shape[rows])


def _rag_column(values, off, shape):
    """Rows of ``values`` as a :class:`_Rag` — or, once every row has one
    shape, as an array column through one fancy index."""
    if not shape.shape[1]:   # scalar rows
        return values[off]
    first = shape[0]
    if not (shape == first).all():
        return _Rag(values, off, shape)
    first = tuple(first.tolist())
    return values[off[:, None] + np.arange(math.prod(first))].reshape(
        (len(off),) + first)


def _feed_column(values: list):
    """The column of one feed over a forest's runs: shared, stacked, or
    ragged when the runs' arrays agree on dtype and rank only."""
    first = values[0]
    if all(v is first for v in values):
        return _Inv(first)
    if not (first.__class__ is np.ndarray and first.ndim and all(
            v.__class__ is np.ndarray and v.dtype == first.dtype
            and v.ndim == first.ndim for v in values)) \
            or all(v.shape == first.shape for v in values):
        return _as_column(values)
    off = np.array([0, *itertools.accumulate(v.size for v in values)],
                   dtype=np.intp)[:-1]
    return _Rag(np.concatenate([v.reshape(-1) for v in values]), off,
                np.array([v.shape for v in values], dtype=np.intp))


def _rag_gather(params, idx, shared):
    """``Gather`` on axis 0 of ragged ``params``: each row is
    ``np.take(params_r, idx_r, axis=0)`` for one integer index per row
    (``shared``: one for all), as offsets into the same values.  None
    when an index shape is not that, or an index is out of range: the
    row loop then raises the scalar kernel's own error."""
    idx, shape = np.asarray(idx), params.shape
    rank = shape.shape[1]
    if (idx.ndim != (0 if shared else 1) or idx.dtype.kind not in "iu"
            or idx.dtype == np.uint64 or not rank):
        return None
    n = shape[:, 0]
    if shared:
        i, lo = int(idx), int(n.min())
        if not -lo <= i < lo:
            return None
        idx = i if i >= 0 else i + n
    else:
        if idx.min() < 0:
            idx = np.where(idx < 0, idx + n, idx)
        if idx.min() < 0 or (idx >= n).any():
            return None
    if rank == 1:   # scalar rows
        return params.values[params.off + idx]
    inner = shape[:, 1:]
    return _rag_column(params.values, params.off + idx * (
        inner[:, 0] if rank == 2 else inner.prod(1)), inner)


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
    """Per-member output lists (a row loop) as columns."""
    cols = []
    for j in range(n_out):
        values = [outputs[j] for outputs in results]
        first = values[0]
        cols.append(_Inv(first) if all(v is first for v in values)
                    else _as_column(values))
    return cols


def _take(col, rows):
    """Member ``rows`` of a producer column: a view for a slice, offset
    arithmetic for a ragged column."""
    if rows.__class__ is slice:
        return _as_column(col[rows]) if col.__class__ is list else col[rows]
    if col.__class__ is list:
        return _as_column([col[i] for i in rows])
    if col.__class__ is _Rag:
        return col[rows]
    return col.take(rows, 0)


def _rows(value, n: int):
    """``n`` rows of one shared value: an invariant part of a merged
    operand, filled directly (never a Python-level broadcast + copy)."""
    if isinstance(value, (np.ndarray, np.generic)):
        piece = np.empty((n,) + value.shape, value.dtype)
        piece[...] = value
        return piece
    return [value] * n


def _join(pieces: list, perm=None):
    """Concatenate the parts of one operand into member order."""
    first = pieces[0]
    if all(p.__class__ is np.ndarray and p.dtype == first.dtype
           and p.shape[1:] == first.shape[1:] for p in pieces):
        joined = np.concatenate(pieces)
        return joined if perm is None else joined.take(perm, 0)
    if first.__class__ is _Rag and all(
            p.__class__ is _Rag and p.values.dtype == first.values.dtype
            and p.shape.shape[1] == first.shape.shape[1] for p in pieces):
        joined = _join_ragged(pieces)
        return joined if perm is None else joined[perm]
    # producers disagree on member shape or dtype: a list column
    column = [v for p in pieces for v in _rows_of(p)]
    return column if perm is None else [column[i] for i in perm]


def _join_ragged(pieces):
    """Ragged pieces of one dtype and row rank as one column: their
    offsets shifted into one values array — the pieces' own when they
    all share it."""
    shape = np.concatenate([p.shape for p in pieces])
    values = pieces[0].values
    if all(p.values is values for p in pieces):
        return _rag_column(values, np.concatenate([p.off for p in pieces]),
                       shape)
    base = itertools.accumulate((p.values.size for p in pieces[:-1]),
                                initial=0)
    return _rag_column(np.concatenate([p.values for p in pieces]),
                   np.concatenate([p.off + b for p, b in zip(pieces, base)]),
                   shape)


def _rows_of(col):
    """A column's row values to iterate: a ragged column's rows."""
    return col.rows() if col.__class__ is _Rag else col


def _member_sig(operands, inv) -> tuple:
    """Members' dtype + shape per input of one step: what the dynamic
    coalescer would have bucketed on."""
    return tuple(
        (o.dtype.num, o.shape if shared else o.shape[1:])
        if o.__class__ is np.ndarray
        else (-1, o.dtype.num) if shared and isinstance(o, np.generic)
        else None for o, shared in zip(operands, inv))


def _signature(col):
    """What a block's step signatures depend on, per imported column
    (``None``: not derivable from dtype and shape — a list column)."""
    if col.__class__ is np.ndarray:
        return col.dtype.num, col.shape
    value = col.value if col.__class__ is _Inv else None
    if isinstance(value, (np.ndarray, np.generic)):
        return -1, value.dtype.num, value.shape
    return None


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
        #: per block, the member signatures of its steps
        self.sigs = [None] * lp.n_blocks
        #: shared by every pure kernel; kernels that read ``ctx.frame``
        #: are stateful and get one context per row
        self.ctx = ExecContext(core.runtime, None, False)
        self.bytes = {} if core._track_live else None
        self.prefixed = any(run.prefix for run in runs)

    def refresh(self) -> bool:
        """Note runs cancelled since the last poll; False when none is
        left to compute for."""
        if any(run.cancelled for run in self.runs):
            self.dead = np.array([run.cancelled for run in self.runs])
            return not self.dead.all()
        return True

    def operand(self, spec):
        """Gather one wired import: a column in member order."""
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
            if col.__class__ is _Inv:
                pieces.append(_rows(col.value, (
                    rows.stop - rows.start if rows.__class__ is slice
                    else len(rows))))
            else:
                pieces.append(_take(col, rows))
        return _join(pieces, perm)

    def keys(self, runs, sufs) -> list:
        """Full frame keys: each run's root key plus the frame suffix."""
        if not self.prefixed:
            return sufs
        prefixes = [run.prefix for run in self.runs]
        return [prefixes[r] + s for r, s in zip(runs, sufs)]


class _BlockCall:
    """One dispatch of a sweep: a block with its imports gathered into
    registers.  The calls of one level are all built before any of them
    executes; :meth:`execute` runs every kernel of the block back to
    back over the call's own registers."""

    __slots__ = ("sweep", "blk", "regs", "key", "sigs", "live")

    def __init__(self, sweep, blk):
        self.sweep, self.blk = sweep, blk
        prog = blk.prog
        # the imports' registers follow the steps'
        imports = [sweep.operand(spec) for spec in blk.imports]
        self.regs = regs = [None] * (prog.n_regs - len(imports)) + imports
        self.live = {}
        key = [_signature(col) for col in imports]
        for st in prog.feeds:
            outs = sweep.cols[blk.base + st.xi] = self._feed(st.op)
            regs[st.reg] = outs[0]
            key.append(_signature(outs[0]))
        #: member signatures depend on the imports' dtypes and shapes
        #: only: recomputed when those change, else the block's memo
        self.key = None if None in key else tuple(key)
        memo = blk.memo
        self.sigs = (memo[1] if memo is not None and memo[0] == self.key
                     else None)

    def _feed(self, op) -> list:
        try:
            values = [run.feed[op.id] for run in self.sweep.runs]
        except KeyError:
            raise EngineError(f"placeholder {op.name} was not fed") from None
        return [_feed_column(values)]

    def read(self, src, part=False):
        """One register read outside the kernel loop: a check, a store,
        a concatenated operand (whose ``part``s materialise a shared
        value's rows)."""
        reg, k0, k1 = src
        m = self.blk.m
        if reg.__class__ is tuple:
            if k0 is not None and self.regs[k0].__class__ is _Inv:
                return self.regs[k0]
            return _join([self.read(piece, True) for piece in reg])
        col = self.regs[reg]
        if col.__class__ is _Inv:
            return _rows(col.value, (k1 - k0) * m) if part else col
        if k0 is None:
            return _as_column(col) if col.__class__ is list else col
        return _take(col, slice(k0 * m, k1 * m))

    def execute(self) -> None:
        """Run the block.  A step whose operands are all shared runs its
        scalar kernel once; one with a stacked (or, stateful, a keyed)
        kernel and array operands is one columnar call; anything else
        (no columnar form, members disagreeing on shape, a kernel
        declining) loops the scalar kernel over rows.  EngineError
        passes through, any other error is wrapped with the offending
        op — never the block.  Then publishes the member signatures and
        drops the columns nobody reads again."""
        sweep, blk, regs = self.sweep, self.blk, self.regs
        prog, m, cols = blk.prog, blk.m, sweep.cols
        ctx, once = sweep.ctx, prog.once
        track = sweep.bytes is not None
        sigs = [] if self.sigs is None else None
        level = 0
        for check in prog.checks:
            self._verify(*check)
        op = None
        try:
            for st in prog.steps:
                defn, op = st.defn, st.op
                operands, inv, stackable, ragged = [], [], True, False
                for reg, k0, k1 in st.inputs:
                    if reg.__class__ is tuple:
                        o, k0 = self.read((reg, k0, k1)), None
                    else:
                        o = regs[reg]
                    if o.__class__ is np.ndarray:
                        inv.append(False)
                        operands.append(o if k0 is None
                                        else o[k0 * m:k1 * m])
                        continue
                    if o.__class__ is _Inv:
                        o = o.value
                        inv.append(True)
                        if not (o.__class__ is np.ndarray
                                or isinstance(o, np.generic)):
                            stackable = False
                    elif o.__class__ is _Rag:
                        o = o if k0 is None else o[k0 * m:k1 * m]
                        inv.append(False)
                        ragged = ragged or o.__class__ is _Rag
                    else:  # rows that disagree on shape: a list column
                        o = _as_column(o if k0 is None else o[k0 * m:k1 * m])
                        inv.append(False)
                        stackable = o.__class__ is np.ndarray and stackable
                    operands.append(o)
                if track and st.level != level:
                    self._release(level, st.level)
                    level = st.level
                if ragged:
                    outs = self._ragged_step(st, operands, inv)
                elif once or not (defn.stateful or False in inv):
                    outs = [_Inv(v) for v in defn.kernel(op, operands, ctx)]
                elif defn.stateful:
                    outs = self._stateful(st, operands, inv, stackable)
                else:
                    kernel = defn.stacked_kernel if stackable else None
                    outs = (None if kernel is None
                            else kernel(op, operands, tuple(inv), ctx))
                    if outs is None:
                        outs = self._loop(st, operands, inv, None)
                    elif (len(outs) != st.n_out
                          or len(outs[0]) != m * len(st.ops)):
                        raise EngineError(
                            f"stacked kernel for {op.op_type} returned a "
                            f"malformed result for {m * len(st.ops)} members")
                if st.n_out == 1:
                    regs[st.reg] = outs[0]
                else:
                    regs[st.reg:st.reg + st.n_out] = outs
                if st.xi >= 0:
                    cols[blk.base + st.xi] = outs
                if sigs is not None:
                    sigs.append(_member_sig(operands, inv))
                if track and st.scratch:
                    self._book(st, outs)
                for check in st.checks:
                    self._verify(*check)
        except EngineError:
            raise
        except Exception as exc:  # noqa: BLE001 - wrapped like the dynamic path
            raise SchedulerCore._wrap_error(exc, op) from exc
        if sigs is not None:
            self.sigs = tuple(sigs)
        sweep.sigs[blk.seq] = self.sigs
        if self.key is not None and (blk.memo is None
                                     or blk.memo[1] is not self.sigs):
            blk.memo = self.key, self.sigs
        if prog.stores:
            # recorded columns are handed over whole, before their
            # registers die: compiled CacheLookups read the columns, and
            # the cache splits one into rows only if somebody looks
            store, dead = sweep.core.runtime.cache.store_column, sweep.dead
            for src, fi, gid, oid, i in prog.stores:
                runs, sufs, _ = blk.keys[fi]
                keys, col = sweep.keys(runs, sufs), _rows_of(self.read(src))
                shared = col.__class__ is _Inv
                if dead is not None:
                    live = np.flatnonzero(~dead[runs])
                    keys = [keys[j] for j in live]
                    col = col if shared else _take(col, live)
                store(keys, gid, oid, i, col.value if shared else col, shared)
        if track:
            self._release(level, prog.n_levels)
        else:
            for _, cid in blk.release:
                cols[cid] = None

    def _ragged_step(self, st, operands, inv) -> list:
        """A step with ragged operands: ``Gather`` on axis 0 reads its
        ragged params in place; anything else — another op, an index
        :func:`_rag_gather` declines — gets the rows as list columns and
        loops over them like any list column."""
        params = operands[0]
        if st.op.op_type == "Gather" and params.__class__ is _Rag \
                and operands[1].__class__ is not _Rag:
            out = _rag_gather(params, operands[1], inv[1])
            if out is not None:
                return [out]
        rows = [_rows_of(o) for o in operands]
        if st.defn.stateful:
            return self._stateful(st, rows, inv, False)
        return self._loop(st, rows, inv, None)

    def _loop(self, st, operands, inv, ctxs) -> list:
        """The single fallback: the scalar kernel over rows (``ctxs``:
        per-row contexts of a stateful step, else the shared one)."""
        loops = self.sweep.core.stats.level_row_loop_steps
        loops[st.op.op_type] = loops.get(st.op.op_type, 0) + 1
        rows = len(ctxs) if ctxs else self.blk.m * len(st.ops)
        members = (zip(*([o] * rows if shared else o
                         for o, shared in zip(operands, inv)))
                   if operands else [()] * rows)
        return columns_of([st.defn.kernel(st.op, list(ins), ctx) for ins, ctx
                           in zip(members, ctxs or [self.sweep.ctx] * rows)],
                          st.n_out)

    def _stateful(self, st, operands, inv, stackable) -> list:
        """A stateful step: members' order keys for the keyed entry,
        else one frame-keyed context per row.  While some runs are
        cancelled only the live rows execute; cancelled rows inherit a
        live row's outputs (nothing of a cancelled run is ever stored,
        accumulated or returned)."""
        sweep, blk, defn = self.sweep, self.blk, st.defn
        frames = [blk.keys[o.frame] for o in st.ops]  # op-major, like rows
        keyed = defn.keyed_kernel is not None and True not in inv
        if keyed:
            keys = blk.okeys.get(st.reg)
            if keys is None:
                op_id = st.op.id
                keys = [order_key((key, op_id)) for runs, sufs, _ in frames
                        for key in sweep.keys(runs, sufs)]
                if not sweep.prefixed:
                    blk.okeys[st.reg] = keys
        else:
            runtime = sweep.core.runtime
            keys = [ExecContext(runtime, _CFrame(key, rec), rec)
                    for runs, sufs, rec in frames
                    for key in sweep.keys(runs, sufs)]
        back = None
        if sweep.dead is not None:
            live = np.flatnonzero(~sweep.dead[[r for runs, _, _ in frames
                                               for r in runs]])
            if len(live) == 0:
                return [_Inv(None)] * st.n_out
            back = np.zeros(len(keys), dtype=np.intp)
            back[live] = np.arange(len(live))
            operands = [o if shared else _take(o, live)
                        for o, shared in zip(operands, inv)]
            keys = [keys[i] for i in live]
        outs = None
        if keyed:
            outs = defn.keyed_kernel(st.op, operands, keys, sweep.ctx)
        elif stackable and defn.stacked_kernel is not None:
            outs = defn.stacked_kernel(st.op, operands, tuple(inv), sweep.ctx)
        if outs is None:
            outs = self._loop(st, operands, inv, keys)
        if back is None:
            return outs
        return [col if col.__class__ is _Inv else _take(col, back)
                for col in outs]

    def _verify(self, src, expected, name) -> None:
        """One vector compare per class per block: a ``Cond`` predicate
        against the branch the shape profile selected."""
        col, runs, dead = self.read(src), self.blk.runs, self.sweep.dead
        if col.__class__ is _Inv:
            wrong = np.full(len(runs), bool(np.asarray(col.value)) != expected)
        elif col.__class__ is list or col.__class__ is _Rag:
            wrong = np.array([bool(np.asarray(v))
                              for v in _rows_of(col)]) != expected
        else:
            wrong = col.astype(bool).reshape(-1) != expected
        if dead is not None:
            wrong &= ~dead[runs]
        if wrong.any():
            raise EngineError(
                f"shape profile mismatch at {name}"
                ": the fed data disagrees with the compiled branch decision")

    def _book(self, st, outs) -> None:
        """Live-bytes accounting: a step's outputs, as they are born."""
        added = sum(_values_bytes(col) if col.__class__ is list
                    else getattr(col, "nbytes", 0) for col in outs)
        if st.xi >= 0:
            self.sweep.bytes[self.blk.base + st.xi] = added
        else:
            self.live[st.reg] = added
        core = self.sweep.core
        peak = (core._live_bytes + added
                + core.runtime.accumulators.retained_bytes)
        core._live_bytes += added
        if peak > core.stats.peak_live_bytes:
            core.stats.peak_live_bytes = peak

    def _release(self, lo: int, hi: int) -> None:
        """Live-bytes accounting: what died at levels ``lo .. hi - 1`` —
        registers last read there, columns whose last reader sat there."""
        sweep, blk = self.sweep, self.blk
        freed = sum(self.live.pop(reg, 0) for level in range(lo, hi)
                    for reg in blk.prog.frees.get(level, ()))
        for level, cid in blk.release:
            if lo <= level < hi:
                sweep.cols[cid] = None
                freed += sweep.bytes.pop(cid, 0)
        sweep.core._live_bytes -= freed


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
        for blk in (blk for level in lp.program for blk in level):
            prog = blk.prog
            delta.level_blocks += 1
            delta.level_kernel_calls += len(prog.steps) + len(prog.feeds)
            for st, sig in zip(prog.steps, sigs[blk.seq]):
                if not st.booked:
                    continue
                op_type, width = st.op.op_type, blk.m * len(st.ops)
                if width == 1:
                    delta.note_op(op_type, 0.0)
                else:
                    delta.note_batch(op_type, width, 0.0, st.prefix + (sig,))
                hist = delta.level_width_hist.setdefault(blk.hist, {})
                hist[width] = hist.get(width, 0) + 1
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
    done = True
    for li, level in enumerate(lp.program):
        # cancellation is polled every few blocks: a cancelled run's
        # rows only stop mattering, they never have to stop flowing
        if not li & 3 and not sweep.refresh():
            done = False
            break
        for call in [_BlockCall(sweep, blk) for blk in level]:
            call.execute()
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
            # root fetches leave the runtime dense
            values.append(densify(col.value if col.__class__ is _Inv
                                  else col[row]))
        results.append(values)
    return results
