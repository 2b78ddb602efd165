"""Template: every frame class scanned once, per (root plan, record
mode).

Every *frame class* — the root frame, per recursive child count ``c``
the node body with the ``Cond`` branch ``c`` selects and helper bodies
inlined (``U_c``), and its ``InvokeGrad`` / ``CondGrad`` mirror
(``GU_c``) — is scanned once into kernel ops with *symbolic* inputs;
every call is bound, keyed and returned by reading its op's call-site
descriptor (:mod:`repro.core.callsite`), the one the async starters
execute.  Ops split into a pre-call segment (feeds a recursive call or
a ``Cond`` predicate) and a post-call segment, Kahn-levelled and
pre-bucketed into steps; the root frame is staged around its call
sites.  Each class segment is then a block program
(:mod:`.block`), checked as it is finished.  Then every import of every
class segment is wired from the definition alone
(:meth:`Template._wire_imports`): its kind, the columns each slab
joins, and the resolver states that find a forest's producers by rank
(:class:`_Resolver`) — so that a forest only computes rows.
Ineligibility is a property of the definition, recorded once with its
reason.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

import numpy as np

from repro.core.callsite import call_site
from repro.core.subgraph import SubGraphError

from ..plan import _PERSISTENT_ALIAS_OPS, plan_for
from .block import (_B, _C, _COL, _DONE, _INV, _M, _O, _ONE, _S, _SLAB,
                    _ZEROS, _BlockProg, _export, _Ineligible, _TStep, check)


def _address(col) -> tuple:
    """Sort key of a slab column in address order: invariants first."""
    return (col[0] is not None, col[0] or 0, col[1] or 0, *col[2:])


def _statically_big(op) -> bool:
    """True unless every output is statically known to be tiny: a tiny
    invariant is cheaper to materialise per member than to split a
    bucket on (the per-tree ``Const`` batch index, a gather position)."""
    return any(t.shape is None or None in t.shape or math.prod(t.shape) > 64
               for t in op.outputs)


class _Resolver:
    """How a forest finds every value a block reads from outside its own
    key (:func:`.wiring.rows`), as flat tables over *states* — a ref of
    one class, evaluated at some node.  A state either stands on its
    value — a column of the node's block or an invariant — or it hops
    (``hop``: 1 to the node's parent, 2 to its run's virtual root,
    ``3 + j`` to its child ``j``) and continues as ``next[state * ni +
    population * ns + site]`` of the node reached (site: which child of
    its parent the node is, which tree of its run); a state that stands
    hops 0 and continues as itself.  There, per state: the key kind of
    its column's blocks (``kind``; 2 for an invariant: no key), its
    program (``prog``; the zero row past the last for an invariant), the
    row of its (key kind, population) counts (``cq``), its export and
    out (``xo``; an invariant's whole address) and merged op (``k``)."""

    def __init__(self, states, ni, ns, n_pops, progs):
        self.ni, self.ns = ni, ns
        self.hop = np.array([hop for hop, _ in states], dtype=np.intp)
        self.next = np.repeat(np.arange(len(states)), ni)
        leaves = np.zeros((4, len(states)), dtype=np.int64)
        leaves[0] = len(progs)
        for sid, (hop, got) in enumerate(states):
            if hop:
                for index, to in got.items():
                    self.next[sid * ni + index] = to
            elif got[3]:    # a column; an invariant keeps its address
                leaves[:, sid] = got
            else:
                leaves[1, sid] = got[1]
        self.prog, self.xo, self.k = leaves[:3]
        kinds = np.array([kind for kind, _ in progs] + [2], dtype=np.intp)
        self.kind = kinds[self.prog]
        self.cq = np.array([kind * n_pops + pop for kind, pop in progs]
                           + [0], dtype=np.intp)[self.prog]


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
        #: per (block program, member count) one block's accounting
        #: (:func:`.sweep._book`)
        self.tallies: dict = {}
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
            check(prog)
        #: frame levels per recursion level, and below the deepest node
        self.stride = 1 + max([len(s.path) - 1 for cls in self.fwd.values()
                               for s in cls.sites], default=0)
        self.depth_off = max(len(f.rel) for cls in self.classes
                             if cls.family != "root" for f in cls.frames)
        #: most ops any one step merges (sizes the shared index ramp)
        self.max_merge = max([len(o.step.ops) for cls in self.classes
                              for o in cls.ops], default=1)
        #: most children a node or the root frame calls
        self.max_count = max([len(self.root_sites), *self.fwd])
        #: per child count its population (a forest's virtual roots are
        #: the last, whatever their count)
        self.pop_of = np.zeros(self.max_count + 1, dtype=np.intp)
        self.pop_of[list(self.fwd)] = range(len(self.fwd))
        #: levels of the longest block program: orders reads by (block,
        #: level) as one integer
        self.levels = 1 + max(prog.n_levels for cls in self.classes
                              for prog in cls.blocks)
        self.n_progs = sum(len(cls.blocks) for cls in self.classes)
        #: per slab the columns it joins, as :meth:`_wire_imports` lays
        #: them out; per (merged refs, members) a static import's rows
        self.slabs = self._wire_imports()
        self.rows: dict = {}
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

    # -- import wiring -------------------------------------------------------

    def _state(self, cls, ref) -> int:
        """The resolver state of ``ref`` read in a frame of ``cls``
        (:class:`_Resolver`), numbered with every state it leads to:
        ``(0, (program id, export << out_bits | out, merged op, 1))`` a
        step's output, ``(0, (0, address, 0, 0))`` an invariant, else
        ``(hop, {population * ns + site: state})`` — a bound name's
        value is the parent's binding (every call passing it down: the
        run's), a call's the child's output, a mirrored value the
        forward frame's at the same node."""
        while ref[0] == _M:
            cls, ref = cls.mirror, ref[1]
        key = (cls.family if ref[0] in (_B, _O) else cls.index, ref)
        sid = self._state_of.get(key)
        if sid is not None:
            return sid
        states, pop, ns = self._states, self._pop, self._ns
        sid = self._state_of[key] = len(states)
        states.append(None)
        kind, table = ref[0], {}
        if kind == _O:
            states[sid] = (0, (0, ref[1] << self.out_bits | ref[2], 0, 0))
            return sid
        if kind == _S:
            o = cls.ops[ref[1]]
            states[sid] = (0, (cls.blocks[o.seg].pid,
                               o.step.xi << self.out_bits | ref[2], o.k, 1))
            return sid
        if kind == _C:
            site = cls.sites[ref[1]]
            hop = 3 + site.child
            for u in getattr(self, site.family).values():
                table[pop[u.count] * ns] = self._state(u, u.outputs[ref[2]])
        else:
            family = cls.family
            inherited = ref[1] in self.inherited[family]
            hop = 2 if inherited else 1
            for u in [self.root] + ([] if inherited else list(
                    getattr(self, family).values())):
                for site in u.sites:
                    if site.family == family:
                        table[pop[u.count] * ns + site.child] = self._state(
                            u, site.bind[ref[1]])
        states[sid] = (hop, table)
        return sid

    def _origins(self, sid, hops=()) -> set:
        """Every column state ``sid`` can end on, for a member ``hops``
        away from it ("p" its parent, "P" its parent the virtual root,
        "r" its run's virtual root, "c" a child): ``(column, hops,
        kind)`` triples.  A column is ``(class index, segment, export,
        out)``, an invariant ``(None, None, cid, out)``; ``kind`` keys
        the producer's blocks (None: one block whatever the member — an
        invariant, a root column)."""
        hop, got = self._states[sid]
        if not hop:
            pid, xo, _, column = got
            col = xo >> self.out_bits, xo & ((1 << self.out_bits) - 1)
            if not column:
                return {((None, None, *col), hops, None)}
            prog = self._progs[pid]
            return {((prog.cls.index, prog.seg, *col), hops,
                     None if prog.cls.family == "root" else prog.kind)}
        out = set()
        for index, to in got.items():
            step = ("r" if hop == 2 else "c" if hop > 2 else
                    "P" if index // self._ns == self._pop[None] else "p")
            out |= self._origins(to, hops + (step,))
        return out

    def _wire_imports(self) -> list:
        """Decide every (class, segment, import)'s wiring once, from the
        definition alone — ``prog.wiring[i]`` for import ``i``:

        * ``(_INV, cid, out)`` — one invariant, shared;
        * ``(_COL, class, segment, export, out, ks, n)`` — one column of
          the member's own key (or the root's): merged op ``k`` reads
          producer op ``ks[k]`` of ``n``, member ``j`` on row ``ks[k] *
          m + j`` — an alias, a slice or a take by ``m`` alone;
        * ``(_ONE,)`` — one producer block per consumer block, which one
          and its rows by rank: the root's column, or (depth-keyed) the
          parent's depth;
        * ``(_SLAB, q, keyed)`` — several producers: the read of slab
          ``q``.

        Slabs join the columns their imports read, transitively; a slab
        is ``(keyed, groups)``: ``groups`` its ``(class index, segment,
        [(export, out)...])`` column groups (class index None:
        invariants, ``(cid, out)`` pairs) in address order, so per forest
        its rows lie block by block.  A slab every reader of which reads
        columns of its own key only is ``keyed``: one slab per key, each
        dying after its own key's reads."""
        self._progs = [prog for cls in self.classes for prog in cls.blocks]
        for pid, prog in enumerate(self._progs):
            prog.pid = pid
        self._pop = {c: i for i, c in enumerate(self.fwd)}
        self._pop[None] = len(self.fwd)
        self._ns = max(self.max_count, 1)
        self._states: list = []
        self._state_of: dict = {}
        head: dict = {}

        def find(col):
            while head[col] != col:
                head[col] = head[head[col]]
                col = head[col]
            return col

        slabbed, unkeyed = [], set()
        for cls in self.classes:
            for prog in cls.blocks:
                prog.wiring = [self._decide(cls, prog, refs)
                               for refs, _, _ in prog.imports]
                for i, wired in enumerate(prog.wiring):
                    if wired[0] == _SLAB:
                        cols = sorted(wired[1], key=_address)
                        slabbed.append((prog, i, cols[0]))
                        if not wired[2]:
                            unkeyed.add(cols[0])
                        for col in cols:
                            head.setdefault(col, col)
                            head[find(col)] = find(cols[0])
        groups: dict = {}
        for col in sorted(head, key=_address):
            groups.setdefault(find(col), []).append(col)
        unkeyed = {find(col) for col in unkeyed}
        slabs, of = [], {}
        for cols in sorted(groups.values(), key=lambda g: _address(g[0])):
            of[find(cols[0])] = len(slabs)
            slab = []
            for col in cols:
                if not slab or slab[-1][:2] != col[:2]:
                    slab.append((col[0], col[1], []))
                slab[-1][2].append(col[2:])
            slabs.append((find(cols[0]) not in unkeyed, slab))
        for prog, i, col in slabbed:
            q = of[find(col)]
            prog.wiring[i] = (_SLAB, q, slabs[q][0])
        self.resolver = self._resolver()
        return slabs

    def _decide(self, cls, prog, refs) -> tuple:
        """The wiring of one import (:meth:`_wire_imports`)."""
        if len(refs) == 1 and refs[0][0] == _O:
            return (_INV, refs[0][1], refs[0][2])
        sids = [self._state(cls, ref) for ref in refs]
        origins = set()
        for sid in sids:
            origins |= self._origins(sid)
        cols = {col for col, _, _ in origins}
        if len(cols) == 1 and all(
                not hops and (kind == prog.kind or kind is None
                              and col[0] is not None and cls.family == "root")
                for col, hops, kind in origins):
            col, = cols
            return (_COL, *col, tuple(self._states[sid][1][2] for sid in sids),
                    self.classes[col[0]].blocks[col[1]].widths[col[2]])
        # one block for every member of a key: an invariant or root
        # column; the member's own key; the parent's depth (below the
        # first depth, whose parent is the virtual root)
        scopes: dict = {}
        for col, hops, kind in origins:
            if kind is None:   # below a parent: only past the first depth
                scope = hops[0] if hops[:1] in (("P",), ("p",)) else "all"
            elif hops == () and kind == prog.kind:
                scope = "all"
            elif hops == ("p",) and kind == 0 == prog.kind:
                scope = "p"
            else:
                return (_SLAB, cols, False)
            scopes.setdefault(scope, set()).add(col)
        every = scopes.get("all", set())
        parts = ((scopes.get("P", set()), scopes.get("p", set()))
                 if prog.kind == 0 else
                 (scopes.get("P", set()) | scopes.get("p", set()),))
        if all(len(every | part) <= 1 for part in parts):
            return (_ONE,)
        return (_SLAB, cols, set(scopes) == {"all"} and all(
            kind is not None for _, _, kind in origins))

    def _resolver(self) -> "_Resolver":
        """The resolver of every ref a forest resolves — each ``_ONE`` or
        ``_SLAB`` import's (``prog.refs``, their states
        ``prog.resolved``), then the root's call-site outputs (the
        fetches, ``self.fetched``)."""
        for prog in self._progs:
            prog.refs = [ref for (refs, _, _), w in zip(prog.imports,
                                                        prog.wiring)
                         if w[0] >= _ONE for ref in refs]
            prog.resolved = [self._state(prog.cls, ref) for ref in prog.refs]
        self.fetches = list({r: None for f in self.root.frames
                             for rs in f.refs for r in rs if r[0] == _C})
        self.fetched = [self._state(self.root, ref) for ref in self.fetches]
        return _Resolver(self._states, self._ns * len(self._pop), self._ns,
                         len(self._pop), [(prog.kind, self._pop[prog.cls.count])
                                          for prog in self._progs])


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

