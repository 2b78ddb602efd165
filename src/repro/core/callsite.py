"""Call-site descriptors: the one definition of what a call does.

``Invoke``, ``Cond``, ``InvokeGrad`` and ``CondGrad`` each run one child
frame over a body SubGraph.  Everything about that call except the input
values is fixed once the op's targets are finalized (and, for gradient
sites, differentiated): the body per *role* — ``"main"``, or the branch
the predicate selects — the placeholder each input position binds, the
child frame's key suffix, and where each output of the call is read.
:func:`call_site` resolves it once per op.  The async starters execute a
descriptor (:func:`start_call`); the compiled tier's template
(:mod:`repro.runtime.level_plan`) reads the same descriptor with symbolic
refs in place of values, so both tiers bind, key and return alike by
construction.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

import numpy as np

from repro.core.cache import child_key
from repro.core.subgraph import SubGraph, SubGraphError
from repro.ops.common import role_captures
from repro.ops.tensor_array import zero_value_like

__all__ = ["Body", "CallSite", "call_site", "start_call"]

#: one role's target: the body SubGraph; ``binds``, one ``(placeholder
#: id, input position)`` pair per bound placeholder; and per call output
#: its ``(op id, out)`` in the child frame (``None``: a ``CondGrad``
#: capture of the other branch, whose gradient is a zero shaped like the
#: forward value)
Body = namedtuple("Body", "subgraph binds output_locs")

#: the completion flag a gradient site returns after its gradients
_DONE = np.bool_(True)


def _ready(sg: SubGraph, what: str) -> SubGraph:
    if not sg.finalized:
        raise SubGraphError(f"{what} is not finalized")
    return sg


def _backward(sg: SubGraph) -> SubGraph:
    if sg._grad_subgraph is None:
        raise SubGraphError("gradient body not built yet")
    return _ready(sg._grad_subgraph, "call target")


class CallSite:
    """The resolved call semantics of one call-site op.

    ``bodies`` maps each role to its :class:`Body`; a ``branching`` site
    (``Cond``, ``CondGrad``) picks its role by the predicate at input 0.
    ``suffix`` is the child frame's key suffix: the op id, or for a
    gradient site the forward site's, so a backward frame has its forward
    frame's key.  ``refs`` holds, per output of a ``CondGrad``, the input
    position of the forward value it is the gradient of; ``done`` marks
    the gradient sites, whose last output is a completion flag.
    """

    __slots__ = ("bodies", "branching", "suffix", "refs", "done")

    def __init__(self, op):
        attrs, kind = op.attrs, op.op_type
        self.suffix = attrs.get("site_id", op.id)
        self.branching = kind in ("Cond", "CondGrad")
        self.done = kind in ("InvokeGrad", "CondGrad")
        self.refs = ()
        if kind == "Invoke":
            # only the site's declared inputs bind (a recursive site may
            # predate later .input() declarations); captures follow
            n_args = attrs["n_args"]
            sg = _ready(attrs["subgraph"], "call target")
            self.bodies = {"main": Body(
                sg, tuple(zip(sg.input_op_ids[:n_args], range(n_args)))
                + role_captures(op, "main"), sg.output_locs)}
        elif kind == "Cond":
            self.bodies = {}
            for role in ("true", "false"):
                sg = _ready(attrs[f"{role}_subgraph"], "branch body")
                self.bodies[role] = Body(sg, role_captures(op, role),
                                         sg.output_locs)
        elif kind == "InvokeGrad":
            gsg = _backward(attrs["fwd_subgraph"])
            self.bodies = {"main": Body(gsg, tuple(zip(
                gsg.input_op_ids, range(len(op.inputs)))), gsg.output_locs)}
        else:  # CondGrad inputs: predicate, seeds, then the forward refs
            first, entries = 1 + attrs["n_seeds"], attrs["cap_entries"]
            if len(op.inputs) - first != len(entries):
                raise SubGraphError("capture entries out of sync")
            self.refs = tuple(range(first, len(op.inputs)))
            self.bodies = {}
            for role in ("true", "false"):
                sg = attrs[f"{role}_subgraph"]
                gsg = _backward(sg)
                # a branch has no declared inputs: its gradient slots
                # are its differentiable captures, in order
                slots = {sg.captures[index][1].op.id: loc for (_, index), loc
                         in zip(sg.differentiable_input_slots(),
                                gsg.output_locs)}
                self.bodies[role] = Body(
                    gsg, tuple(zip(gsg.input_op_ids, range(1, first))),
                    tuple(slots.get(ph) if r == role else None
                          for r, ph in entries))

    def bind(self, role: str, inputs) -> dict:
        """The child frame's bindings, placeholder id -> ``inputs[pos]``:
        values on the dynamic tier, symbolic refs in the template."""
        return {ph: inputs[pos] for ph, pos in self.bodies[role].binds}

    def start(self, scheduler, inst, inputs) -> None:
        """Spawn the child frame; its completion posts the call's outputs
        back to ``inst`` through ``scheduler.finish_async``."""
        role = (("true" if bool(np.asarray(inputs[0])) else "false")
                if self.branching else "main")
        body = self.bodies[role]
        # a CondGrad keeps its forward values for the other branch's zeros
        fwd = [inputs[pos] for pos in self.refs] if self.refs else None
        # a partial, not a closure: frames are cyclic garbage, and a
        # partial adds the fewest objects to every spawned frame
        scheduler.spawn_frame(body.subgraph, self.bind(role, inputs),
                              child_key(inst.frame.key, self.suffix),
                              inst.frame.depth + 1,
                              partial(self._finish, scheduler, inst,
                                      body.output_locs, fwd), inst)

    def _finish(self, scheduler, inst, locs, fwd, frame) -> None:
        if fwd is None:
            outputs = frame.values_at(locs)
        else:
            values, index_of = frame.values, frame.plan.index_of
            outputs = [zero_value_like(ref) if loc is None
                       else values[index_of[loc[0]]][loc[1]]
                       for loc, ref in zip(locs, fwd)]
        if self.done:
            outputs.append(_DONE)
        scheduler.finish_async(inst, outputs)


def call_site(op) -> CallSite:
    """``op``'s descriptor, built on first use and memoised on the op.

    Raises :class:`SubGraphError` with the reason the site cannot run
    yet (a target not finalized, a gradient body not built); nothing is
    memoised then.
    """
    site = op.attrs.get("_call_site")
    if site is None:
        site = op.attrs["_call_site"] = CallSite(op)
    return site


def start_call(scheduler, inst, inputs) -> None:
    """The async starter of every call-site op: execute its descriptor.
    ``scheduler`` is the executor (a SchedulerCore) on either clock."""
    call_site(inst.op).start(scheduler, inst, inputs)
