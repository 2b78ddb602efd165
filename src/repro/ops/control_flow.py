"""Embedded control flow: conditionals and iterative loops.

These are the control-flow constructs of embedded-control-flow frameworks
(paper Section 2.1): a ``Cond`` operation lazily executes exactly one of
two branch SubGraphs based on a runtime predicate, and a ``Loop``
operation repeatedly executes a body SubGraph while a condition SubGraph
returns true.  Both reuse the frame machinery that powers InvokeOp, so all
control flow in this framework is expressed as "an operation abstracting
the execution of a SubGraph" — recursion (InvokeOp) is the general case,
as the paper argues.

The gradient operations (``CondGrad``, ``LoopGrad``) re-derive the forward
frame keys structurally and read forward activations from the backprop
value cache.  A backward loop runs its gradient-body frames in reverse
iteration order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.cache import child_key
from repro.core.callsite import start_call
from repro.core.subgraph import SubGraph, SubGraphError
from repro.graph import dtypes
from repro.graph.graph import get_default_graph
from repro.graph.registry import register_op
from repro.graph.tensor import Tensor

from .common import build, convert, role_captures

__all__ = ["cond", "while_loop"]


def _as_tuple(value) -> tuple:
    if isinstance(value, (tuple, list)):
        return tuple(value)
    return (value,)


def _branch_bindings(op, inputs, role: str) -> dict:
    return {placeholder_id: inputs[position]
            for placeholder_id, position in role_captures(op, role)}


# -- cond ----------------------------------------------------------------------


def _cond_infer(op):
    return list(op.attrs["true_subgraph"].output_specs)


# the starter executes the op's call-site descriptor (repro.core.callsite)
register_op("Cond", infer=_cond_infer, is_async=True, starter=start_call,
            cost="cond")


def cond(pred, true_fn: Callable, false_fn: Callable,
         name: str = "cond"):
    """Execute ``true_fn()``'s graph if ``pred`` else ``false_fn()``'s.

    Unlike :func:`repro.ops.select`, only the chosen branch is executed.
    Both branch functions take no arguments and communicate with the
    enclosing graph through outer references (automatic captures).  They
    must produce the same number of outputs with matching dtypes.
    """
    true_sg = SubGraph(f"{name}_true")
    with true_sg:
        true_sg.output(*_as_tuple(true_fn()))
    false_sg = SubGraph(f"{name}_false")
    with false_sg:
        false_sg.output(*_as_tuple(false_fn()))
    t_specs, f_specs = true_sg.output_specs, false_sg.output_specs
    if len(t_specs) != len(f_specs):
        raise SubGraphError(
            f"cond branches disagree on output count: {len(t_specs)} vs "
            f"{len(f_specs)}")
    for i, ((td, _), (fd, _)) in enumerate(zip(t_specs, f_specs)):
        if td != fd:
            raise SubGraphError(
                f"cond branches disagree on output {i} dtype: "
                f"{td.name} vs {fd.name}")
    attrs = {"true_subgraph": true_sg, "false_subgraph": false_sg,
             "capture_map": []}
    outputs = build("Cond", [pred], attrs, name=name)
    op = outputs[0].op
    if not op.inputs[0].dtype.is_bool:
        raise SubGraphError("cond predicate must be a bool tensor")
    true_sg.register_site(op, "true")
    false_sg.register_site(op, "false")
    if len(outputs) == 1:
        return outputs[0]
    return tuple(outputs)


# -- while loop ------------------------------------------------------------------


def _loop_infer(op):
    return list(op.attrs["body_subgraph"].output_specs)


def _loop_starter(scheduler, inst, inputs):
    op = inst.op
    n_vars = op.attrs["n_vars"]
    cond_sg: SubGraph = op.attrs["cond_subgraph"]
    body_sg: SubGraph = op.attrs["body_subgraph"]
    max_iters = op.attrs.get("max_iters", 1_000_000)
    cond_captures = _branch_bindings(op, inputs, "cond")
    body_captures = _branch_bindings(op, inputs, "body")
    state = {"i": 0, "vars": list(inputs[:n_vars])}
    parent_key = inst.frame.key
    depth = inst.frame.depth + 1
    step_overhead = scheduler.cost_model.loop_step_overhead(n_vars)

    def run_cond():
        bindings = dict(cond_captures)
        bindings.update(zip(cond_sg.input_op_ids, state["vars"]))
        key = child_key(parent_key, (op.id, state["i"], "cond"))
        scheduler.spawn_frame(cond_sg, bindings, key, depth, cond_done, inst)

    def cond_done(frame):
        keep_going = bool(np.asarray(
            frame.value_of(cond_sg.output_tensors[0])))
        if keep_going:
            if state["i"] >= max_iters:
                raise RuntimeError(
                    f"while_loop {op.name} exceeded max_iters={max_iters}")
            scheduler.post_continuation(step_overhead, run_body)
        else:
            if scheduler.record:
                scheduler.runtime.cache.store_meta((parent_key, op.id),
                                                state["i"])
            scheduler.finish_async(inst, list(state["vars"]))

    def run_body():
        bindings = dict(body_captures)
        bindings.update(zip(body_sg.input_op_ids, state["vars"]))
        key = child_key(parent_key, (op.id, state["i"]))
        scheduler.spawn_frame(body_sg, bindings, key, depth, body_done, inst)

    def body_done(frame):
        state["vars"] = [frame.value_of(t) for t in body_sg.output_tensors]
        state["i"] += 1
        run_cond()

    run_cond()


register_op("Loop", infer=_loop_infer, is_async=True, starter=_loop_starter,
            cost="loop")


def while_loop(cond_fn: Callable, body_fn: Callable, loop_vars: Sequence,
               name: str = "while", max_iters: int = 1_000_000):
    """Iteratively run ``body_fn`` while ``cond_fn`` holds.

    ``cond_fn(*vars) -> bool tensor`` and ``body_fn(*vars) -> new vars``
    receive one placeholder per loop variable.  Returns the final loop
    variables (a tuple, or a single tensor for one variable).
    """
    graph = get_default_graph()
    with graph.as_default():
        init_vars = [convert(v) for v in loop_vars]
    specs = [(v.dtype, v.shape) for v in init_vars]

    cond_sg = SubGraph(f"{name}_cond")
    with cond_sg:
        placeholders = [cond_sg.input(d, s, name=f"var{i}")
                        for i, (d, s) in enumerate(specs)]
        cond_sg.output(cond_fn(*placeholders))
    if not cond_sg.output_tensors[0].dtype.is_bool:
        raise SubGraphError("while_loop condition must produce a bool")

    body_sg = SubGraph(f"{name}_body")
    with body_sg:
        placeholders = [body_sg.input(d, s, name=f"var{i}")
                        for i, (d, s) in enumerate(specs)]
        body_sg.output(*_as_tuple(body_fn(*placeholders)))
    if len(body_sg.output_tensors) != len(init_vars):
        raise SubGraphError(
            f"while_loop body returned {len(body_sg.output_tensors)} values "
            f"for {len(init_vars)} loop variables")
    for i, (t, (d, _)) in enumerate(zip(body_sg.output_tensors, specs)):
        if t.dtype != d:
            raise SubGraphError(
                f"loop variable {i} changed dtype: {d.name} -> "
                f"{t.dtype.name}")

    attrs = {"cond_subgraph": cond_sg, "body_subgraph": body_sg,
             "n_vars": len(init_vars), "capture_map": [],
             "max_iters": max_iters}
    outputs = build("Loop", init_vars, attrs, name=name)
    op = outputs[0].op
    cond_sg.register_site(op, "cond")
    body_sg.register_site(op, "body")
    if len(outputs) == 1:
        return outputs[0]
    return tuple(outputs)
