"""Automatic differentiation, including recursive backpropagation.

Three layers (paper Section 4.2):

1. :func:`gradients` — ordinary reverse-mode AD over a graph: walk the
   forward operations in reverse topological order, calling each op's
   registered gradient function and summing contributions.

2. :func:`differentiate_subgraph` — differentiate a SubGraph *body* into a
   new backward SubGraph.  References to forward values become
   ``CacheLookup`` operations resolved against the backprop value cache at
   the backward frame's key.  If the forward body recursively invokes its
   own SubGraph, the backward body holds an ``InvokeGrad`` at the same
   position — the backward SubGraph is recursive exactly where the forward
   one is (paper Section 4.2.2).  Recursive self-reference is handled by
   an in-progress marker: the inner ``InvokeGrad`` resolves its target
   backward SubGraph lazily at execution time (forward declaration for
   gradients, paper Section 5).

3. Gradient definitions for the async control-flow ops (``Invoke``,
   ``Cond``, ``Loop``), together with their backward counterparts
   (``InvokeGrad`` lives in :mod:`repro.core.invoke`; ``CondGrad`` and
   ``LoopGrad`` are defined here).  Backward frames re-derive forward
   frame keys structurally from call-site ids, so activations recorded by
   any forward frame are found by the matching backward frame.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.cache import child_key
from repro.core.callsite import start_call
from repro.core.subgraph import SubGraph, SubGraphError
from repro.graph import dtypes
from repro.graph.graph import Graph, Operation
from repro.graph.registry import (op_def, register_batched_async,
                                  register_batched_kernel, register_grad,
                                  register_op)
from repro.graph.tensor import Tensor
from repro.ops import array_ops, math_ops, tensor_array
from repro.ops.common import build, out1

__all__ = ["gradients", "differentiate_subgraph", "GradContext"]


def _differentiable(dtype: dtypes.DType) -> bool:
    return dtype.is_floating or dtype.is_opaque


# -- CacheLookup ---------------------------------------------------------------

def _cache_lookup_infer(op):
    return [(op.attrs["dtype"], op.attrs.get("shape"))]


def _cache_lookup_kernel(op, inputs, ctx):
    return [ctx.cache.lookup(ctx.frame.key, op.attrs["target_graph_id"],
                             op.attrs["target_op_id"],
                             op.attrs["target_out_idx"])]


def _cache_lookup_batched(ops, inputs_list, ctxs):
    """Resolve a whole bucket of gradient-frame lookups in one bulk read.

    Every member addresses the same runtime cache; grouping the keys lets
    :meth:`~repro.core.cache.ValueCache.lookup_many` take each shard lock
    once, and the engines account the bucket as a single bulk cache
    round-trip instead of N serialized lookups (the training-path
    bottleneck of paper Section 5).
    """
    keys = [(ctx.frame.key, op.attrs["target_graph_id"],
             op.attrs["target_op_id"], op.attrs["target_out_idx"])
            for op, ctx in zip(ops, ctxs)]
    return [[value] for value in ctxs[0].cache.lookup_many(keys)]


register_op("CacheLookup", infer=_cache_lookup_infer,
            kernel=_cache_lookup_kernel, grad=None, stateful=True,
            cost="cache")
# Read-only state access: N lookups fuse into one bulk cache transaction.
register_batched_kernel("CacheLookup", _cache_lookup_batched,
                        allow_stateful=True)


class GradContext:
    """Services available to gradient functions (``gb``).

    ``val(t)`` maps a *forward* tensor to a tensor usable in the graph the
    gradients are being built in: the tensor itself when differentiating a
    graph in place ("direct" mode), or a memoized ``CacheLookup`` when
    building a backward SubGraph body ("cache" mode).
    """

    def __init__(self, graph: Graph, forward_graph: Graph, mode: str):
        assert mode in ("direct", "cache")
        self.graph = graph
        self.forward_graph = forward_graph
        self.mode = mode
        self.update_ops: list[Operation] = []
        #: refs whose symbolic gradient the caller asked for: gradient
        #: functions must not divert those into side effects
        self.wanted: frozenset = frozenset()
        #: refs that became CacheLookups (drives selective caching)
        self._lookup_memo: dict[tuple[int, int], Optional[Tensor]] = {}
        self._rematerialize_memo: dict[tuple[int, int], Tensor] = {}

    def val(self, tensor: Tensor) -> Tensor:
        if self.mode == "direct":
            return tensor
        if tensor.graph is not self.forward_graph:
            raise SubGraphError(
                f"gradient function referenced {tensor.name} from graph "
                f"{tensor.graph.name}, expected forward graph "
                f"{self.forward_graph.name}")
        key = tensor.ref
        if key not in self._rematerialize_memo:
            self._rematerialize_memo[key] = self._rematerialize(tensor)
        return self._rematerialize_memo[key]

    def _rematerialize(self, tensor: Tensor) -> Tensor:
        # Variables and constants are cheaper to re-read than to cache per
        # recursive frame (parameters do not change within a step).
        if tensor.op.op_type == "ReadVariable":
            from repro.ops import var_ops
            with self.graph.as_default():
                return var_ops.read_variable(tensor.op.attrs["var_name"],
                                             tensor.dtype, tensor.shape)
        if tensor.op.op_type == "Const":
            from repro.ops.common import constant
            with self.graph.as_default():
                return constant(tensor.op.attrs["value"])
        self._lookup_memo[tensor.ref] = None
        return out1(
            "CacheLookup", [],
            {"target_graph_id": self.forward_graph.graph_id,
             "target_op_id": tensor.op.id,
             "target_out_idx": tensor.index,
             "dtype": tensor.dtype, "shape": tensor.shape},
            name=f"lookup_{tensor.op.name}_{tensor.index}",
            graph=self.graph)

    def add_update(self, op: Operation) -> None:
        """Register a side-effect op that must run for gradients to exist."""
        self.update_ops.append(op)


def _zero_grad_like(ref: Tensor) -> Tensor:
    """A symbolic zero gradient matching ``ref`` (array or TensorArray)."""
    if ref.dtype.is_opaque:
        return tensor_array.ta_empty_like(ref)
    return array_ops.zeros_like(ref)


def _sum_grads(a: Tensor, b: Tensor) -> Tensor:
    if a.dtype.is_opaque:
        return tensor_array.ta_combine(a, b)
    return math_ops.add(a, b)


def _backprop(forward_graph: Graph, seeds: dict[tuple[int, int], Tensor],
              gb: GradContext) -> dict[tuple[int, int], Tensor]:
    """Reverse-accumulate gradients through ``forward_graph``.

    ``seeds`` maps forward tensor refs to their incoming gradient tensors
    (already living in ``gb.graph``).  Returns the full ref -> gradient
    map.  Must be called with ``gb.graph`` as the default graph.
    """
    grad_map = dict(seeds)
    seed_ops = {forward_graph.op_by_id(ref[0]) for ref in seeds}
    relevant = forward_graph.reachable_from(seed_ops)
    for op_id in sorted(relevant, reverse=True):
        op = forward_graph.op_by_id(op_id)
        out_grads = [grad_map.get((op.id, i)) for i in range(op.num_outputs)]
        if all(g is None for g in out_grads):
            continue
        grad_fn = op_def(op.op_type).grad
        if grad_fn is None:
            if any(_differentiable(t.dtype) for t in op.inputs):
                raise SubGraphError(
                    f"op {op.name} ({op.op_type}) is not differentiable but "
                    "lies on a gradient path")
            continue
        in_grads = grad_fn(gb, op, out_grads)
        if len(in_grads) != len(op.inputs):
            raise AssertionError(
                f"gradient of {op.op_type} returned {len(in_grads)} values "
                f"for {len(op.inputs)} inputs")
        for inp, grad in zip(op.inputs, in_grads):
            if grad is None or not _differentiable(inp.dtype):
                continue
            previous = grad_map.get(inp.ref)
            grad_map[inp.ref] = (grad if previous is None
                                 else _sum_grads(previous, grad))
    return grad_map


def gradients(ys, xs, grad_ys=None):
    """Build gradients of ``sum(ys)`` with respect to ``xs``.

    Returns ``(grads, update_ops)``: ``grads[i]`` is the symbolic gradient
    for ``xs[i]`` (None if unconnected).  ``update_ops`` are side-effect
    operations — ``AccumGrad`` writes for variables and backward
    control-flow ops — that the caller must fetch (or depend on) for
    variable gradients to be accumulated; :class:`repro.nn.trainer.Trainer`
    does this automatically.
    """
    ys = list(ys) if isinstance(ys, (list, tuple)) else [ys]
    xs = list(xs) if isinstance(xs, (list, tuple)) else [xs]
    graph = ys[0].graph
    for y in ys:
        if y.graph is not graph:
            raise ValueError("all ys must live in the same graph")
    gb = GradContext(graph, graph, "direct")
    gb.wanted = frozenset(x.ref for x in xs)
    with graph.as_default():
        seeds: dict[tuple[int, int], Tensor] = {}
        for i, y in enumerate(ys):
            seed = (grad_ys[i] if grad_ys is not None
                    else array_ops.ones_like(y))
            previous = seeds.get(y.ref)
            seeds[y.ref] = (seed if previous is None
                            else _sum_grads(previous, seed))
        grad_map = _backprop(graph, seeds, gb)
    grads = [grad_map.get(x.ref) for x in xs]
    return grads, gb.update_ops


def differentiate_subgraph(subgraph: SubGraph) -> Optional[SubGraph]:
    """Build (and attach) the backward SubGraph of ``subgraph``.

    Returns None if this SubGraph is already being differentiated higher
    up the call stack (recursive case) — the backward body then refers to
    itself lazily through ``SubGraph.grad_subgraph``.
    """
    if subgraph._grad_subgraph is not None:
        return subgraph._grad_subgraph
    if subgraph._grad_in_progress:
        return None
    if not subgraph.finalized:
        raise SubGraphError(
            f"cannot differentiate unfinalized SubGraph {subgraph.name!r}")
    subgraph._grad_in_progress = True
    try:
        backward = SubGraph(f"{subgraph.name}_grad", backward=True)
        with backward:
            gb = GradContext(backward.graph, subgraph.graph, "cache")
            seeds: dict[tuple[int, int], Tensor] = {}
            for pos in subgraph.differentiable_output_positions():
                t = subgraph.output_tensors[pos]
                ph = backward.input(t.dtype, t.shape, name=f"grad_out{pos}")
                previous = seeds.get(t.ref)
                seeds[t.ref] = (ph if previous is None
                                else _sum_grads(previous, ph))
            grad_map = _backprop(subgraph.graph, seeds, gb)
            outputs = []
            for kind, index in subgraph.differentiable_input_slots():
                t = (subgraph.input_tensors[index] if kind == "arg"
                     else subgraph.captures[index][1])
                grad = grad_map.get(t.ref)
                if grad is None:
                    grad = _zero_grad_like(gb.val(t))
                outputs.append(grad)
            backward.output(*outputs)
        subgraph._grad_subgraph = backward
        # Selective caching: record only the forward values the backward
        # body actually looks up (plus what enclosing graphs' backward
        # bodies request, merged by the union below).  Installed through
        # set_cache_filter so compiled frame plans holding the old store
        # masks are invalidated.
        needed = set(gb._lookup_memo.keys())
        existing = subgraph.graph.cache_filter
        subgraph.graph.set_cache_filter(needed if existing is None
                                        else existing | needed)
        _note_external_lookups(gb)
    finally:
        subgraph._grad_in_progress = False
    return backward


def _note_external_lookups(gb: GradContext) -> None:
    """No-op hook: lookups always target gb.forward_graph, whose filter we
    just set.  Kept for symmetry with _merge_main_graph_lookups."""


def _merge_main_graph_lookups(gb: GradContext) -> None:
    """Direct-mode gradients can reference SubGraph *outputs* (seed zeros);
    those refs live in the main graph whose frames never record, so no
    filter update is needed."""


# -- gradient of Invoke ---------------------------------------------------------

def _seed_grads(gb, op, out_grads, positions):
    seeds = []
    for pos in positions:
        grad = out_grads[pos]
        if grad is None:
            grad = _zero_grad_like(gb.val(op.outputs[pos]))
        seeds.append(grad)
    return seeds


def _grad_invoke(gb, op, out_grads):
    subgraph: SubGraph = op.attrs["subgraph"]
    differentiate_subgraph(subgraph)
    seeds = _seed_grads(gb, op, out_grads,
                        subgraph.differentiable_output_positions())
    outputs = build("InvokeGrad", seeds,
                    {"fwd_subgraph": subgraph, "site_id": op.id},
                    name=f"grad_call_{subgraph.name}", graph=gb.graph)
    gb.add_update(outputs[0].op)
    in_grads: list[Optional[Tensor]] = [None] * len(op.inputs)
    capture_positions = {ph_id: pos
                         for _, ph_id, pos in op.attrs.get("capture_map", ())}
    slots = subgraph.differentiable_input_slots()
    for grad_t, (kind, index) in zip(outputs[:-1], slots):
        if kind == "arg":
            in_grads[index] = grad_t
        else:
            placeholder = subgraph.captures[index][1]
            in_grads[capture_positions[placeholder.op.id]] = grad_t
    return in_grads


register_grad("Invoke", _grad_invoke)


# -- gradient of Cond -------------------------------------------------------------

def _cond_grad_infer(op):
    n_seeds = op.attrs["n_seeds"]
    refs = op.inputs[1 + n_seeds:]
    specs = [(r.dtype, r.shape) for r in refs]
    specs.append((dtypes.bool_, ()))  # completion signal
    return specs


# the starter executes the op's call-site descriptor (repro.core.callsite),
# which owns the seed / forward-ref split and the branch's slot wiring
register_op("CondGrad", infer=_cond_grad_infer, is_async=True,
            starter=start_call, cost="cond")


def _grad_cond(gb, op, out_grads):
    true_sg: SubGraph = op.attrs["true_subgraph"]
    false_sg: SubGraph = op.attrs["false_subgraph"]
    differentiate_subgraph(true_sg)
    differentiate_subgraph(false_sg)
    seeds = _seed_grads(gb, op, out_grads,
                        true_sg.differentiable_output_positions())
    entries = []
    refs = []
    in_positions = []
    for entry_role, ph_id, pos in op.attrs.get("capture_map", ()):
        if _differentiable(op.inputs[pos].dtype):
            entries.append((entry_role, ph_id))
            refs.append(gb.val(op.inputs[pos]))
            in_positions.append(pos)
    pred_val = gb.val(op.inputs[0])
    outputs = build("CondGrad", [pred_val] + seeds + refs,
                    {"site_id": op.id, "true_subgraph": true_sg,
                     "false_subgraph": false_sg, "n_seeds": len(seeds),
                     "cap_entries": entries},
                    name="grad_cond", graph=gb.graph)
    gb.add_update(outputs[0].op)
    in_grads: list[Optional[Tensor]] = [None] * len(op.inputs)
    for pos, grad_t in zip(in_positions, outputs[:-1]):
        in_grads[pos] = grad_t
    return in_grads


register_grad("Cond", _grad_cond)


# -- gradient of Loop ---------------------------------------------------------------

def _loop_grad_infer(op):
    specs = [(t.dtype, t.shape) for t in op.inputs]
    specs.append((dtypes.bool_, ()))  # completion signal
    return specs


def _loop_grad_starter(scheduler, inst, inputs):
    op = inst.op
    body: SubGraph = op.attrs["body_subgraph"]
    backward = body.grad_subgraph
    site_id = op.attrs["site_id"]
    diff_positions = op.attrs["diff_var_positions"]
    entries = op.attrs["cap_entries"]  # [placeholder_op_id]
    n_state = len(diff_positions)
    state = list(inputs[:n_state])
    refs = inputs[n_state:]
    capture_totals: list = [None] * len(entries)
    entry_index = {ph_id: i for i, ph_id in enumerate(entries)}
    parent_key = inst.frame.key
    depth = inst.frame.depth + 1
    iterations = scheduler.runtime.cache.lookup_meta((parent_key, site_id))
    counter = {"i": iterations - 1}
    slots = body.differentiable_input_slots()
    step_overhead = scheduler.cost_model.loop_step_overhead(n_state)
    if len(backward.input_op_ids) != n_state:
        raise SubGraphError(
            f"LoopGrad {op.name}: backward body declares "
            f"{len(backward.input_op_ids)} inputs for {n_state} "
            "differentiable loop variables")

    def finish():
        outputs = list(state)
        for total, ref in zip(capture_totals, refs):
            outputs.append(tensor_array.zero_value_like(ref)
                           if total is None else total)
        outputs.append(np.bool_(True))
        scheduler.finish_async(inst, outputs)

    def run_iter():
        bindings = dict(zip(backward.input_op_ids, state))
        key = child_key(parent_key, (site_id, counter["i"]))
        scheduler.spawn_frame(backward, bindings, key, depth, iter_done, inst)

    def iter_done(frame):
        values = [frame.value_of(t) for t in backward.output_tensors]
        new_state = []
        for (kind, index), value in zip(slots, values):
            if kind == "arg":
                new_state.append(value)
            else:
                placeholder = body.captures[index][1]
                slot = entry_index.get(placeholder.op.id)
                if slot is not None:
                    current = capture_totals[slot]
                    if current is None:
                        capture_totals[slot] = value
                    elif isinstance(current, tensor_array.TensorArrayValue):
                        capture_totals[slot] = current.combine(value)
                    else:
                        capture_totals[slot] = current + value
        state[:] = new_state
        counter["i"] -= 1
        if counter["i"] >= 0:
            scheduler.post_continuation(step_overhead, run_iter)
        else:
            finish()

    if iterations == 0:
        finish()
    else:
        run_iter()


register_op("LoopGrad", infer=_loop_grad_infer, is_async=True,
            starter=_loop_grad_starter, cost="loop")


def _grad_loop(gb, op, out_grads):
    body: SubGraph = op.attrs["body_subgraph"]
    differentiate_subgraph(body)
    diff_positions = [i for i, t in enumerate(op.inputs[:op.attrs["n_vars"]])
                      if _differentiable(t.dtype)]
    body_out_positions = body.differentiable_output_positions()
    if diff_positions != body_out_positions:
        raise SubGraphError(
            "loop variables changed differentiability between input and "
            f"output: {diff_positions} vs {body_out_positions}")
    seeds = _seed_grads(gb, op, out_grads, diff_positions)
    entries = []
    refs = []
    in_positions = []
    for entry_role, ph_id, pos in op.attrs.get("capture_map", ()):
        if entry_role == "body" and _differentiable(op.inputs[pos].dtype):
            entries.append(ph_id)
            refs.append(gb.val(op.inputs[pos]))
            in_positions.append(pos)
    outputs = build("LoopGrad", seeds + refs,
                    {"site_id": op.id, "body_subgraph": body,
                     "diff_var_positions": diff_positions,
                     "cap_entries": entries},
                    name="grad_loop", graph=gb.graph)
    gb.add_update(outputs[0].op)
    in_grads: list[Optional[Tensor]] = [None] * len(op.inputs)
    body = outputs[:-1]
    for var_pos, grad_t in zip(diff_positions, body[:len(diff_positions)]):
        in_grads[var_pos] = grad_t
    for pos, grad_t in zip(in_positions, body[len(diff_positions):]):
        in_grads[pos] = grad_t
    return in_grads


register_grad("Loop", _grad_loop)
