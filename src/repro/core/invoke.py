"""InvokeOp: recursion in dataflow graphs (paper Section 3.2).

An ``InvokeOp`` takes a set of tensors as input, runs its associated
SubGraph with those inputs, and returns the SubGraph's outputs.  It is an
ordinary graph operation — what differs is the kernel: instead of a
mathematical computation it *initiates a new frame* over the SubGraph's
body, processed by the same master scheduler and the same ready queue as
every other operation (paper Figure 4, step (4)).

``InvokeGrad`` is the backpropagation counterpart built by automatic
differentiation: it runs the SubGraph's *backward* SubGraph in a frame
bound to the same frame key as the forward call, so ``CacheLookup``
operations inside the backward body retrieve the forward activations from
the concurrent value cache (paper Section 5).

Both starters execute the op's call-site descriptor
(:mod:`repro.core.callsite`), the one the compiled tier's template reads.
"""

from __future__ import annotations

from repro.core.callsite import start_call
from repro.core.subgraph import SubGraph, SubGraphError
from repro.graph import dtypes
from repro.graph.registry import register_batched_async, register_op
from repro.graph.tensor import Tensor
from repro.ops.common import build

__all__ = ["invoke"]


def _invoke_infer(op):
    subgraph: SubGraph = op.attrs["subgraph"]
    return list(subgraph.output_specs)


register_op("Invoke", infer=_invoke_infer, is_async=True,
            starter=start_call, cost="invoke")
# Concurrent calls of the *same* SubGraph with same-shaped arguments fuse
# into one batched frame spawn (the caller-context setup is paid once for
# the bucket; every member still gets its own frame).
register_batched_async("Invoke", identity_attrs=("subgraph",))
# The gradient function is registered by repro.core.autodiff to avoid an
# import cycle.


def invoke(subgraph: SubGraph, args) -> Tensor | tuple[Tensor, ...]:
    """Create an InvokeOp calling ``subgraph`` in the current default graph."""
    if len(args) != len(subgraph.input_tensors):
        raise SubGraphError(
            f"SubGraph {subgraph.name!r} takes {len(subgraph.input_tensors)} "
            f"inputs, got {len(args)}")
    # Touch output_specs early: recursion requires a forward declaration.
    subgraph.output_specs
    attrs = {"subgraph": subgraph, "n_args": len(args), "capture_map": []}
    outputs = build("Invoke", list(args), attrs, name=f"call_{subgraph.name}")
    op = outputs[0].op if outputs else None
    # Validate declared arg dtypes.
    for i, (given, declared) in enumerate(zip(op.inputs,
                                              subgraph.input_tensors)):
        if given.dtype != declared.dtype:
            raise SubGraphError(
                f"argument {i} of {subgraph.name!r} has dtype "
                f"{given.dtype.name}, expected {declared.dtype.name}")
    subgraph.register_site(op, "main")
    if len(outputs) == 1:
        return outputs[0]
    return tuple(outputs)


# -- InvokeGrad ---------------------------------------------------------------


def _invoke_grad_infer(op):
    subgraph: SubGraph = op.attrs["fwd_subgraph"]
    specs = []
    for kind, index in subgraph.differentiable_input_slots():
        if kind == "arg":
            t = subgraph.input_tensors[index]
        else:
            t = subgraph.captures[index][1]
        specs.append((t.dtype, t.shape))
    specs.append((dtypes.bool_, ()))  # completion signal
    return specs


# the backward body resolves when the site first runs (recursion-safe)
register_op("InvokeGrad", infer=_invoke_grad_infer, is_async=True,
            starter=start_call, cost="invoke")
# Backward frames of concurrent recursive calls batch exactly like the
# forward ones: one fused spawn per bucket of same-signature InvokeGrads.
register_batched_async("InvokeGrad", identity_attrs=("fwd_subgraph",))
