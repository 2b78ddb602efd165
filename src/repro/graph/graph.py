"""Dataflow graphs and operations.

This is the substrate the paper assumes: a directed acyclic graph whose
vertices are operations and whose edges carry tensors (Section 2.1).  The
module provides:

* :class:`Operation` — a vertex with typed inputs/outputs, attributes and
  control dependencies;
* :class:`Graph` — a container of operations with name uniquing, a default
  graph stack, consumer maps for the scheduler, and validation;
* :func:`get_default_graph` and the ``with graph.as_default():`` idiom.

SubGraph bodies (:mod:`repro.core.subgraph`) are ordinary :class:`Graph`
objects flagged with ``is_subgraph_body`` so the runtime knows to record
their values into the backpropagation cache.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional, Sequence

from . import dtypes, registry
from .tensor import Shape, Tensor

__all__ = ["Operation", "Graph", "get_default_graph", "reset_default_graph"]

_graph_counter = [0]
_graph_counter_lock = threading.Lock()


class Operation:
    """A single graph vertex.

    Attributes:
        graph: owning :class:`Graph`.
        id: integer id unique within the owning graph (also its creation
            order, so iterating ops by id is a topological order).
        name: unique string name within the graph.
        op_type: registry key selecting the kernel / gradient / inference.
        inputs: data-edge inputs (list of :class:`Tensor`).
        control_inputs: operations that must complete before this one runs
            but contribute no data.
        attrs: static attributes (shapes, sub-graph references, ...).
        outputs: produced :class:`Tensor` handles.
    """

    __slots__ = ("graph", "id", "name", "op_type", "inputs",
                 "control_inputs", "attrs", "outputs", "traceback_hint")

    def __init__(self, graph: "Graph", op_id: int, name: str, op_type: str,
                 inputs: Sequence[Tensor], attrs: dict[str, Any]):
        self.graph = graph
        self.id = op_id
        self.name = name
        self.op_type = op_type
        self.inputs = list(inputs)
        self.control_inputs: list[Operation] = []
        self.attrs = dict(attrs)
        self.outputs: list[Tensor] = []
        self.traceback_hint: Optional[str] = None

    def add_control_input(self, op: "Operation") -> None:
        """Add a control dependency on ``op`` (must be in the same graph)."""
        if op.graph is not self.graph:
            raise ValueError(
                f"control input {op.name} belongs to a different graph")
        if op not in self.control_inputs:
            self.control_inputs.append(op)
            self.graph._invalidate_caches()

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def __repr__(self) -> str:
        return f"<Operation {self.name!r} type={self.op_type}>"


class Graph:
    """A dataflow graph: an append-only list of operations.

    Operations are added through :meth:`add_op`, normally via the helpers
    in :mod:`repro.ops`.  Once a graph has been :meth:`finalize`-d (done
    automatically for SubGraph bodies) it rejects further additions — the
    runtime relies on finalized bodies being immutable.
    """

    def __init__(self, name: str = "graph", *, is_subgraph_body: bool = False):
        with _graph_counter_lock:
            _graph_counter[0] += 1
            self.graph_id = _graph_counter[0]
        self.name = f"{name}_{self.graph_id}"
        self.is_subgraph_body = is_subgraph_body
        #: The SubGraph that owns this body graph (set by SubGraph).
        self.owning_subgraph = None
        self._ops: list[Operation] = []
        self._ops_by_name: dict[str, Operation] = {}
        self._name_counts: dict[str, int] = {}
        self._finalized = False
        self._consumers_cache: Optional[dict[int, list[Operation]]] = None
        #: Compiled FramePlans keyed by op-id set (see repro.runtime.plan);
        #: the runtime owns the values, the graph owns the invalidation.
        self._frame_plans: dict = {}
        #: Pruned root-frame plans keyed by fetch-op-id set.
        self._fetch_plans: dict = {}
        #: Compiled LevelPlans keyed by (root plan, shape profile, record)
        #: (see repro.runtime.level_plan); invalidated with the frame plans.
        self._level_plans: dict = {}
        #: Registry mutation counter the cached plans were compiled at:
        #: registering an op, gradient or batched kernel *after* a plan
        #: compiled invalidates it (plans bake in resolved OpDefs and
        #: batch-signature prefixes).  Checked by repro.runtime.plan.
        self._plan_registry_version = registry.registry_version()
        #: Selective-caching record set: (op_id, out_idx) pairs the backward
        #: body looks up, or None to record everything (see set_cache_filter).
        self.cache_filter = None
        self._lock = threading.RLock()
        #: Per-graph memo used by Variable.read() to avoid duplicate reads.
        self.variable_read_memo: dict[str, Tensor] = {}
        #: Collections, e.g. names of variables read by this graph.
        self.collections: dict[str, list] = {}

    # -- construction ------------------------------------------------------

    def unique_name(self, base: str) -> str:
        """Return a name unique within this graph, derived from ``base``."""
        with self._lock:
            count = self._name_counts.get(base, 0)
            self._name_counts[base] = count + 1
            return base if count == 0 else f"{base}_{count}"

    def add_op(self, op_type: str, inputs: Sequence[Tensor] = (),
               attrs: Optional[dict[str, Any]] = None,
               name: Optional[str] = None) -> Operation:
        """Create an operation, infer its outputs, and append it."""
        from . import registry

        if self._finalized:
            raise RuntimeError(
                f"graph {self.name} is finalized; no more ops may be added")
        inputs = [self._check_input(op_type, i, t)
                  for i, t in enumerate(inputs)]
        op_def = registry.op_def(op_type)
        attrs = dict(attrs or {})
        with self._lock:
            op_id = len(self._ops)
            op_name = self.unique_name(name or op_type.lower())
            op = Operation(self, op_id, op_name, op_type, inputs, attrs)
            specs = op_def.infer(op)
            for idx, (dtype, shape) in enumerate(specs):
                op.outputs.append(Tensor(op, idx, dtype, shape))
            self._ops.append(op)
            self._ops_by_name[op_name] = op
            self._consumers_cache = None
            self._frame_plans.clear()
            self._fetch_plans.clear()
            self._level_plans.clear()
        return op

    def _check_input(self, op_type: str, position: int, tensor) -> Tensor:
        if not isinstance(tensor, Tensor):
            raise TypeError(
                f"input {position} of {op_type} is not a Tensor: {tensor!r}; "
                "wrap constants with ops.constant()")
        if tensor.graph is not self:
            raise ValueError(
                f"input {position} of {op_type} ({tensor.name}) belongs to "
                f"graph {tensor.graph.name}, not {self.name}. Cross-graph "
                "references are only legal through SubGraph captures.")
        return tensor

    def finalize(self) -> None:
        """Freeze the graph; subsequent :meth:`add_op` calls raise."""
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized

    # -- inspection --------------------------------------------------------

    @property
    def operations(self) -> list[Operation]:
        return list(self._ops)

    @property
    def num_operations(self) -> int:
        return len(self._ops)

    def get_operation(self, name: str) -> Operation:
        return self._ops_by_name[name]

    def op_by_id(self, op_id: int) -> Operation:
        return self._ops[op_id]

    def consumers(self) -> dict[int, list[Operation]]:
        """Map from op id to the list of operations consuming its outputs
        (including control-dependency consumers)."""
        with self._lock:
            if self._consumers_cache is None:
                table: dict[int, list[Operation]] = {op.id: [] for op in self._ops}
                for op in self._ops:
                    seen: set[int] = set()
                    for t in op.inputs:
                        if t.op.id not in seen:
                            table[t.op.id].append(op)
                            seen.add(t.op.id)
                    for c in op.control_inputs:
                        if c.id not in seen:
                            table[c.id].append(op)
                            seen.add(c.id)
                self._consumers_cache = table
            return self._consumers_cache

    def _invalidate_caches(self) -> None:
        with self._lock:
            self._consumers_cache = None
            self._frame_plans.clear()
            self._fetch_plans.clear()
            self._level_plans.clear()

    def set_cache_filter(self, refs) -> None:
        """Install the selective-caching record set.

        ``refs`` is a set of ``(op_id, out_idx)`` pairs — the forward
        values the backward body looks up — or ``None`` to record every
        output.  Compiled frame plans bake the filter into per-slot store
        masks, so changing it invalidates them.  Frames already in
        flight keep their compiled masks, so their stores may diverge
        from the new record set in either direction (computed values are
        unaffected either way); in practice filters are installed by
        ``differentiate_subgraph`` at graph-build time, before any frame
        of the graph executes.
        """
        with self._lock:
            self.cache_filter = refs
            self._frame_plans.clear()
            self._fetch_plans.clear()
            self._level_plans.clear()

    def dependency_count(self, op: Operation) -> int:
        """Number of distinct producer operations this op waits on."""
        producers = {t.op.id for t in op.inputs}
        producers.update(c.id for c in op.control_inputs)
        return len(producers)

    def validate(self) -> None:
        """Check structural invariants: ids consistent, inputs in-graph,
        and input edges only point backwards (acyclicity by construction).
        """
        for i, op in enumerate(self._ops):
            if op.id != i:
                raise AssertionError(f"op id mismatch at index {i}")
            for t in op.inputs:
                if t.op.graph is not self:
                    raise AssertionError(
                        f"{op.name} input {t.name} from foreign graph")
                if t.op.id >= op.id:
                    raise AssertionError(
                        f"{op.name} consumes {t.name} created later; graphs "
                        "must be constructed in topological order")

    def reachable_from(self, ops: Iterable[Operation]) -> set[int]:
        """Ids of all operations needed to compute ``ops`` (reverse BFS over
        data and control edges)."""
        stack = [op for op in ops]
        seen: set[int] = set()
        while stack:
            op = stack.pop()
            if op.id in seen:
                continue
            seen.add(op.id)
            for t in op.inputs:
                if t.op.id not in seen:
                    stack.append(t.op)
            for c in op.control_inputs:
                if c.id not in seen:
                    stack.append(c)
        return seen

    def __repr__(self) -> str:
        kind = "SubGraphBody" if self.is_subgraph_body else "Graph"
        return f"<{kind} {self.name!r} ops={len(self._ops)}>"

    # -- default graph management ------------------------------------------

    def as_default(self) -> "_DefaultGraphContext":
        """Context manager installing this graph as the construction target."""
        return _DefaultGraphContext(self)


class _DefaultGraphState(threading.local):
    def __init__(self):
        self.stack: list[Graph] = []
        self.root: Optional[Graph] = None


_default_state = _DefaultGraphState()


class _DefaultGraphContext:
    def __init__(self, graph: Graph):
        self._graph = graph

    def __enter__(self) -> Graph:
        _default_state.stack.append(self._graph)
        return self._graph

    def __exit__(self, *exc) -> None:
        popped = _default_state.stack.pop()
        assert popped is self._graph, "unbalanced graph context nesting"


def get_default_graph() -> Graph:
    """The graph new operations are added to.

    This is the innermost ``with graph.as_default():`` graph, or a
    process-wide root graph created on first use.
    """
    if _default_state.stack:
        return _default_state.stack[-1]
    if _default_state.root is None:
        _default_state.root = Graph("root")
    return _default_state.root


def reset_default_graph() -> Graph:
    """Discard the implicit root graph (tests use this for isolation)."""
    if _default_state.stack:
        raise RuntimeError("cannot reset while graph contexts are active")
    _default_state.root = Graph("root")
    return _default_state.root
