"""The block program: the IR of the compiled tier.

Each class segment is a **block program**: its steps in Kahn order over
local *registers*, with every same-segment operand resolved once, here;
what crosses a block boundary is an *import* (wired per forest) or an
*export* (a column).  :func:`check` verifies every program a template
finishes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.registry import OpDef
from repro.ops import tensor_array

from ..plan import _PERSISTENT_ALIAS_OPS

# symbolic value references: (_S, op index, out) a member op of the same
# class; (_O, cid, out) an invariant; (_B, placeholder id) bound by the
# parent frame; (_C, site index, out) a recursive call site's output;
# (_M, ref) a value of the mirrored forward class
_S, _O, _B, _C, _M = range(5)
#: the shared ``True`` completion flag of gradient call sites (cid 0)
_DONE = (_O, 0, 0)
#: how an import is wired, decided per template
#: (:meth:`.template.Template._wire_imports`)
_INV, _COL, _ONE, _SLAB = range(4)


class _Ineligible(Exception):
    """Internal: not compilable; ``args[0]`` is the countable reason."""


#: pseudo-op behind a CondGrad's untaken outputs: a zero gradient shaped
#: like the forward value
_ZEROS = OpDef(
    name="CondGradZeros", infer=None,
    stacked_kernel=lambda op, cols, inv, ctx: [np.zeros_like(cols[0])],
    kernel=lambda op, ins, ctx: [tensor_array.zero_value_like(ins[0])])


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
        #: what keys the segment's members: 0 depth (every root stage,
        #: forward pre-call segments), 1 height (post-call segments; both
        #: segments of a gradient class, whose blocks thereby have the
        #: members, in the order, of the forward post-call blocks they
        #: mirror)
        family = cls.family if cls is not None else None
        self.kind = int(family == "grad" or (seg > 0 and family == "fwd"))
        self.steps: list = []
        self.feeds: list = []      # root placeholders: steps with no kernel
        #: per import ``[refs, last level reading it]``; import ``i`` is
        #: register ``n_regs - len(imports) + i`` (after every step's)
        self.imports: list = []
        self._import_of: dict = {}
        #: per import its wiring (``_INV`` / ``_COL`` / ``_ONE`` /
        #: ``_SLAB`` tuples), decided once the template is wired; the
        #: refs a forest resolves (those of ``_ONE`` / ``_SLAB`` imports)
        #: and their resolver states; the program's number (``pid``)
        self.wiring: list = []
        self.refs: list = []
        self.resolved: list = []
        self.pid = 0
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
        #: per export its merged ops: a column holds ``m`` rows per op
        self.widths = [len(st.ops) for st in self.exports]
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
        self.frees = _frees(self.feeds + self.steps)
        self.frames = tuple(sorted(frames))


def _frees(steps) -> dict:
    """Per level the registers of block-local scratch values whose last
    read is at that level."""
    frees: dict = {}
    for st in steps:
        if st.xi < 0 and st.scratch:
            frees.setdefault(st.last, []).append(st.reg)
    return frees


def check(prog) -> None:
    """Verify one finished block program, else raise :class:`_Ineligible`
    naming the first broken invariant:

    * every register is written once: by a step, or by an import — the
      imports last, in order (the sweep appends them after the steps');
    * a step reads only an import or a register an earlier step wrote
      at a lower level (in the prologue, any earlier step);
    * merged-op rows ``k0:k1`` lie inside the producer's op count or the
      import's ref count;
    * nothing is read after its producer's ``last`` level, nor an import
      after its recorded last level;
    * ``frees`` is exactly what the steps' ``last`` levels imply.
    """
    def fail(why):
        raise _Ineligible(f"block program failed verification: {why}")

    n_steps = prog.n_regs - len(prog.imports)
    written: dict = {}  # register -> (merged ops, last read level, level)
    for i, (refs, last, reg) in enumerate(prog.imports):
        if reg != n_steps + i:
            fail(f"import {i} is register {reg}, not {n_steps + i}")
        written[reg] = (len(refs), last, -1)

    def read(src, level, before):
        reg, k0, k1 = src
        if reg.__class__ is tuple:
            regs = {piece[0] for piece in reg}
            if k0 != (regs.pop() if len(regs) == 1 else None):
                fail(f"shared register {k0} of a joined read")
            for piece in reg:
                read(piece, level, before)
            return
        n, last, at = written.get(reg, (0, -1, before))
        if at >= before:
            fail(f"register {reg} read at level {level} before it is "
                 "written")
        if k0 is not None and not 0 <= k0 < k1 <= n:
            fail(f"rows {k0}:{k1} of register {reg} outside its {n} ops")
        if level > last:
            fail(f"register {reg} read at level {level} after its last "
                 f"level {last}")

    for src, _, _ in prog.checks:
        read(src, 0, 0)
    for st in prog.feeds + prog.steps:
        for src in st.inputs:
            read(src, st.level, st.level + prog.once)
        for reg in range(st.reg, st.reg + st.n_out):
            if reg in written or not 0 <= reg < n_steps:
                fail(f"register {reg} written twice or out of range")
            written[reg] = (len(st.ops), st.last, st.level)
        for src, _, _ in st.checks:
            read(src, st.level + 1, st.level + 1)
    for store in prog.stores:
        read(store[0], max(prog.n_levels - 1, 0), np.inf)
    if _frees(prog.feeds + prog.steps) != prog.frees:
        fail("frees disagree with the steps' last levels")
