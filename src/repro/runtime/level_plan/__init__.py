"""Shape-generic level templates: the compiled fast path.

When the *shape* of a recursive input is known at admission
(``TreeBatch.profiles``) the dynamic runtime's discovery — a frame per
tree node, signature matching in the ready queue — is unnecessary.  The
paper's point is that a recursive *definition* gives the runtime the
relation between nodes instead of a per-input topological index; this
package takes it literally (ARCHITECTURE.md, "Two-tier dispatch", has the
full account), one module per phase: :mod:`.template` (scan, segment,
form steps, wire), :mod:`.block` (the block program, the IR, and its
verifier), :mod:`.forest` (linearise and instantiate), :mod:`.wiring`
(instantiation's import wiring, by class segment) and :mod:`.sweep`
(execute).

Values, gradients, selective-cache entries and accumulator sums are
bit-identical to the dynamic path (same ``child_key`` frame keys, same
stateful-kernel contexts), and the sweep *verifies* every ``Cond``
predicate against the branch the profile selected.  Anything ineligible
— a profile with ``None`` holes included — falls back to the dynamic
coalescer for the whole root, counted by reason in
``RunStats.level_plan_fallback_reasons``.
"""

from .forest import HOLES, LevelPlan, instance_for, level_plan_for, linearise
from .sweep import execute_level_plan
from .template import Template, template_for

__all__ = ["LevelPlan", "Template", "template_for", "linearise",
           "instance_for", "level_plan_for", "execute_level_plan", "HOLES"]
