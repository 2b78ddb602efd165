"""Output verification, counted as operations.

Every timed step (or served request) is one *operation*.  Its outputs
must be bit-identical to the ``event``/dynamic/unbatched reference —
which proves the configs *agree* — and within ``TOL`` of the independent
numpy oracle (``FoldingExecutor``) — which proves they are *right*.  An
operation that raises, or whose outputs fail either check, is a failed
operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Checker", "TOL"]

#: float32 math summed in a different order (level-batched numpy vs
#: per-node graph kernels) agrees to ~1e-7 on these models; 1e-5 leaves
#: headroom without admitting a wrong kernel
TOL = 1e-5


def _mismatch(got: dict, want: dict, exact: bool) -> str:
    """First reason ``got`` differs from ``want`` ('' when it does not)."""
    if got.keys() != want.keys():
        return f"outputs {sorted(got)} != {sorted(want)}"
    for name, ref in want.items():
        value = np.asarray(got[name])
        ref = np.asarray(ref)
        if value.shape != ref.shape:
            return f"{name}: shape {value.shape} != {ref.shape}"
        if exact:
            if value.dtype != ref.dtype or not np.array_equal(value, ref):
                return f"{name}: not bit-identical to the reference"
        elif not np.allclose(value, ref, rtol=TOL, atol=TOL):
            worst = float(np.max(np.abs(value - ref)))
            return f"{name}: off the numpy oracle by {worst:.3g}"
    return ""


class Checker:
    """Counts operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def _record(self, label: str, problem: str) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(f"{label}: {problem}")
        return not problem

    def check(self, label: str, got: dict, reference: dict,
              oracle: dict) -> bool:
        """One operation's outputs against both oracles."""
        return self._record(label, _mismatch(got, reference, exact=True)
                            or _mismatch(got, oracle, exact=False))

    def check_oracle(self, label: str, got: dict, oracle: dict) -> bool:
        """An operation with no bitwise twin (the reference itself, or a
        baseline that computes the same math another way)."""
        return self._record(label, _mismatch(got, oracle, exact=False))

    def expect(self, label: str, ok: bool, problem: str) -> bool:
        """A non-numeric invariant (e.g. ticket conservation)."""
        return self._record(label, "" if ok else problem)

    def raised(self, label: str, exc: BaseException) -> None:
        self._record(label, f"raised {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
