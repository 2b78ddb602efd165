"""In-memory spans around the harness's own calls into each layer.

The spans are recorded *from outside*: one around every public call the
benchmark makes (``data.feed_dict``, ``session.run``, ``server.submit``,
...).  They live in a list until the run ends and are written once as
Chrome trace-event JSON.  What happens inside ``Session.run`` is split
only by differencing configs; in-program spans are a later issue.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Optional

__all__ = ["Tracer", "STEP"]

#: name of the root span that wraps one operation (a step or a burst)
STEP = "step"


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, step: Optional[str]):
        self.tracer = tracer
        open_ = tracer._open
        parent = open_[-1] if open_ else -1
        if step is None and parent >= 0:
            step = tracer.spans[parent][4]
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0, 0, parent, step])

    def __enter__(self):
        self.tracer._open.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter_ns()
        self.tracer._open.pop()
        return False


class Tracer:
    """Records ``[name, start_ns, end_ns, parent, step_id]`` spans.

    Off by default: ``span()`` then returns a shared no-op context, so
    the timed rounds pay one attribute test per call site.  All spans of
    one operation share its ``step`` id (inherited from the parent).
    """

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._open: list = []

    def span(self, name: str, step: Optional[str] = None):
        return _Span(self, name, step) if self.enabled else _NULL

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str, step_prefix: str = "") -> dict:
        """``step_id -> [seconds, ...]`` of every span called ``name``."""
        out = defaultdict(list)
        for n, start, end, _, step in self.spans:
            if n == name and (step or "").startswith(step_prefix):
                out[step].append((end - start) / 1e9)
        return out

    def self_ns(self) -> list:
        """Per-span self time: its duration minus its direct children's."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def coverage(self, root: str = STEP) -> float:
        """Lowest share of a ``root`` span covered by its direct children
        (1.0 when no root span was recorded)."""
        covered = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        shares = [covered[i] / (end - start)
                  for i, (n, start, end, _, _) in enumerate(self.spans)
                  if n == root and end > start]
        return min(shares, default=1.0)

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> list:
        """Complete ("X") events, one viewer row per config."""
        rows: dict = {}
        events = []
        self_ns = self.self_ns()
        origin = min((s[1] for s in self.spans), default=0)
        for i, (name, start, end, _, step) in enumerate(self.spans):
            # step ids read workload/config/round/step; setup spans have
            # the config slot "setup"
            row = (step or "").split("/")[1:2]
            tid = rows.setdefault(row[0] if row else "harness", len(rows))
            events.append({"name": name, "ph": "X", "pid": 0, "tid": tid,
                           "ts": (start - origin) / 1e3,
                           "dur": (end - start) / 1e3,
                           "args": {"step": step,
                                    "self_us": self_ns[i] / 1e3}})
        for label, tid in rows.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tid, "args": {"name": label}})
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, fh)
