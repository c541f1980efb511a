"""Timing wrappers installed around ``repro``'s public calls, from outside.

A :class:`Tracer` replaces chosen functions (class methods or module
functions) with wrappers that time each call and keep a stack of open
calls, so every call knows how much of its duration its wrapped children
covered.  Per name it aggregates calls, busy time (wall time inside the
call) and self time (busy minus the time wrapped children covered).
Ordinary calls also leave a span ``(id, name, start, end, parent_id)`` in
memory; very hot calls (``ledger.log``, ``gpu.launch``, the fleet's
per-request calls) are only aggregated, which keeps tracing cheap.

The wrappers are removed when the :meth:`Tracer.installed` block exits,
so untraced runs execute the program unmodified.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "Target"]

#: (owner, attribute, span name, hot) — owner is a class or a module that
#: defines ``attribute`` itself.
Target = tuple[Any, str, str, bool]


class Tracer:
    """In-memory call timing with self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.origin = clock()
        #: (id, name, start, end, parent_id) for every non-hot call.
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        #: name -> [calls, busy_s, self_s]
        self.stats: dict[str, list] = {}
        # Open calls, innermost last: [start, covered_s, span_id, parent].
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, fn: Callable, name: str, hot: bool = False) -> Callable:
        """A timing wrapper around ``fn`` recorded under ``name``."""
        stack = self._stack
        clock = self.clock
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            # A hot call has no span; its children attach to the nearest
            # enclosing span instead.
            parent_id = None if parent is None else (
                parent[2] if parent[2] is not None else parent[3])
            if hot:
                span_id = None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [clock(), 0.0, span_id, parent_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if span_id is not None:
                    spans.append((span_id, name, frame[0], end, parent_id))

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Install wrappers on ``targets`` for the duration of the block."""
        saved = []
        try:
            for owner, attribute, name, hot in targets:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name, hot))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- read-out ------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def busy_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every wrapped name in ``layer``."""
        return sum(stat[2] for name, stat in self.stats.items()
                   if name == layer or name.startswith(layer + "."))

    def ranking(self) -> list[tuple[str, float]]:
        """Wrapped names by self time, largest first."""
        return sorted(((name, stat[2]) for name, stat in self.stats.items()
                       if stat[0]), key=lambda item: -item[1])

    def write(self, path) -> None:
        """Write spans (times relative to the tracer's start) and stats."""
        origin = self.origin
        document = {
            "spans": [[span_id, name, start - origin, end - origin, parent]
                      for span_id, name, start, end, parent in self.spans],
            "stats": {name: {"calls": calls, "busy_s": busy, "self_s": own}
                      for name, (calls, busy, own) in sorted(
                          self.stats.items())},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
