"""In-memory spans recorded around calls into topoforge's modules.

Spans are kept in a list while the benchmark runs and written out once at
the end.  Nothing in topoforge is edited: ``patch`` swaps a module-level
name for a timing wrapper and puts the original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    request: str  # the job or request the span belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """Trace ``(module, attribute, span name)`` targets while active."""
        saved = []
        try:
            for module, attr, name in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(saved[-1][2], name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, request_prefix: str = "") -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.request.startswith(request_prefix):
                out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[i]
        return out

    def durations(self, name: str, request_prefix: str = "") -> list[float]:
        return [
            s.duration
            for s in self.spans
            if s.name == name and s.request.startswith(request_prefix)
        ]

    def write(self, path, extra: list[dict] = ()):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
            for record in extra:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
