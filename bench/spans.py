"""Span recording from outside the program.

The traced run wraps the module-global names that fsmac's callers look up
(for example ``fsmac.cli.maximize_sum_rate`` or ``fsmac.mcsim.stream``), so
every call through them records a span: name, start, end, parent span and
command id. Spans stay in memory until the run ends. Nothing under ``src/``
is touched; a name that a later version of the program no longer has is
skipped and its metrics read 0.
"""

import contextlib
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self.missing: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span named ``name``.

        ``note(args, kwargs, result)`` returns extra fields for the span.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        index = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan,
                    stack[-1] if stack else None, self.command)
        self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if note is not None:
            try:
                span.info.update(note(args, kwargs, result))
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                # a later program version changed the call's shape; keep timing
                span.info["note_error"] = repr(exc)
        return result

    def patch(self, module, attr: str, name: str, note=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, note)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self, patches):
        """Apply (module, attr, span name, note) patches for the block."""
        try:
            for module, attr, name, note in patches:
                self.patch(module, attr, name, note)
            yield self
        finally:
            self.restore()

    def self_time(self, index: int) -> float:
        """Span duration minus the union of its children's intervals."""
        span = self.spans[index]
        intervals = sorted((c.start, c.end) for c in self.spans if c.parent == index)
        covered, reach = 0.0, span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "command": s.command, **s.info}
            for s in self.spans
        ]
