"""In-memory spans around calls into bookfield's public functions.

The tracer replaces a module attribute with a timing wrapper, at the place the
caller looks the name up (``cli.simulate``, ``baselines.shift_boundary``, ...),
and puts every original back on ``close``.  No file under ``src/`` changes:
the spans are recorded from the benchmark's side of each call.

A span is ``(name, start, end, parent, attrs)``: ``parent`` is the index of
the span that was open when this one started (-1 for none) and ``attrs``
holds counts taken at the boundary, such as ticks or whether a cell shift
happened.  Spans stay in memory; the benchmark reduces them per pass.
"""
from __future__ import annotations

import functools
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; ``context`` is copied into each span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context: dict = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, {**self.context, **attrs}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``before(args, kwargs)`` may return state handed to
        ``after(span, args, kwargs, result, state)``, which adds counts to the
        span.  A missing attribute is recorded in ``missing`` and skipped, so
        the affected per-layer metrics read 0 instead of the run failing.
        """
        original = getattr(module, attr, None)
        if original is None:
            target = f"{module.__name__}.{attr}"
            if target not in self.missing:
                self.missing.add(target)
                print(f"perfbench: cannot trace {target}: not found", file=sys.stderr)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.close_span(idx)
            if after is not None:
                after(span, args, kwargs, result, state)
            return result

        self._restore.append((module, attr, original))
        setattr(module, attr, traced)

    def close(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def self_seconds(spans: list[Span], idx: int) -> float:
    """Duration of span ``idx`` minus the time covered by its direct children."""
    span = spans[idx]
    children = sum(s.seconds for s in spans[idx + 1:] if s.parent == idx)
    return span.seconds - children
