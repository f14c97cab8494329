"""Spans and counters recorded from the benchmark's own files.

Nothing here reaches inside ``ecat``: a span brackets one call into a public
function, and :class:`CountingBase` counts the calls a law scan makes into a
computed base object by standing between the two.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from ecat.report import WindowExceeded

_NULL = nullcontext()


class NullTracer:
    """The tracer of an untraced run: every hook costs one attribute lookup."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass

    def op(self, label: str) -> None:
        pass


class Tracer:
    """In-memory spans (name, start, end, parent, op) and named counters.

    Spans nest: a span opened inside another records it as its parent, and
    every span carries the label of the operation it ran under.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = ""

    def op(self, label: str) -> None:
        self._op = label

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)


class CountingBase:
    """Delegating view of a base that counts the calls crossing into it.

    Every public method of the wrapped base is replaced by a wrapper that
    counts the attempt and, when the base raises ``WindowExceeded``, the
    refusal. Properties and data attributes are read through unchanged, so
    the law checkers see the same base; calls the base makes on itself are
    not counted.
    """

    def __init__(self, base):
        self._base = base
        self.attempted = 0
        self.window_exceeded = 0
        for name in dir(base):
            if name.startswith("_") or isinstance(getattr(type(base), name, None), property):
                continue
            value = getattr(base, name)
            if callable(value):
                setattr(self, name, self._wrap(value))

    def _wrap(self, fn):
        def counted(*args):
            self.attempted += 1
            try:
                return fn(*args)
            except WindowExceeded:
                self.window_exceeded += 1
                raise

        return counted

    def __getattr__(self, name):
        return getattr(self._base, name)
