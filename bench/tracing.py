"""Span recorder that wraps the package's functions from outside.

A span is one call of a wrapped function: its layer name, start, end and the
index of the enclosing span. Spans stay in memory and are summarised once the
repetition ends. Nothing under ``src/`` knows about tracing: the wrappers
replace module attributes and class methods, and ``restore`` puts the
originals back.

Each function is wrapped under the name its caller looks it up by, because
``from .x import y`` copies the reference: wrapping ``propagate.expm_step``
alone would miss every call the optimizer makes through ``optimizer.expm_step``.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``note(args, result)`` may return a value stored with the span, for
        the computed counts. Class attributes are looked up in the class
        ``__dict__`` so that classmethods keep their binding.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        traced = self._span(func, name, note)
        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patched.append((owner, attr, raw))

    def restore(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _span(self, func, name, note):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict:
        """Per layer name: calls, inclusive seconds, self seconds, longest call."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "max_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += own
            row["max_s"] = max(row["max_s"], s[END] - s[START])
        return out

    def children(self, index: int) -> list[list]:
        return [s for s in self.spans if s[PARENT] == index]

    def first(self, name: str) -> int:
        return next(i for i, s in enumerate(self.spans) if s[NAME] == name)
