"""In-memory spans recorded around the package's public layer calls.

A span is (layer, start, end, parent, attrs), timed on the process CPU clock
like the operations around it.  Spans are kept in a list and summarised
when the run ends; nothing is written while measuring.  The
benchmark opens spans around its own calls into the package and, for calls
the package makes internally (``experiments.integrate`` and the like),
replaces the module attribute with a wrapper for the traced phase only.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, layer: str, **attrs):
        record = [layer, time.process_time(), None,
                  self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = time.process_time()

    def wrap(self, owner, attr: str, layer: str, describe=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`restore`.

        ``describe(attrs, args, kwargs, result)`` fills the span's attributes
        after the span has closed, so its cost is not charged to the layer.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(layer) as attrs:
                result = original(*args, **kwargs)
            if describe is not None:
                describe(attrs, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def by_layer(self) -> dict[str, dict]:
        """Per layer: span count, total time and self time (minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def covered_s(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def of(self, layer: str):
        return [s for s in self.spans if s[0] == layer]


class NullTracer:
    """Stand-in for untraced phases: spans cost one call and record nothing."""

    _null = nullcontext({})

    def span(self, layer: str, **attrs):
        return self._null
