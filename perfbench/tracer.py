"""Spans around the library's module attributes, recorded from outside.

The tracer replaces attributes such as ``expconv.training.layer_forward``
with wrappers that open a span (name, start, end, parent) around the
original call and attach counts computed from its arguments and result.
Nothing under ``src/`` changes: the library calls through its module
globals, so a replaced attribute is what it calls. ``uninstall`` puts the
originals back, so an untraced run pays nothing.

Spans stay in memory; ``dump`` writes them out once at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, span_id: int, name: str, parent: int | None,
                 start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (which never
        overlap: the program is single-threaded)."""
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []  # (module, attribute, original, wrapper)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name,
                    parent.id if parent else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.duration

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def count(self, counts: dict) -> None:
        """Add counts to the innermost open span."""
        if self._stack:
            target = self._stack[-1].counts
            for key, value in counts.items():
                target[key] = target.get(key, 0) + value

    def wrap(self, module, attr: str, name: str | None = None,
             counter=None) -> None:
        """Register a wrapper for ``module.attr``.

        With a name, each call opens a span of that name. ``counter``
        maps (args, kwargs, result) to a dict of counts, added to the
        call's span, or to the enclosing span when there is no name.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
                if counter is not None:
                    self.count(counter(args, kwargs, result))
                return result
            with self.span(name):
                result = original(*args, **kwargs)
                if counter is not None:
                    self.count(counter(args, kwargs, result))
            return result

        self.patch(module, attr, wrapper)

    def patch(self, module, attr: str, replacement) -> None:
        """Register ``replacement`` to stand in for ``module.attr``."""
        self._patches.append((module, attr, getattr(module, attr),
                              replacement))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def root(self, name: str):
        """Install the wrappers for the duration of one root span."""
        self.install()
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    # ----------------------------------------------------------------------
    # Aggregation

    def root_totals(self) -> list[tuple[str, dict]]:
        """For each root span (an operation of the benchmark): its name and
        per-name totals over its subtree, keyed ``<name>.s``,
        ``<name>.self_s``, ``<name>.calls`` and ``<name>.<count>``."""
        root_of = {}
        totals = {}
        roots = []
        for span in self.spans:  # parents are recorded before children
            if span.parent is None:
                root_of[span.id] = span.id
                totals[span.id] = {}
                roots.append(span)
            else:
                root_of[span.id] = root_of[span.parent]
            acc = totals[root_of[span.id]]
            for key, value in ((".s", span.duration), (".self_s", span.self_s),
                               (".calls", 1), *((f".{k}", v) for k, v
                                                in span.counts.items())):
                acc[span.name + key] = acc.get(span.name + key, 0) + value
        return [(root.name, totals[root.id]) for root in roots]

    def typical(self) -> dict:
        """Per key: the median over roots of one name, summed over root
        names, so a key reads as one typical operation of each kind."""
        by_root = {}
        for root_name, acc in self.root_totals():
            by_root.setdefault(root_name, []).append(acc)
        out = {}
        for accs in by_root.values():
            for key in set().union(*accs):
                out[key] = out.get(key, 0) + statistics.median(
                    acc.get(key, 0) for acc in accs)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": s.id, "name": s.name, "parent": s.parent,
                        "start": s.start, "end": s.end, "counts": s.counts}
                       for s in self.spans], fh)
