"""In-memory spans recorded around names the pipeline looks up at call time.

The tracer replaces a module attribute (or a class attribute) with a
wrapper that records one span per call: name, start, end, parent span and
run id, plus an optional annotation computed from the call's result.
Nothing inside the package is edited; ``uninstall`` puts every original
back. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

# Span layout: [name, start, end, parent index (-1 for a root), run id, annotation]
NAME, START, END, PARENT, RUN, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span name, annotate)`` target."""
        for owner, attr, name, annotate in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, annotate))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[NOTE] = annotate(result, args, kwargs)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, note in self.spans:
                fh.write(json.dumps([name, start, end, parent, run, note]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def ancestor_names(spans: list[list]) -> list[frozenset[str]]:
    """Names of every enclosing span, per span (parents precede children)."""
    out: list[frozenset[str]] = []
    for s in spans:
        p = s[PARENT]
        out.append(frozenset() if p < 0 else out[p] | {spans[p][NAME]})
    return out
