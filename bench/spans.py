"""In-memory span recorder for the traced run.

A span is (name, start, end, parent index).  Spans stay in memory while the
run executes and are written out once, when it ends.  ``NULL`` records
nothing, so the same call path runs traced and untraced.

A *re-timed* span stands for work its parent did without a span of its own
(``chains.run`` builds its start and its kept states inside one call).  The
work is run again on the same inputs after the parent's job has ended, so
its start and end are those of the re-run; its duration counts against the
parent's self time like any child's.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

LAYERS = ("cli", "core", "realizability", "analysis", "chains", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def retime(self, parent: int, name: str, fn) -> float:
        """Run ``fn`` as a re-timed child of the closed span ``parent``;
        returns its seconds."""
        start = perf_counter()
        fn()
        end = perf_counter()
        self.spans.append([name, start, end, parent])
        return end - start

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer; a span's layer is its name's prefix."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += own
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
            )


class _NullTracer:
    _ctx = contextlib.nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = _NullTracer()
