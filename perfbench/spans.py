"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent) for one call into a layer; the
tracer's ``run_id`` ties together the spans of one replayed CLI run.
Everything stays in memory until the benchmark ends and writes it out.

A disabled tracer runs exactly the same replay code with no-op spans and
counters, so the traced and untraced replays differ only by the cost of
recording, which is what ``trace_overhead_frac`` measures.
"""

import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        self.parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append(None)  # reserve the slot so children can name it
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (self.name, self.start, end, self.parent)
        return False


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans and counters of one replayed run."""

    def __init__(self, run_id: int = 0, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        if self.enabled and value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    # -- aggregation ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for (n, start, end, _) in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def children_total(self, parent_name: str) -> float:
        """Summed duration of the direct children of every span ``parent_name``."""
        parents = {i for i, span in enumerate(self.spans) if span[0] == parent_name}
        return sum(end - start for (_, start, end, p) in self.spans if p in parents)

    def write_jsonl(self, fh) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            record = {
                "run": self.run_id,
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent < 0 else parent,
            }
            fh.write(json.dumps(record) + "\n")
        fh.write(
            json.dumps({"run": self.run_id, "counts": dict(self.counts), "peaks": self.peaks})
            + "\n"
        )
