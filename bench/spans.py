"""In-memory span tracer used by the benchmark runner (run.py).

Spans are opened by the benchmark around its calls into harmex; nothing inside
the library is traced.  Each span records its name, start, end, the span
that caused it and the job it belongs to.  An optional ``counts`` callable is
evaluated when the span closes, after its end time is taken, so counting
work costs job time but never span time.  Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str, counts=None):
        sp = Span(
            len(self.spans),
            name,
            self._stack[-1] if self._stack else None,
            self.job,
            time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            sp.counts = counts()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        self_t = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                self_t[sp.parent] -= sp.duration
        return self_t

    def write_jsonl(self, path) -> None:
        self_t = self.self_times()
        with open(path, "w") as fh:
            for sp, st in zip(self.spans, self_t):
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "name": sp.name,
                            "parent": sp.parent,
                            "job": sp.job,
                            "start_s": sp.start,
                            "end_s": sp.end,
                            "self_s": st,
                            "counts": sp.counts,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for a Tracer in untraced jobs: no records, no counting."""

    def span(self, name: str, counts=None):
        return nullcontext()


NULL_TRACER = NullTracer()
