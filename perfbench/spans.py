"""In-memory spans around calls into the package, for the traced run only.

The tracer rebinds module and class attributes to wrappers that record a
span per call.  Nothing here is installed in the untraced run.  Spans are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the top
    context: str = ""  # what the benchmark was doing: a variant, "verify", ...
    step: int | None = None  # training step or inference window id
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.context = ""
        self.step: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               context=self.context, step=self.step))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind owner.attr to a spanning wrapper; count(args) adds counts to the span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                if count is not None:
                    self.spans[i].counts.update(count(args))
                self.end(i)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        children: list[list[Span]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        return [self_time(s, kids) for s, kids in zip(self.spans, children)]

    def select(self, name: str, context: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (context is None or s.context == context)]

    def table(self) -> list[dict]:
        """Per (context, name): calls, total and self milliseconds."""
        rows: dict[tuple[str, str], dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = rows.setdefault((s.context, s.name), {
                "context": s.context, "name": s.name, "calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * s.seconds
            row["self_ms"] += 1e3 * own
        return sorted(rows.values(), key=lambda r: (r["context"], -r["self_ms"]))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "table": self.table()}, fh)
