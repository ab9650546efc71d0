"""In-memory spans around the benchmark's calls into the package.

Nothing inside ``src/`` is instrumented: the benchmark routes each call it
makes into a layer's public function through :meth:`Tracer.call`, which
records one span per call. Every span hangs under a root span (one per op,
per check, or for set-up) and carries that root's op id, so self time can be
attributed per layer and per phase. Tracing off means :class:`NullTracer`,
whose ``call`` is a plain call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into the span list
    op_id: int
    phase: str
    error: str | None = None  # exception type raised in this span and not below it


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def root(self, phase: str, op_id: int):
        yield

    def count(self, name: str, amount: int) -> None:
        pass


class Tracer:
    """Tracing on: one :class:`Span` per call, plus work counts by name."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()  # "<layer>.failed.<Type>" -> ops failed
        self._stack: list[int] = []
        self._last_error: BaseException | None = None

    def _open(self, name: str, phase: str | None = None, op_id: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            phase, op_id = self.spans[parent].phase, self.spans[parent].op_id
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, op_id, phase))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, exc: BaseException | None) -> None:
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        # an exception crosses every enclosing span; charge it to the innermost,
        # and count it as a failure only when an op (not a check) raised it
        if exc is not None and exc is not self._last_error:
            self._last_error = exc
            span.error = type(exc).__name__
            if span.phase == "op":
                layer = span.name.split(".", 1)[0]
                self.failures[f"{layer}.failed.{span.error}"] += 1

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(idx, exc)
            raise
        self._close(idx, None)
        return out

    @contextmanager
    def root(self, phase: str, op_id: int):
        idx = self._open(phase, phase, op_id)
        try:
            yield
        except BaseException as exc:
            self._close(idx, exc)
            raise
        self._close(idx, None)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "parent": s.parent, "op": s.op_id,
                                     "phase": s.phase, "error": s.error}) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged, so
    overlapping children are not subtracted twice)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start_ns, p.start_ns), min(s.end_ns, p.end_ns)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end_ns - s.start_ns - covered)
    return out


def self_seconds_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {phase: total self seconds}}`` over all spans."""
    out: dict[str, dict[str, float]] = {}
    for s, ns in zip(spans, self_times_ns(spans)):
        by_phase = out.setdefault(s.name, {})
        by_phase[s.phase] = by_phase.get(s.phase, 0.0) + ns / 1e9
    return out
