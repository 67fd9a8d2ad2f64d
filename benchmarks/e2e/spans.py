"""Spans recorded from outside the program, at layer boundaries.

The benchmark installs wrappers on *instance attributes* of the objects
it built (``gateway.handle_raw``, ``node.apply_transactions``,
``kv.get`` ...), so nothing under ``src/`` changes and an untraced run
executes the program exactly as shipped.  Spans stay in memory until the
run ends; a wrap point that no longer exists is listed in
:attr:`Recorder.missing` instead of failing the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

from loadgen import percentile


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no parent on this thread
    name: str
    thread: int
    start: float
    end: float
    phase: str
    block: int | None  # block height the span worked on, when it has one
    n: int | None  # how many transactions the span handled, when countable


class Recorder:
    """Collects spans; one per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.phase = "setup"
        self._clock = clock
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the body may put ``block`` and
        ``n`` into."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        notes: dict = {}
        start = self._clock()
        try:
            yield notes
        finally:
            end = self._clock()
            stack.pop()
            self.spans.append(Span(
                span_id, parent, name, threading.get_ident(), start, end,
                self.phase, notes.get("block"), notes.get("n"),
            ))

    def wrap(self, obj, attr: str, name: str, annotate=None) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``annotate(result, args)`` returns ``(block, n)`` for the span.
        """
        inner = getattr(obj, attr, None)
        if inner is None:
            self.missing.append(name)
            return

        def wrapper(*args, **kwargs):
            with self.span(name) as notes:
                result = inner(*args, **kwargs)
                if annotate is not None:
                    notes["block"], notes["n"] = annotate(result, args)
                return result

        setattr(obj, attr, wrapper)

    def wrap_exit(self, obj, attr: str, name: str) -> None:
        """``obj.attr()`` returns a context manager; record its exit
        (for ``kv.block_batch`` that is the whole storage commit)."""
        factory = getattr(obj, attr, None)
        if factory is None:
            self.missing.append(name)
            return
        recorder = self

        class _TimedExit:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return self._inner.__enter__()

            def __exit__(self, *exc):
                with recorder.span(name):
                    return self._inner.__exit__(*exc)

        setattr(obj, attr, lambda *a, **k: _TimedExit(factory(*a, **k)))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def summarize(spans: list[Span]) -> dict[str, dict[str, dict]]:
    """``{phase: {key: {count, total_s, self_s, p50_ms, p95_ms, n, hits}}}``.

    Every span is counted under its own name and, when it has a parent,
    under ``parent>name`` too, so a layer called from two places (the
    store's ``write_batch`` from the engine and from the block write)
    can be told apart.  ``hits`` counts the spans that handled at least
    one transaction (a producer beat that cut a block, a pre-verify pass
    that moved something).
    """
    names = {span.id: span.name for span in spans}
    selfs = self_times(spans)
    groups: dict[tuple[str, str], list[Span]] = {}
    for span in spans:
        groups.setdefault((span.phase, span.name), []).append(span)
        parent = names.get(span.parent)
        if parent is not None:
            groups.setdefault(
                (span.phase, f"{parent}>{span.name}"), []).append(span)
    summary: dict[str, dict[str, dict]] = {}
    for (phase, key), members in groups.items():
        durations = [s.end - s.start for s in members]
        summary.setdefault(phase, {})[key] = {
            "count": len(members),
            "total_s": sum(durations),
            "self_s": sum(selfs[s.id] for s in members),
            "p50_ms": percentile(durations, 0.5) * 1e3,
            "p95_ms": percentile(durations, 0.95) * 1e3,
            "n": sum(s.n or 0 for s in members),
            "hits": sum(1 for s in members if s.n),
        }
    return summary


def write_chrome_trace(spans: list[Span], path: str, pid: int) -> None:
    """Chrome ``chrome://tracing`` / Perfetto JSON, one X event per span."""
    events = [
        {
            "name": span.name, "ph": "X", "pid": pid, "tid": span.thread,
            "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
            "args": {"id": span.id, "parent": span.parent,
                     "phase": span.phase, "block": span.block, "n": span.n},
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh)
