"""Spans and seam wrappers for the traced benchmark run.

Everything here sits outside the package: spans are recorded around calls
the benchmark makes into censusflow's public functions and through the seams
``RunConfig`` injects (transport, workers, scheduler, on_transition). Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    """In-memory spans: (id, name, start, end, parent), times in seconds.

    The parent of a span is the innermost open span on the same thread; a
    span opened on a pool thread with nothing open there hangs off the
    current job span, so every span of one job shares that job's root.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    @contextmanager
    def job(self, name: str):
        """A root span; spans opened on pool threads during it hang off it."""
        with self.span(name, parent=0) as span_id:
            previous, self.root = self.root, span_id
            try:
                yield span_id
            finally:
                self.root = previous

    def write(self, path: Path, meta: dict) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        spans = [
            {"id": i, "name": n, "start_s": s - origin, "end_s": e - origin, "parent": p}
            for i, n, s, e, p in sorted(self.spans, key=lambda s: s[2])
        ]
        doc = {"meta": meta, "spans": spans}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


class TracedTransport:
    """Transport seam: counts calls, failures (each one is retried by the
    caller while attempts remain) and time spent in the transport."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0
        self.failures = 0
        self.busy_s = 0.0
        self.first_call: float | None = None
        self._lock = threading.Lock()

    def get(self, url, timeout_ms):
        start = time.perf_counter()
        failed = False
        try:
            with self.tracer.span("iiif.transport.get"):
                return self.inner.get(url, timeout_ms)
        except Exception:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.calls += 1
                self.failures += failed
                self.busy_s += elapsed
                if self.first_call is None or start < self.first_call:
                    self.first_call = start


class TracedModel:
    """Worker seam: wraps a classifier or recognizer object of a WorkerSet,
    timing each call and keeping what the recognizer returned."""

    def __init__(self, inner, tracer: Tracer, method: str):
        self.inner = inner
        self.tracer = tracer
        self.method = method
        self.version = getattr(inner, "version", "unknown")
        self.calls = 0
        self.busy_s = 0.0
        self.outputs: list = []
        self._lock = threading.Lock()

    def _call(self, image_bytes):
        start = time.perf_counter()
        try:
            with self.tracer.span(f"workers.{self.method}"):
                out = getattr(self.inner, self.method)(image_bytes)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.calls += 1
                self.busy_s += elapsed
        self.outputs.append(out)
        return out

    def classify(self, image_bytes):
        return self._call(image_bytes)

    def recognize(self, image_bytes):
        return self._call(image_bytes)


class TracedScheduler:
    """Scheduler seam: times each ``run`` call; task functions executed on
    pool threads open their spans under it."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.isolated_compute = inner.isolated_compute
        self.intervals: list[tuple[float, float]] = []

    def run(self, stage, items, fn):
        with self.tracer.span(f"schedulers.run.{stage}") as span_id:
            start = time.perf_counter()

            def traced(item):
                with self.tracer.span(f"stages.{stage}.task", parent=span_id):
                    return fn(item)

            try:
                return self.inner.run(stage, items, traced)
            finally:
                self.intervals.append((start, time.perf_counter()))

    def shutdown(self):
        self.inner.shutdown()


class TransitionRecorder:
    """``on_transition`` seam: records (time, task id, new state) per call.

    ``advance`` calls the hook on the runner's own thread, so appends never
    race.
    """

    def __init__(self):
        self.events: list[tuple[float, str, object]] = []

    def __call__(self, manifest) -> None:
        self.events.append((time.perf_counter(), manifest.task_id, manifest.state))


_PRESTAGE = {("PENDING", "STAGED"), ("PENDING", "FAILED")}
_PROCESS = {("STAGED", "PROCESSING"), ("STAGED", "FAILED"),
            ("PROCESSING", "PROCESSED"), ("PROCESSING", "FAILED")}
_BURSTS = {("STAGED", "PROCESSING"), ("PROCESSING", "PROCESSED")}


def stage_times(recorder: TransitionRecorder, scheduler: TracedScheduler,
                start: float, initial: dict[str, str]) -> dict[str, float]:
    """Split a run_batch call into pre-stage, process and integrate time.

    Within a window the stages run one after another. Marks are the
    recorded transitions plus the start and end of each ``scheduler.run``;
    a pre-stage segment runs from the end of the previous segment (or
    ``start``) to its last pre-stage transition, an integrate segment from
    the last process mark to its last integrate transition. Process time is
    the wall time of the wrapped ``scheduler.run`` calls. The median gap
    between consecutive transitions inside the STAGED->PROCESSING and
    PROCESSING->PROCESSED loops is the cost of one persisted transition.
    """
    state = dict(initial)
    marks: list[tuple[float, str]] = []
    gaps: list[float] = []
    previous: tuple[float, tuple[str, str]] | None = None
    for at, task_id, new_state in recorder.events:
        kind = (state.get(task_id, "PENDING"), new_state.value)
        state[task_id] = new_state.value
        category = "prestage" if kind in _PRESTAGE else "process" if kind in _PROCESS else "integrate"
        marks.append((at, category))
        if previous is not None and kind in _BURSTS and previous[1] == kind:
            gaps.append(at - previous[0])
        previous = (at, kind)
    for s, e in scheduler.intervals:
        marks += [(s, "process"), (e, "process")]
    marks.sort()

    totals = {"prestage": 0.0, "integrate": 0.0}
    seg_start, category, last = start, None, start
    for at, cat in marks + [(float("inf"), None)]:
        if cat != category:
            if category in totals:
                totals[category] += last - seg_start
            seg_start, category = last, cat
        last = at
    return {
        "stages.prestage_s": totals["prestage"],
        "stages.process_s": sum(e - s for s, e in scheduler.intervals),
        "stages.integrate_s": totals["integrate"],
        "manifests.transition_us": median(gaps) * 1e6 if gaps else 0.0,
        "manifests.transitions": len(recorder.events),
    }
