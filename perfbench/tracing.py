"""Span recorders wrapped around the toolkit's public functions, from outside.

The traced run calls `nodemetry.cli.main(argv)` in-process with each public
function replaced, at the name other modules call it by, by a wrapper that
records a span (name, start, end, parent id, thread) and, in a separate
`trace.count` span, the work counts of that call. Nothing in the toolkit
changes. Spans stay in memory and are written as JSON lines at the end.

Self time is a span's duration minus the part of it that its child spans
cover; per command, the time no child span covers is `unattributed`.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MB = 1e6


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters from every thread of one traced pass.

    A span opened in a thread with no open span of its own (an eval worker)
    takes the current command span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._command: int | None = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._command
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    @contextmanager
    def command(self, name: str):
        with self.span(f"cli.{name}") as sid:
            self._command = sid
            try:
                yield sid
            finally:
                self._command = None

    def add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)


def _count_read(rec, result, args):
    rec.add({"nifti_io.files": 1, "nifti_io.read_mb": result.data.nbytes / MB})


def _count_write(rec, result, args):
    # every grid the CLI writes is stored in its in-memory dtype
    rec.add({"nifti_io.files": 1, "nifti_io.write_mb": args[0].data.nbytes / MB})


def _count_label(rec, cset, args):
    grid = cset.component_of.size  # the labeled grid has the shape of the mask
    rec.add({"components.calls": 1, "components.fg_voxels": int(cset.sizes.sum()),
             "components.grid_voxels": grid, "components.count": cset.count})


def _count_measure(rec, result, args):
    cset = args[0]
    slices = sum(np.unique(cset.voxels(i)[:, 2]).size for i in range(1, cset.count + 1))
    rec.add({"morphometry.nodes": cset.count, "morphometry.slices": slices,
             "morphometry.footprint_points": 4 * int(cset.sizes.sum())})


def _count_loss(rec, result, args):
    # the float64 copy of the class stack plus one float64 one-hot grid per class
    rec.add({"metrics.loss_mb": 2 * args[0].data.size * 8 / MB})


def _count_stack(rec, result, args):
    rec.peak("ensemble.stack_mb", sum(v.data.nbytes for v in args[0].members) / MB)


# (module, attribute, span name, counter); a function imported by name into
# another module is wrapped there too, since that is the name its callers use
TARGETS = (
    ("nodemetry.cli", "read_volume", "nifti_io.read", _count_read),
    ("nodemetry.cli", "write_volume", "nifti_io.write", _count_write),
    ("nodemetry.cli", "canonicalize", "volume.canonicalize", None),
    ("nodemetry.metrics", "canonicalize", "volume.canonicalize", None),
    ("nodemetry.cli", "label_components", "components.label", _count_label),
    ("nodemetry.metrics", "label_components", "components.label", _count_label),
    ("nodemetry.morphometry", "measure_components", "morphometry.measure", _count_measure),
    ("nodemetry.metrics", "measure_components", "morphometry.measure", _count_measure),
    ("nodemetry.fusion", "fuse", "fusion.fuse", None),
    ("nodemetry.fusion", "extract_class", "fusion.extract_class", None),
    ("nodemetry.metrics", "evaluate_patient", "metrics.evaluate_patient", None),
    ("nodemetry.metrics", "aggregate", "metrics.aggregate", None),
    ("nodemetry.metrics", "composite_loss", "metrics.composite_loss", _count_loss),
    ("nodemetry.ensemble", "average_probabilities", "ensemble.average", _count_stack),
    ("nodemetry.ensemble", "argmax_labels", "ensemble.argmax", None),
    ("nodemetry.ensemble", "majority_vote", "ensemble.majority_vote", _count_stack),
)
SETUP_TARGETS = (("nodemetry.phantom", "generate", "phantom.generate", None),)


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            # counted outside the layer's span; layer_totals takes the count's
            # time out of the spans that enclose it
            with rec.span("trace.count"):
                counter(rec, result, args)
        return result
    return wrapper


@contextmanager
def installed(rec: Recorder, targets=TARGETS):
    """Replace each target attribute by its recording wrapper for the block."""
    saved = []
    try:
        for module_name, attr, name, counter in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(rec, name, fn, counter))
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: s.duration - _covered((max(c.start, s.start), min(c.end, s.end))
                                        for c in children[s.id])
            for s in spans}


def _counting_time(spans: list[Span]) -> dict[int, float]:
    """Span id -> time of the trace.count spans nested anywhere inside it."""
    by_id = {s.id: s for s in spans}
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name == "trace.count":
            parent = by_id.get(s.parent)
            while parent is not None:
                out[parent.id] += s.duration
                parent = by_id.get(parent.parent)
    return out


def layer_totals(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass: summed span time (`<name>_s`)
    less the counting nested in it, self time of evaluate_patient,
    unattributed time per command, counters."""
    selfs = self_times(rec.spans)
    counting = _counting_time(rec.spans)
    out: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        if s.name.startswith("cli."):
            out[f"{s.name}.unattributed_s"] += selfs[s.id]
        elif s.name != "trace.count":
            out[f"{s.name}_s"] += s.duration - counting[s.id]
        if s.name == "metrics.evaluate_patient":
            out["metrics.evaluate_patient_self_s"] += selfs[s.id]
    out.update(rec.counts)
    return dict(out)


def write_jsonl(path, passes: list[Recorder], origin: float) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for number, rec in enumerate(passes):
            for s in sorted(rec.spans, key=lambda s: s.start):
                f.write(json.dumps({"pass": number, "id": s.id, "name": s.name,
                                    "start": round(s.start - origin, 6),
                                    "end": round(s.end - origin, 6),
                                    "parent": s.parent, "thread": s.thread}) + "\n")
