"""In-memory span recording for the benchmark's traced run.

The program carries no instrumentation of its own.  The traced run wraps
the public entry points of each layer from here (:class:`Patcher`) and
records one span per call: name, start, end, parent and run id.  Spans
stay in memory until the run ends; :func:`write_spans` then writes them
out and :func:`self_times` attributes every traced second to exactly one
span, so the per-layer self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass
class Span:
    """One recorded call (host ``perf_counter`` seconds)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Stack-based recorder for one single-threaded process.

    Only the process that created the recorder records: pool workers
    forked after the wrappers were installed run them as plain calls.
    A call re-entering a span name already open on the stack is not
    recorded again, so a layer's time is never counted twice.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.enabled = False
        self._stack: List[Span] = []
        self._open_names: Set[str] = set()
        self._pid = os.getpid()

    def begin(self, name: str) -> Optional[Span]:
        """Open a span; ``None`` when this call is not recorded."""
        if (
            not self.enabled
            or name in self._open_names
            or os.getpid() != self._pid
        ):
            return None
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        self._open_names.add(name)
        return span

    def end(self, span: Optional[Span], attrs=None) -> None:
        """Close ``span`` (a no-op for unrecorded calls)."""
        if span is None:
            return
        span.end = time.perf_counter()
        span.attrs = attrs
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open_names.discard(span.name)


AttrFn = Callable[[tuple, object], Dict[str, object]]


class Patcher:
    """Installs span-recording wrappers on module functions and methods.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` — a module-level
    function, a method, or a classmethod — with a wrapper that records a
    span named ``name``; ``attrs(args, result)`` may add attributes to the
    span.  :meth:`install` and :meth:`uninstall` swap all wrappers in and
    out together, so untraced and traced operations run the same code.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._targets: List[Tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str,
             attrs: Optional[AttrFn] = None) -> None:
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapper(original.__func__, name, attrs)
            )
        elif isinstance(original, types.FunctionType):
            replacement = self._wrapper(original, name, attrs)
        else:
            raise TypeError(f"cannot wrap {owner!r}.{attr}: {type(original)}")
        self._targets.append((owner, attr, original, replacement))

    def _wrapper(self, fn, name: str, attrs: Optional[AttrFn]):
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.begin(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.end(span)
                raise
            recorder.end(span, attrs(args, result) if attrs else None)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _original, replacement in self._targets:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in reversed(self._targets):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(interval: Tuple[float, float],
             children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }


def descendants(spans: Sequence[Span], root_ids: Iterable[int]) -> List[Span]:
    """The spans at or below ``root_ids`` (spans are in open order)."""
    keep = set(root_ids)
    out = []
    for span in spans:
        if span.span_id in keep or span.parent in keep:
            keep.add(span.span_id)
            out.append(span)
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    """Write the recorded spans as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"spans": [asdict(span) for span in spans]}, handle)
