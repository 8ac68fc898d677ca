"""Wall-clock spans recorded from outside the program under test.

The traced run wraps the public methods of each layer's instance (the
pipeline's cookie cache, switches, report codec, worker handle and the
workload's event stream) so that every call leaves one span: name,
start, end, parent span and the number of items it returned.  Spans are
kept in memory and written out once, after the run.

A layer's cost is its *self* time: the span's duration minus the part
of it that child spans cover.  ``AggregationCodec.encode`` runs nested
inside ``LarkSwitch.process_quic_columnar`` and ``end_period``, so
summing raw durations would count it twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

# A span is [name, start_s, end_s, parent_index (-1 for a root), items].
Span = List[Any]


class SpanRecorder:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.enabled = True
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if isinstance(result, (list, tuple)):
                span[4] = len(result)
            return result

        return traced

    def wrap_public(self, obj: Any, layer: str) -> None:
        """Wrap every public method of ``obj``'s class on the instance,
        so a batched entry point added later is traced too."""
        cls = type(obj)
        for attr in dir(cls):
            if attr.startswith("_"):
                continue
            if not inspect.isfunction(inspect.getattr_static(cls, attr)):
                continue
            setattr(obj, attr, self.wrap(getattr(obj, attr), layer + "." + attr))

    def export(self) -> Dict[str, Any]:
        return {
            "run": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent", "items"],
            "spans": self.spans,
        }


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), never below zero."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, end - start - covered))
    return out


def attribute(
    spans: Sequence[Span], metric_of: Callable[[str], Optional[str]]
) -> Dict[str, float]:
    """Sum self times per metric name (``metric_of(span name)``; spans
    mapping to ``None`` are dropped)."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        metric = metric_of(span[0])
        if metric is not None:
            totals[metric] += own
    return dict(totals)


def coverage(spans: Sequence[Span]) -> float:
    """Share of root-span wall time that the non-root spans' self time
    accounts for.  What is left is the root's own (untraced) code."""
    own = self_times(spans)
    wall = sum(s[2] - s[1] for s in spans if s[3] < 0)
    if wall <= 0:
        return 0.0
    layers = sum(t for s, t in zip(spans, own) if s[3] >= 0)
    return layers / wall
