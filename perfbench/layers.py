"""Traced mode: timers on the sim/noise entry points and the layer table.

The benchmark records its own spans (``repro.telemetry.Tracer``) around
the calls it makes into each layer.  Three layers are only reached from
inside the backend, so for the traced pass alone their public methods are
wrapped with timers (:func:`wrapped_layers`) and restored afterwards; an
untraced pass runs the program untouched.

A span's *total* counts only spans not nested in a span of the same name
(a stacked call that falls back to the single-circuit one is not counted
twice); its *self* time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.noise.sampler import NoisySampler
from repro.sim.statevector import StatevectorSimulator
from repro.telemetry.trace import Span, Tracer, get_tracer, use_tracer

#: (span name, class, method) of the entry points timed by wrapping.
WRAPPED = (
    ("sim.statevector", StatevectorSimulator, "probabilities"),
    ("sim.statevector", StatevectorSimulator, "probabilities_stacked"),
    ("noise.exact_channel", NoisySampler, "exact_group_distributions"),
    ("noise.sample", NoisySampler, "sample_group_codes"),
)


def _timed(span_name: str, method):
    def wrapper(self, *args, **kwargs):
        attrs = {}
        if span_name == "noise.sample":
            shots = args[1] if len(args) > 1 else kwargs["shots_list"]
            attrs["trials"] = int(sum(shots))
        # The active tracer: the benchmark's on its own thread, the
        # serving tier's on a drain worker.
        with get_tracer().span(span_name, **attrs):
            return method(self, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def wrapped_layers() -> Iterator[None]:
    """Time the sim/noise entry points for the duration of the block."""
    originals = [(cls, attr, cls.__dict__[attr]) for _, cls, attr in WRAPPED]
    for name, cls, attr in WRAPPED:
        setattr(cls, attr, _timed(name, cls.__dict__[attr]))
    try:
        yield
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def span_cost(samples: int = 20_000) -> float:
    """Measured seconds one wrapped call adds: the wrapper plus its span."""
    tracer = Tracer(max_spans=samples)
    timed = _timed("cost.probe", lambda self: None)
    with use_tracer(tracer):
        start = time.perf_counter()
        for _ in range(samples):
            timed(None)
        traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        (lambda self: None)(None)
    bare = time.perf_counter() - start
    return max(0.0, traced - bare) / samples


class LayerTable:
    """Per-span-name count, total and self time over spans of several tracers.

    Span ids are unique per tracer only, so each tracer's spans are one
    source and parents are looked up within it.
    """

    def __init__(self, sources: Iterable[Iterable[Span]]) -> None:
        self.spans = []
        by_id: Dict[tuple, Span] = {}
        parent_of: Dict[int, Optional[tuple]] = {}
        for index, spans in enumerate(sources):
            for span in spans:
                if span.duration is None:
                    continue
                self.spans.append(span)
                by_id[(index, span.span_id)] = span
                parent_of[id(span)] = (
                    (index, span.parent_id) if span.parent_id is not None else None
                )
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = by_id.get(parent_of[id(span)])
            if parent is not None:
                child_time[id(parent)] += span.duration
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        # The serving tier stamps one merged execution on every job it
        # carried: an interval is counted once however often it is filed.
        intervals = set()
        for span in self.spans:
            self.count[span.name] += 1
            interval = (span.name, span.start, span.duration)
            if interval in intervals:
                continue
            intervals.add(interval)
            self.self_time[span.name] += max(
                0.0, span.duration - child_time[id(span)]
            )
            if not _nested_in_same_name(span, by_id, parent_of):
                self.total[span.name] += span.duration

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def attrs_sum(self, name: str, attr: str) -> int:
        return sum(
            int(s.attrs.get(attr, 0)) for s in self.spans if s.name == name
        )

    def render(self, wall_s: Optional[float] = None, roots: Sequence[str] = ()) -> str:
        rows = [f"{'span':<22} {'count':>7} {'total_s':>10} {'self_s':>10}"]
        for name in sorted(self.total, key=lambda n: -self.total[n]):
            rows.append(
                f"{name:<22} {self.count[name]:>7} {self.total[name]:>10.4f} "
                f"{self.self_time[name]:>10.4f}"
            )
        if wall_s is not None and roots:
            covered = self.total_of(*roots)
            rows.append(
                f"timed phase {wall_s:.4f} s: layers {covered:.4f} s "
                f"({covered / wall_s:.1%}), unattributed {wall_s - covered:.4f} s"
            )
        return "\n".join(rows)


def _nested_in_same_name(span: Span, by_id, parent_of) -> bool:
    parent = by_id.get(parent_of[id(span)])
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent_of[id(parent)])
    return False

