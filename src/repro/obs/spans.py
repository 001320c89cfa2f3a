"""Trace spans layered on :class:`repro.perf.timers.PhaseTimers`.

The perf timers already bracket the hot phases of a training run
(``forward`` / ``env_step`` / ``update`` …) but only keep totals.  A
:class:`SpanRecorder` attaches to a timer registry's ``span_sink`` hook
and captures every individual section as a ``(name, start, duration)``
span, exportable in Chrome trace-event format (load it in
``chrome://tracing`` or Perfetto) — so the same per-phase
instrumentation becomes a timeline.

Spans record wall-clock only; attaching a recorder never touches any
RNG stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.perf.timers import PhaseTimers

#: Default filename inside a run directory.
TRACE_FILENAME = "trace.json"


@dataclass(frozen=True)
class Span:
    """One timed section occurrence."""

    name: str
    start_s: float
    duration_s: float


class SpanRecorder:
    """Collects individual timer sections as exportable trace spans."""

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans <= 0:
            raise ConfigError("max_spans must be positive")
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._timers: PhaseTimers | None = None
        # Bound once: ``self.record`` creates a new bound-method object
        # on every access, so identity checks need a stable reference.
        self._sink = self.record

    # ------------------------------------------------------------------
    def attach(self, timers: PhaseTimers) -> None:
        """Start receiving spans from ``timers`` (and enable them)."""
        if timers.span_sink is not None and timers.span_sink is not self._sink:
            raise ConfigError("timers already have a span sink attached")
        timers.span_sink = self._sink
        timers.enable()
        self._timers = timers

    def detach(self) -> None:
        """Stop receiving spans (leaves the timers enabled)."""
        if self._timers is not None and self._timers.span_sink is self._sink:
            self._timers.span_sink = None
        self._timers = None

    def record(self, name: str, start_s: float, duration_s: float) -> None:
        """Sink callback invoked by the timers at section exit."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(name, start_s, duration_s))

    # ------------------------------------------------------------------
    def export_chrome_trace(self, path: str | os.PathLike) -> str:
        """Write spans in Chrome trace-event format (complete 'X' events)."""
        path = os.fspath(path)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 0,
                "tid": 0,
            }
            for span in self.spans
        ]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if self.dropped:
            payload["droppedSpans"] = self.dropped
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    def totals(self) -> dict[str, float]:
        """Accumulated seconds per section (sanity check vs the timers)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals
