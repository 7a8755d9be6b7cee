"""Deterministic tracing: spans timed by the simulated clock.

A :class:`Span` is one timed block of work — a refresh cycle, a
validation run, a monitor epoch — stamped with *simulated* start and end
times.  Because the simulation's :class:`repro.simtime.Clock` only moves
when code advances it, two identical runs produce identical span logs;
there is deliberately no wall-clock fallback (the determinism lint in
``tools/check_telemetry_names.py`` keeps it that way).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span"]


@dataclass
class Span:
    """One timed block, in simulated seconds since the epoch."""

    name: str
    start: float
    end: float | None = None
    labels: dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            start=data["start"],
            end=data.get("end"),
            labels=dict(data.get("labels", {})),
        )

    def __str__(self) -> str:
        label_text = "".join(
            f" {k}={v}" for k, v in sorted(self.labels.items())
        )
        end = "…" if self.end is None else f"{self.end:g}"
        return f"{self.name}[{self.start:g}..{end}]{label_text}"


@contextmanager
def trace_into(spans, histogram, clock, labelvalues: dict):
    """Implementation behind :meth:`MetricsRegistry.trace`.

    Appends the span immediately (so an exception mid-block still leaves
    an open span in the log), closes it on exit, and observes the
    duration into *histogram*.
    """
    span = Span(name=histogram.name, start=clock.now, labels=dict(labelvalues))
    spans.append(span)
    try:
        yield span
    finally:
        span.end = clock.now
        histogram.observe(span.duration, **labelvalues)
