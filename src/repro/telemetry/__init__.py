"""Metrics and tracing for every layer of the reproduction.

A dependency-free observability substrate: Prometheus-style counters,
gauges, and fixed-bucket histograms in a :class:`MetricsRegistry`, plus
:class:`Span` tracing driven by the simulated clock so that identical
runs emit identical telemetry.  Every instrumented constructor takes a
keyword-only ``registry`` (``None`` → the process-global
:func:`default_registry`), which is how per-relying-party registries are
wired.

Metric names are a stable public API — see ``docs/telemetry.md`` for the
full inventory and the naming rules (``repro_`` prefix, ``snake_case``)
that ``tools/check_telemetry_names.py`` enforces.
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
    default_registry,
)
from .render import render_json, render_text
from .tracing import Span

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "default_registry",
    "render_json",
    "render_text",
]
