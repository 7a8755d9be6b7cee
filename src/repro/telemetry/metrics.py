"""Dependency-free metrics: counters, gauges, histograms, a registry.

The substrate every performance or robustness claim in this repository
should eventually rest on: before a hot path can be made faster, or a
misbehaving authority detected, the relevant events have to be *counted*.
The design follows the Prometheus data model — named metrics, optional
label dimensions, fixed-bucket histograms — but is implemented from
scratch so the simulation stays free of runtime dependencies.

Two properties matter more here than in an ordinary metrics library:

- **Determinism.**  Nothing in this module reads a real clock; durations
  come from the simulated :class:`repro.simtime.Clock` via
  :meth:`MetricsRegistry.trace`, so two identical runs render identical
  registries byte for byte (renderers sort everything).  Timer seconds
  join a trace only when the registry is built with a ``timer``.
- **Hot-path cost.**  A bound child (:meth:`Metric.bind`) increments with
  one attribute add — ``benchmarks/test_bench_telemetry.py`` holds the
  per-increment cost under 5% of the cheapest instrumented operation.

Metric names must be ``snake_case`` and carry the ``repro_`` prefix; the
registry enforces this at registration time and
``tools/check_telemetry_names.py`` enforces it statically over the source
tree.  Registered names are a *stable public API* (see docs/telemetry.md).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Iterator

from .tracing import TraceNode

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "default_registry",
]

METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)*$")
LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric name, label set, or conflicting registration."""


class Metric:
    """Base class: a named family of per-label-set children.

    A metric with no ``labelnames`` has exactly one child (the empty label
    set); a labeled metric lazily creates one child per distinct label
    value combination.  Children are the fast path: bind once with
    :meth:`bind`, then increment/observe the returned child directly.
    A child is *parked* (not rendered) from :meth:`bind` or :meth:`reset`
    until its next event, so a binding outlives a reset and neither adds
    a zero-valued series.  A :class:`MetricsRegistry` makes every metric,
    and always passes its help text and label names.
    """

    TYPE = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        if not METRIC_NAME_RE.match(name):
            raise MetricError(
                f"metric name {name!r} must be snake_case with the 'repro_' prefix"
            )
        for label in labelnames:
            if not LABEL_NAME_RE.match(label):
                raise MetricError(f"label name {label!r} is not snake_case")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}

    def _child_class(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _key(self, labelvalues: dict[str, str]) -> tuple[str, ...]:
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple(str(labelvalues[n]) for n in self.labelnames)

    def bind(self, **labelvalues: str) -> object:
        """The child for one label-value combination, to keep and count into."""
        key = self._key(labelvalues)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._child_class()()
        return child

    def labels(self, **labelvalues: str) -> object:
        """:meth:`bind`, and the child is rendered from now on."""
        child = self.bind(**labelvalues)
        child.parked = False
        return child

    def _default_child(self):
        child = self._children.get(())
        if child is None:
            if self.labelnames:
                raise MetricError(
                    f"{self.name} requires labels {self.labelnames}"
                )
            child = self._children[()] = self._child_class()()
        child.parked = False
        return child

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        """Yield ``(labels_dict, child)`` unparked, sorted by label values."""
        for key in sorted(self._children):
            child = self._children[key]
            if not child.parked:
                yield dict(zip(self.labelnames, key)), child

    def reset(self) -> None:
        """Zero and park every child; registration and bindings stay."""
        for child in self._children.values():
            child.zero()


class _CounterChild:
    __slots__ = ("value", "parked")

    def __init__(self):
        self.zero()

    def zero(self) -> None:
        self.value, self.parked = 0.0, True

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters can only go up")
        self.value += amount
        self.parked = False


class _PulledChild:
    # A counter child whose events are tallied elsewhere: its sources' sum.
    __slots__ = ("sources", "base", "shown")

    def __init__(self):
        self.sources: list[Callable[[], int]] = []
        self.base, self.shown = 0, True

    value = property(lambda self: float(
        sum(read() for read in self.sources) - self.base))
    # Parked once reset, until a source counts again.
    parked = property(lambda self: not (self.shown or self.value),
                      lambda self, parked: setattr(self, "shown", not parked))

    def zero(self) -> None:
        self.base, self.shown = self.base + self.value, False


class Counter(Metric):
    """A monotonically increasing count of events."""

    TYPE = "counter"

    def _child_class(self):
        return _CounterChild

    def pull(self, read: Callable[[], int], **labelvalues: str) -> None:
        """Count ``read()``, a tally its owner keeps, into the child for
        *labelvalues* whenever the registry is read; sources sum."""
        child = self._children.setdefault(self._key(labelvalues),
                                          _PulledChild())
        if not isinstance(child, _PulledChild):
            raise MetricError(f"{self.name}: {labelvalues} is counted here")
        child.sources.append(read)
        child.parked = False

    def inc(self, amount: float = 1.0, **labelvalues: str) -> None:
        if labelvalues:
            self.labels(**labelvalues).inc(amount)
        else:
            self._default_child().inc(amount)

    def value(self, **labelvalues: str) -> float:
        if labelvalues:
            return self.labels(**labelvalues).value
        return self._default_child().value


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.value, self.parked = value, False

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)


class Gauge(Metric):
    """A value that can go up and down (sizes, current serials)."""

    TYPE = "gauge"

    def _child_class(self):
        return _GaugeChild

    def set(self, value: float, **labelvalues: str) -> None:
        if labelvalues:
            self.labels(**labelvalues).set(value)
        else:
            self._default_child().set(value)

    def inc(self, amount: float = 1.0, **labelvalues: str) -> None:
        if labelvalues:
            self.labels(**labelvalues).inc(amount)
        else:
            self._default_child().inc(amount)

    def value(self, **labelvalues: str) -> float:
        if labelvalues:
            return self.labels(**labelvalues).value
        return self._default_child().value


class _HistogramChild:
    # Counts per bucket, the last past every bound; bucket_counts sums them.
    __slots__ = ("_counts", "sum", "count", "parked", "_uppers")

    def __init__(self, uppers: tuple[float, ...] = ()):
        self._uppers = uppers
        self.zero()

    def zero(self) -> None:
        self._counts = [0] * (len(self._uppers) + 1)
        self.sum, self.count, self.parked = 0.0, 0, True

    @property
    def bucket_counts(self) -> list[int]:
        return list(accumulate(self._counts[:-1]))

    @bucket_counts.setter
    def bucket_counts(self, cumulative: list[int]) -> None:
        self._counts = [b - a for a, b in zip([0, *cumulative], cumulative)]
        self._counts.append(0)

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # NaN is <= no bound: it counts past the last one, as +inf does.
        self._counts[
            bisect_left(self._uppers, value) if value == value else -1
        ] += 1
        self.parked = False


class Histogram(Metric):
    """Fixed-bucket distribution of observed values.

    *buckets* are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket (= ``count``) always exists.  Bucket counts
    are cumulative, matching the Prometheus exposition format.
    """

    TYPE = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...],
        help: str,
        labelnames: tuple[str, ...],
    ):
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise MetricError(f"{name}: a histogram needs at least one bucket")
        if list(uppers) != sorted(set(uppers)):
            raise MetricError(f"{name}: buckets must be strictly increasing")
        super().__init__(name, help, labelnames)
        self.buckets = uppers

    def _child_class(self):
        buckets = self.buckets
        return lambda: _HistogramChild(buckets)

    def observe(self, value: float, **labelvalues: str) -> None:
        if labelvalues:
            self.labels(**labelvalues).observe(value)
        else:
            self._default_child().observe(value)

    def sample(self, **labelvalues: str) -> _HistogramChild:
        if labelvalues:
            return self.labels(**labelvalues)
        return self._default_child()


# Simulated-seconds buckets for trace() histograms: instant, seconds, a
# minute, an hour, a day.  Trace durations are simulated time, so most
# in-process traces land in the 0 bucket — that is expected and correct.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (0.0, 1.0, 60.0, 3600.0, 86400.0)

# Trace nodes a registry keeps, across all its trees.  A relying party
# traces one tree per refresh for as long as it runs, and its memory must
# not grow with its uptime: past the bound whole trees fall off the
# front, oldest first, and a tree that alone fills it keeps its first
# nodes.  An idle refresh is ~8 nodes; a cold one adds one per validated
# point (about six when timed: its stages), so a timed cold ``internet``
# refresh fits.  The histograms roots observe into keep the whole run's
# totals either way.
MAX_SPANS = 4096


class MetricsRegistry:
    """A namespace of metrics plus the trees of its traces.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    them again with the same name returns the existing metric (and raises
    :class:`MetricError` if the existing registration disagrees on type,
    labels, or buckets).  That makes registration safe to repeat in every
    constructor that shares a registry.

    *timer*, when given, is a clock every trace node also reads (its
    ``seconds``), and it makes :meth:`staged` charge work to stages;
    without one the trees hold simulated time and counts only.
    """

    def __init__(self, timer: Callable[[], float] | None = None):
        self._metrics: dict[str, Metric] = {}
        self.timer = timer
        # The kept trees, oldest first, the nodes each holds and all of
        # them hold, and the open nodes, outermost first.
        self.traces: deque[TraceNode] = deque()
        self._sizes: deque[int] = deque()
        self._nodes = 0
        self._open: list[TraceNode] = []
        # (parent, stage name) -> the stage node, while a node is open.
        self._stages: dict[tuple, TraceNode] = {}

    # -- registration ------------------------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter, name, help=help, labelnames=tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help=help, labelnames=tuple(labelnames))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(
                name, tuple(buckets), help=help, labelnames=tuple(labelnames)
            )
        self._check(metric, Histogram, name, tuple(labelnames))
        if metric.buckets != tuple(float(b) for b in buckets):
            raise MetricError(f"{name}: conflicting histogram buckets")
        return metric

    def _register(self, cls, name, *, help, labelnames):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help, labelnames=labelnames)
        self._check(metric, cls, name, labelnames)
        return metric

    @staticmethod
    def _check(metric, cls, name, labelnames) -> None:
        if type(metric) is not cls:
            raise MetricError(
                f"{name} already registered as {metric.TYPE}, not {cls.TYPE}"
            )
        if metric.labelnames != labelnames:
            raise MetricError(
                f"{name} already registered with labels {metric.labelnames}, "
                f"not {labelnames}"
            )

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- tracing -----------------------------------------------------------

    @contextmanager
    def trace(self, name: str, clock, **labelvalues: str):
        """Context manager: a node *name* over a block, in simulated seconds.

        The node opens under the node currently open, or as a new tree
        in :attr:`traces`; on exit it closes (with every node still open
        under it) and its duration is observed into the histogram *name*
        (auto-created with :data:`DEFAULT_TIME_BUCKETS`).  *clock* is
        anything with a ``.now`` in seconds — in practice
        :class:`repro.simtime.Clock`, which keeps traces deterministic.
        """
        histogram = self.histogram(
            name, labelnames=tuple(sorted(labelvalues))
        )
        open_ = self._open
        node = self._push(TraceNode(name, clock.now),
                          open_[-1].children if open_ else self.traces)
        try:
            yield node
        finally:
            self.close(node, clock.now)
            histogram.observe(node.duration, **labelvalues)

    def open(self, name: str, now: float) -> TraceNode:
        """Open a node under the open one; :meth:`close` ends it.

        Outside any trace the node is kept by no tree: a walk run on its
        own costs a node, and records nothing.
        """
        open_ = self._open
        return self._push(TraceNode(name, now),
                          open_[-1].children if open_ else None)

    def close(self, node: TraceNode, now: float) -> None:
        """End *node* at *now*, and every node still open under it."""
        timer = self.timer
        stop = None if timer is None else timer()
        open_ = self._open
        while open_:
            top = open_.pop()
            top.end = now
            if stop is not None:
                top.seconds += stop
            if top is node:
                break
        if not open_:
            self._stages.clear()

    def staged(self, stage: str, work: Callable) -> Callable:
        """*work*, its calls and timer seconds added up in one node
        *stage* under the node open when it runs (timed registries).

        A stage run inside another is a node under it, so the outer
        stage's self seconds leave the inner one's out.
        """
        timer, open_, stages = self.timer, self._open, self._stages

        def timed(*args):
            parent = open_[-1] if open_ else None
            node = stages.get((parent, stage))
            if node is None:
                start = 0 if parent is None else parent.start
                node = stages[parent, stage] = self._push(
                    TraceNode(stage, start, start, {"calls": 0}),
                    None if parent is None else parent.children)
            else:
                open_.append(node)
                node.seconds -= timer()
            node.counts["calls"] += 1
            try:
                return work(*args)
            finally:
                open_.pop()
                node.seconds += timer()

        return timed

    def _push(self, node: TraceNode, siblings) -> TraceNode:
        """Open *node*, kept in *siblings* if a kept tree has room."""
        if siblings is None or (self._nodes >= MAX_SPANS
                                and not self._make_room()):
            node.children = None
        else:
            siblings.append(node)
            self._nodes += 1
            if siblings is self.traces:
                self._sizes.append(1)
            else:
                self._sizes[-1] += 1
        self._open.append(node)
        if self.timer is not None:
            node.seconds = -self.timer()
        return node

    def _make_room(self) -> bool:
        """Drop whole closed trees, oldest first, until a node fits."""
        traces, open_ = self.traces, self._open
        while self._nodes >= MAX_SPANS and traces and (
                not open_ or traces[0] is not open_[0]):
            traces.popleft()
            self._nodes -= self._sizes.popleft()
        return self._nodes < MAX_SPANS

    # -- rendering / lifecycle ---------------------------------------------

    def render_text(self) -> str:
        from .render import render_text

        return render_text(self)

    def render_json(self, *, indent: int | None = None) -> str:
        from .render import render_json

        return render_json(self, indent=indent)

    def to_dict(self) -> dict:
        from .render import registry_to_dict

        return registry_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        from .render import registry_from_dict

        return registry_from_dict(cls(), data)

    def reset(self) -> None:
        """Zero every metric and drop every tree; registrations stay."""
        for metric in self._metrics.values():
            metric.reset()
        self.traces.clear()
        self._sizes.clear()
        self._open.clear()
        self._stages.clear()
        self._nodes = 0


# ---------------------------------------------------------------------------
# the process-global default registry
# ---------------------------------------------------------------------------

# A permanent singleton (never replaced, only reset) so modules without an
# injection point — e.g. repro.crypto.rsa — can bind metric handles at
# import time and stay valid forever.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry that ``registry=None`` falls back to."""
    return _DEFAULT_REGISTRY
