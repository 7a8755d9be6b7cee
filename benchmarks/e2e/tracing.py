"""Outside-in stage tracing: spans recorded from the benchmark's files.

The program under test is not edited.  A traced pass installs timing
shims *as instance attributes* on the public methods of the objects the
benchmark owns (``rp.fetcher.fetch_point``, ``root.update``, ...), and
the workloads wrap their own calls in :meth:`Tracer.span`.  Every span
is ``{name, start, end, parent, cycle}`` on the process-CPU clock, kept
in memory and written out when the run ends.  A layer's *self* time is
its span minus the part its child spans cover, so the stage table's
self column sums to the traced total.

Calls made tens of thousands of times per second (the query endpoints)
are not given a span each — that would cost more than the call — but a
per-name busy-time accumulator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_clock = time.process_time
_OFF = nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        # Cycles number the iterations of a workload's outer loop; each
        # belongs to one phase (phases[cycle - 1]).
        self.cycle = 0
        self.phases: list[str] = []
        # [name, start, end, parent index or -1, cycle]
        self.spans: list[list] = []
        self.busy: dict[str, list] = {}   # name -> [calls, seconds]
        self._open: list[int] = []

    # -- recording ---------------------------------------------------------

    def begin_cycle(self, phase: str) -> None:
        self.cycle += 1
        self.phases.append(phase)

    def span(self, name: str):
        """Context manager around one call into a layer (no-op when off)."""
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, _clock(), 0.0, parent, self.cycle]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = _clock()
            self._open.pop()

    # -- shims -------------------------------------------------------------

    def shim(self, obj: object, method: str, name: str) -> None:
        """Record a span around every call of ``obj.method`` from now on."""
        inner = getattr(obj, method)
        spans, open_ = self.spans, self._open

        # _span() written out: a generator-based context manager per
        # call doubles the overhead on methods called 10^3 times a cycle.
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            record = [name, _clock(), 0.0, parent, self.cycle]
            open_.append(len(spans))
            spans.append(record)
            try:
                return inner(*args, **kwargs)
            finally:
                record[2] = _clock()
                open_.pop()

        setattr(obj, method, traced)

    def shim_busy(self, obj: object, method: str, name: str) -> None:
        """Accumulate calls and busy seconds of ``obj.method`` (no spans)."""
        inner = getattr(obj, method)
        cell = self.busy.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            start = _clock()
            try:
                return inner(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += _clock() - start

        setattr(obj, method, traced)

    # -- reading -----------------------------------------------------------

    def stage_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _cycle in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, start, end, _parent, _cycle) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        for name, (calls, seconds) in self.busy.items():
            table[name] = {"calls": calls, "total_s": seconds,
                           "self_s": seconds}
        return table

    def total(self, name: str, phase: str, *, self_only: bool = False) -> float:
        """Seconds spent in *name* spans during cycles of *phase*."""
        seconds = 0.0
        wanted = set()
        for index, (n, start, end, _parent, cycle) in enumerate(self.spans):
            if n == name and cycle and self.phases[cycle - 1] == phase:
                seconds += end - start
                wanted.add(index)
        if self_only:
            seconds -= sum(
                end - start for _n, start, end, parent, _c in self.spans
                if parent in wanted
            )
        return seconds

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "cycle": cycle}
            for name, start, end, parent, cycle in self.spans
        ]


def render_stage_table(table: dict[str, dict]) -> str:
    lines = [f"  {'stage':<28}{'calls':>9}{'total s':>12}{'self s':>12}"]
    for name in sorted(table, key=lambda n: -table[n]["total_s"]):
        row = table[name]
        lines.append(
            f"  {name:<28}{row['calls']:>9}{row['total_s']:>12.4f}"
            f"{row['self_s']:>12.4f}"
        )
    return "\n".join(lines)
