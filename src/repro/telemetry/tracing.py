"""The stage tree: what a refresh records about itself.

A :class:`TraceNode` is one block of work — a refresh, one tree level,
its fetch round, its judgement, one publication point validated from
bytes, one stage inside it — stamped with *simulated* start and end
times and the domain counts of what it did (points, objects, bytes,
verifies, rows built and reused).  Nodes nest: a node's children are the
blocks it was made of.  Because the simulation's
:class:`repro.simtime.Clock` only moves when code advances it, two
identical runs produce identical trees.  Seconds of a real clock are
there only when the registry was handed a timer
(``MetricsRegistry(timer=...)``, which :mod:`repro.profiling` alone
does); the determinism lint in ``tools/check_telemetry_names.py`` keeps
every other module off the real clocks.

A node's name is its stage, optionally followed by a space and what it
worked on (``"point rsync://…"``, ``"level 1"``): :attr:`TraceNode.stage`
is the first word, the key a stage table groups by.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["TraceNode"]


class TraceNode:
    """One block of work, in simulated seconds since the epoch.

    ``counts`` are the block's domain counts, ``children`` the blocks it
    was made of, oldest first.  ``seconds`` is None unless the registry
    is timed; then it is the block's timer seconds, its children's
    included.  A node no kept tree holds (opened outside any trace, or
    past :data:`~repro.telemetry.metrics.MAX_SPANS`) has ``children``
    None, and so do the nodes opened under it.
    """

    __slots__ = ("name", "start", "end", "counts", "children", "seconds")

    def __init__(self, name: str, start: float, end: float | None = None,
                 counts: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.counts = {} if counts is None else counts
        self.children: list[TraceNode] | None = []
        self.seconds: float | None = None

    @property
    def stage(self) -> str:
        """The stage this block belongs to: its name's first word."""
        return self.name.partition(" ")[0]

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (0.0 while the node is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Timer seconds spent in this block outside its children."""
        return self.seconds - sum(child.seconds for child in self.children)

    def walk(self) -> Iterator["TraceNode"]:
        """This node and every node under it, depth-first, in order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": dict(self.counts),
            "children": [child.to_dict() for child in self.children],
        }
        if self.seconds is not None:
            data["seconds"] = self.seconds
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceNode":
        node = cls(data["name"], data["start"], data.get("end"),
                   dict(data.get("counts", {})))
        node.seconds = data.get("seconds")
        node.children = [cls.from_dict(child)
                         for child in data.get("children", ())]
        return node

    def __str__(self) -> str:
        count_text = "".join(
            f" {k}={v}" for k, v in sorted(self.counts.items())
        )
        end = "…" if self.end is None else f"{self.end:g}"
        timed = "" if self.seconds is None else f" {self.seconds:.6f}s"
        return f"{self.name}[{self.start:g}..{end}]{count_text}{timed}"
