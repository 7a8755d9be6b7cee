"""Where a relying-party refresh spends its time, read off its stage tree.

A refresh records a stage tree (refresh → level → {fetch, judge → point
→ stages}, see ``docs/telemetry.md``).  This module builds a deployment,
runs one cold refresh against a registry given a timer
(``time.process_time``), then one idle refresh of the same relying
party, and reads each tree into a stage table — self
seconds, calls, share and domain counts per stage — and the slowest
publication points.  ``python -m repro profile`` prints it;
``tools/profile_refresh.py`` also writes it as JSON
(``benchmarks/artifacts/PROFILE_refresh.json``).

This is the one module that hands a registry a real clock (the
determinism lint exempts it).  Its seconds vary run to run: a profile
is an investigation artifact, not a regression gate; the gates live in
``benchmarks/test_bench_scale.py``, pinned in counts.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, field

from .modelgen import build_deployment, resolve_scale
from .repository import Fetcher
from .rp import RelyingParty
from .telemetry import MetricsRegistry, TraceNode

__all__ = ["ProfileReport", "profile_refresh", "stage_table"]

# Pairs of timed and untimed cold refreshes behind the timer's cost.
COST_PAIRS = 9


def stage_table(root: TraceNode) -> list[dict]:
    """Self seconds, calls, share and counts per stage of a timed tree.

    Every node below *root* is one call of its stage (a stage node
    counts its own ``calls``); what *root* spent outside all of them is
    the ``unattributed`` row, so the rows' seconds add up to the
    root's.  Most expensive first.
    """
    rows: dict[str, dict] = {}
    for node in root.walk():
        if node is root:
            continue
        row = rows.setdefault(node.stage, {
            "stage": node.stage, "calls": 0, "seconds": 0.0, "counts": {},
        })
        row["calls"] += node.counts.get("calls", 1)
        row["seconds"] += node.self_seconds
        counts = row["counts"]
        for name, value in node.counts.items():
            if name != "calls":
                counts[name] = counts.get(name, 0) + value
    rows["unattributed"] = {
        "stage": "unattributed", "calls": 1,
        "seconds": root.self_seconds, "counts": {},
    }
    for row in rows.values():
        row["share"] = round(row["seconds"] / root.seconds, 4)
        row["seconds"] = round(row["seconds"], 6)
    return sorted(rows.values(), key=lambda row: (-row["seconds"],
                                                  row["stage"]))


def _slowest_points(root: TraceNode, top: int) -> list[dict]:
    points = [node for node in root.walk() if node.stage == "point"]
    points.sort(key=lambda node: (-node.seconds, node.name))
    return [{"point": node.name.partition(" ")[2],
             "seconds": round(node.seconds, 6), "counts": dict(node.counts)}
            for node in points[:top]]


@dataclass
class ProfileReport:
    """The distilled result of one profiled refresh."""

    scale: str
    seed: int
    roa_count: int
    authority_count: int
    vrp_count: int
    rounds: int
    build_seconds: float
    refresh_seconds: float
    stages: list[dict] = field(default_factory=list)
    slowest_points: list[dict] = field(default_factory=list)
    # The same relying party refreshed again with nothing changed: what
    # a refresh costs beside polling its points.
    idle_refresh_seconds: float = 0.0
    idle_stages: list[dict] = field(default_factory=list)
    # Medians of COST_PAIRS alternating cold refreshes, timed and not,
    # and of their ratios.
    timer_cost: dict = field(default_factory=dict)

    @property
    def attributed_share(self) -> float:
        """The refresh's share spent in named stages."""
        return 1.0 - sum(row["share"] for row in self.stages
                         if row["stage"] == "unattributed")

    def render(self) -> str:
        """The text artifact: a header block, the stages, the points."""
        cost = self.timer_cost
        lines = [
            f"Profiled refresh over the {self.scale!r} deployment "
            f"(seed {self.seed})",
            "",
            f"deployment: {self.roa_count} ROAs across "
            f"{self.authority_count} authorities "
            f"(built in {self.build_seconds:.2f}s)",
            f"refresh: {self.refresh_seconds:.3f}s of process CPU, "
            f"{self.rounds} discovery round(s), {self.vrp_count} VRPs",
            f"timer cost: {cost['ratio']:.3f}x a refresh with no timer "
            f"(median of {cost['pairs']} alternating cold pairs' ratios)",
            "",
            f"stages by self seconds ({self.attributed_share:.1%} of the "
            "refresh in named stages):",
            f"{'self(s)':>9}  {'share':>6}  {'calls':>7}  stage  counts",
        ]
        lines += _stage_rows(self.stages, 4)
        lines += [
            "",
            f"idle refresh (the same relying party again, nothing "
            f"changed): {self.idle_refresh_seconds * 1e3:.3f} ms of "
            "process CPU",
            f"{'self(ms)':>9}  {'share':>6}  {'calls':>7}  stage  counts",
        ]
        lines += _stage_rows(self.idle_stages, 3, scale=1e3)
        lines += [
            "",
            f"slowest {len(self.slowest_points)} points:",
            f"{'secs':>9}  {'objects':>7}  {'verifies':>8}  point",
        ]
        for point in self.slowest_points:
            counts = point["counts"]
            lines.append(
                f"{point['seconds']:>9.4f}  {counts['objects']:>7}  "
                f"{counts['verifies']:>8}  {point['point']}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {**asdict(self), "attributed_share": round(
            self.attributed_share, 4)}


def _stage_rows(rows: list[dict], places: int, *, scale: float = 1.0
                ) -> list[str]:
    """The lines of a stage table, seconds times *scale*."""
    lines = []
    for row in rows:
        counts = " ".join(f"{k}={v}" for k, v in sorted(
            row["counts"].items()))
        lines.append(
            f"{row['seconds'] * scale:>9.{places}f}  {row['share']:>6.1%}  "
            f"{row['calls']:>7}  {row['stage']}  {counts}".rstrip()
        )
    return lines


def _relying_party(world, metrics: MetricsRegistry) -> RelyingParty:
    """A new relying party (the default one, what ``benchmarks/e2e`` and
    the ``refresh`` command run): its first refresh is cold."""
    fetcher = Fetcher(world.registry, world.clock, metrics=metrics)
    return RelyingParty(world.trust_anchors, fetcher, metrics=metrics)


def _timer_cost(world) -> dict:
    """What the timer costs a cold refresh: COST_PAIRS pairs of refreshes
    with and without it, each pair in the other order than the last.  The
    ratio is the median of the pairs' ratios, so a box whose speed drifts
    between pairs does not move it.  Each refresh starts from a collected
    heap: a collection the previous one left due is not charged to it."""
    pairs = []
    for index in range(COST_PAIRS):
        pair = {}
        for timed in (index % 2 == 0, index % 2 == 1):
            gc.collect()
            start = time.process_time()
            _relying_party(world, MetricsRegistry(
                timer=time.process_time if timed else None)).refresh()
            pair[timed] = time.process_time() - start
        pairs.append((pair[True], pair[False]))
    middle = COST_PAIRS // 2
    timed, untimed = (sorted(side)[middle] for side in zip(*pairs))
    return {"pairs": COST_PAIRS, "timed_seconds": round(timed, 4),
            "untimed_seconds": round(untimed, 4),
            "ratio": round(sorted(t / u for t, u in pairs)[middle], 3)}


def profile_refresh(
    scale: str = "internet-small",
    *,
    seed: int | None = None,
    top: int = 15,
) -> ProfileReport:
    """Build a deployment, time one cold refresh, read its stage tree.

    The same relying party then refreshes once more with nothing
    changed, and that idle refresh's tree is read the same way
    (``idle_stages``).

    ``build_seconds`` is wall time, measured on a build no timer
    touches; it stays comparable to the timings in
    ``BENCH_scale.json``.  The refresh's seconds are process CPU, read
    by the registry's timer at every node and stage of its tree; *top*
    is how many of the slowest points to list.  The cost of the timer
    is measured beside it, on the same world (:data:`COST_PAIRS`).
    """
    config = resolve_scale(scale, seed)
    build_start = time.perf_counter()
    world = build_deployment(config)
    build_seconds = time.perf_counter() - build_start

    metrics = MetricsRegistry(timer=time.process_time)
    rp = _relying_party(world, metrics)
    report = rp.refresh()
    root = metrics.traces[-1]
    rp.refresh()
    idle = metrics.traces[-1]
    return ProfileReport(
        scale=scale,
        seed=config.seed,
        roa_count=world.roa_count(),
        authority_count=len(world.authorities()),
        vrp_count=len(report.vrps),
        rounds=report.rounds,
        build_seconds=round(build_seconds, 3),
        refresh_seconds=round(root.seconds, 4),
        stages=stage_table(root),
        slowest_points=_slowest_points(root, top),
        idle_refresh_seconds=round(idle.seconds, 6),
        idle_stages=stage_table(idle),
        timer_cost=_timer_cost(world),
    )
