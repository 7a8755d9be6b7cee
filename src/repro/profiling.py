"""cProfile instrumentation for relying-party refresh at any scale.

The Internet-scale deployments (:data:`repro.modelgen.INTERNET_SCALES`)
exist to answer a performance question: where does a full refresh spend
its time once the repository holds 10⁴–10⁵ ROAs?  This module is the
measuring instrument — it builds a deployment and runs one complete
fetch-and-validate refresh, each phase under its own :mod:`cProfile`,
and distills the profiles into ranked top-N hotspot tables (refresh
and world build) small enough to read, diff, and archive next to the
benchmark artifacts.

Two front ends share it:

- ``python -m repro profile [--scale internet-small]`` — the CLI
  walkthrough; prints the hotspot table as a text artifact.
- ``tools/profile_refresh.py`` — the harness; same measurement, plus a
  JSON artifact (``--output``) for archival under
  ``benchmarks/artifacts/``.

Hotspots are ranked by *self* time (``tottime``): cumulative time blames
every caller on the stack for the same samples, while self time points
at the frame actually burning CPU — the thing to fix.  Each row keeps
its cumulative time too, so callers-of-hot-callees remain visible.

Determinism note: the ranked *functions* are stable for a given scale
and seed, but the measured seconds are wall-clock and vary run to run —
profile output is an investigation artifact, not a regression gate.
Regression gates live in ``benchmarks/test_bench_scale.py``, pinned in
counts (RSA verifications, bytes) rather than seconds.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field

from .crypto import KeyFactory
from .modelgen import build_deployment, resolve_scale
from .repository import Fetcher
from .rp import RelyingParty

__all__ = ["Hotspot", "ProfileReport", "profile_refresh"]


@dataclass(frozen=True)
class Hotspot:
    """One ranked row of the profile: a function and its costs."""

    location: str    # "path/to/module.py:123(function)"
    ncalls: int      # primitive call count
    tottime: float   # self seconds (excludes callees)
    cumtime: float   # cumulative seconds (includes callees)

    def to_json(self) -> dict:
        return {
            "location": self.location,
            "ncalls": self.ncalls,
            "tottime": round(self.tottime, 6),
            "cumtime": round(self.cumtime, 6),
        }


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
    hotspots: list[Hotspot] = field(default_factory=list)
    build_hotspots: list[Hotspot] = field(default_factory=list)

    @staticmethod
    def _table(title: str, hotspots: list[Hotspot]) -> list[str]:
        lines = [
            title,
            f"{'self(s)':>9}  {'cum(s)':>9}  {'calls':>9}  location",
        ]
        for spot in hotspots:
            lines.append(
                f"{spot.tottime:>9.3f}  {spot.cumtime:>9.3f}  "
                f"{spot.ncalls:>9}  {spot.location}"
            )
        return lines

    def render(self) -> str:
        """The text artifact: a header block and the ranked tables."""
        lines = [
            f"Profiled refresh over the {self.scale!r} deployment "
            f"(seed {self.seed})",
            "",
            f"deployment: {self.roa_count} ROAs across "
            f"{self.authority_count} authorities "
            f"(built in {self.build_seconds:.2f}s)",
            f"refresh: {self.refresh_seconds:.2f}s, {self.rounds} discovery "
            f"round(s), {self.vrp_count} VRPs",
            "",
        ]
        lines += self._table(
            f"top {len(self.hotspots)} refresh functions by self time:",
            self.hotspots,
        )
        if self.build_hotspots:
            lines.append("")
            lines += self._table(
                f"top {len(self.build_hotspots)} world-build functions "
                "by self time:",
                self.build_hotspots,
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "roa_count": self.roa_count,
            "authority_count": self.authority_count,
            "vrp_count": self.vrp_count,
            "rounds": self.rounds,
            "build_seconds": round(self.build_seconds, 3),
            "refresh_seconds": round(self.refresh_seconds, 3),
            "hotspots": [spot.to_json() for spot in self.hotspots],
            "build_hotspots": [
                spot.to_json() for spot in self.build_hotspots
            ],
        }


def _shorten(filename: str) -> str:
    """Trim an absolute path to its repo-relative tail for readability."""
    for marker in ("/src/repro/", "/repro/"):
        index = filename.rfind(marker)
        if index >= 0:
            return "repro/" + filename[index + len(marker):]
    return filename.rsplit("/", 1)[-1]


def top_hotspots(stats: pstats.Stats, top: int) -> list[Hotspot]:
    """The *top* rows of a :class:`pstats.Stats`, ranked by self time."""
    rows = []
    for (filename, lineno, name), entry in stats.stats.items():
        _cc, ncalls, tottime, cumtime, _callers = entry
        if filename == "~":  # builtins: "~:0(<built-in method ...>)"
            location = name
        else:
            location = f"{_shorten(filename)}:{lineno}({name})"
        rows.append(Hotspot(location, ncalls, tottime, cumtime))
    rows.sort(key=lambda spot: (-spot.tottime, spot.location))
    return rows[:top]


def profile_refresh(
    scale: str = "internet-small",
    *,
    seed: int | None = None,
    top: int = 15,
) -> ProfileReport:
    """Build a deployment, profile one full refresh, rank the hotspots.

    The build and the refresh get **separate** hotspot tables — keygen
    and signing would otherwise drown the refresh rows, and the two
    phases have different owners (the authority side issues once; every
    relying party pays the refresh on every cycle).  Both tables are
    kept *top* rows deep.

    ``build_seconds`` is measured on an *unprofiled* build so it stays
    comparable to the pinned timings in ``BENCH_scale.json`` (cProfile
    instrumentation inflates wall-clock ~50%).  The build hotspot table
    comes from a second, profiled build after dropping the process-wide
    key pool (:meth:`~repro.crypto.KeyFactory.clear_cache`) — without
    the drop the second build would reuse the first build's keys and
    keygen, its dominant cost, would vanish from the table.

    The relying party is the default one, what ``benchmarks/e2e`` and
    the ``refresh`` command run; its refresh is cold because it is the
    first.
    """
    config = resolve_scale(scale, seed)
    build_start = time.perf_counter()
    world = build_deployment(config)
    build_seconds = time.perf_counter() - build_start

    KeyFactory.clear_cache()
    build_profiler = cProfile.Profile()
    build_profiler.enable()
    build_deployment(config)  # profiled rebuild, cold keys
    build_profiler.disable()

    fetcher = Fetcher(world.registry, world.clock)
    rp = RelyingParty(
        world.trust_anchors, fetcher, metrics=fetcher.metrics,
    )
    profiler = cProfile.Profile()
    refresh_start = time.perf_counter()
    profiler.enable()
    report = rp.refresh()
    profiler.disable()
    refresh_seconds = time.perf_counter() - refresh_start

    stats = pstats.Stats(profiler)
    return ProfileReport(
        scale=scale,
        seed=config.seed,
        roa_count=world.roa_count(),
        authority_count=len(world.authorities()),
        vrp_count=len(report.vrps),
        rounds=report.rounds,
        build_seconds=build_seconds,
        refresh_seconds=refresh_seconds,
        hotspots=top_hotspots(stats, top),
        build_hotspots=top_hotspots(pstats.Stats(build_profiler), top),
    )
