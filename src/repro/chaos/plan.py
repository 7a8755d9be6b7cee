"""Seeded fault plans: the randomized inputs of a chaos campaign.

A :class:`FaultPlan` is a flat, ordered list of :class:`PlannedFault`
entries — *which* fault kind hits *which* publication point at *which*
refresh cycle.  Plans are pure data, built deterministically from a seed
by :func:`build_plan`, so the campaign runner can re-execute any plan
bit-for-bit: that is what makes shrinking (dropping entries one at a time
and re-running) meaningful.

Every fault family the delivery layer knows is in the menu: the timing
and availability kinds (DELAY / STALL / FLAKY / UNREACHABLE), the
subtree-wide Stalloris amplification kind (AMPLIFY — one authority's
whole delegation tree turns slow), the byte-level kinds (DROP / CORRUPT
/ TRUNCATE / OVERSIZED), and the Byzantine kinds (SPLIT_VIEW /
MANIFEST_REPLAY / STALE_CRL / KEY_SWAP) introduced for the
misbehaving-authority threat model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..repository.faults import PERSISTENT, FaultInjector, FaultKind

__all__ = ["PlannedFault", "FaultPlan", "build_plan", "FAULT_MENU"]

# Everything build_plan can draw, weighted equally.  OVERSIZED rides with
# the byte-level kinds (it rewrites one file); the Byzantine kinds rewrite
# the whole assembled fetch.
FAULT_MENU: tuple[FaultKind, ...] = (
    FaultKind.DELAY,
    FaultKind.STALL,
    FaultKind.FLAKY,
    FaultKind.UNREACHABLE,
    FaultKind.DROP,
    FaultKind.CORRUPT,
    FaultKind.TRUNCATE,
    FaultKind.OVERSIZED,
    FaultKind.SPLIT_VIEW,
    FaultKind.MANIFEST_REPLAY,
    FaultKind.STALE_CRL,
    FaultKind.KEY_SWAP,
    FaultKind.AMPLIFY,
)


@dataclass(frozen=True)
class PlannedFault:
    """One fault the campaign will inject at a given refresh cycle.

    A persistent fault stays scheduled from its cycle to the end of the
    campaign; a one-shot fires during its cycle only.
    """

    cycle: int
    kind: FaultKind
    point_uri: str
    persistent: bool = False
    delay_seconds: int = 0

    def active_at(self, cycle: int) -> bool:
        if self.persistent:
            return cycle >= self.cycle
        return cycle == self.cycle

    def schedule_on(self, injector: FaultInjector) -> None:
        # AMPLIFY is subtree-wide by construction: one entry must slow
        # *every* point under the prefix, so within a cycle it never
        # exhausts.  (The campaign clears injectors between cycles, so
        # cross-cycle persistence is still governed by ``persistent``.)
        count = PERSISTENT if (
            self.persistent or self.kind is FaultKind.AMPLIFY
        ) else 1
        injector.schedule(
            self.kind,
            self.point_uri,
            count=count,
            delay_seconds=self.delay_seconds,
        )

    def describe(self) -> str:
        text = f"cycle {self.cycle}: {self.kind.value} @ {self.point_uri}"
        if self.kind in (FaultKind.DELAY, FaultKind.AMPLIFY) \
                and self.delay_seconds:
            text += f" (+{self.delay_seconds}s)"
        if self.persistent:
            text += " (persistent)"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable fault schedule for one campaign."""

    seed: int
    cycles: int
    faults: tuple[PlannedFault, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def active_at(self, cycle: int) -> list[PlannedFault]:
        """Every fault that should be scheduled for *cycle*.

        The campaign clears the injectors between cycles, so persistent
        faults are re-listed on every cycle from their start onward.
        """
        return [f for f in self.faults if f.active_at(cycle)]

    def without(self, index: int) -> "FaultPlan":
        """A copy of the plan with one entry removed (for shrinking)."""
        kept = self.faults[:index] + self.faults[index + 1:]
        return FaultPlan(seed=self.seed, cycles=self.cycles, faults=kept)

    def with_faults(self, extra: Iterable[PlannedFault]) -> "FaultPlan":
        return FaultPlan(
            seed=self.seed, cycles=self.cycles,
            faults=self.faults + tuple(extra),
        )

    def describe(self) -> str:
        if not self.faults:
            return "(empty plan)"
        return "\n".join(
            f"  {i + 1}. {fault.describe()}"
            for i, fault in enumerate(self.faults)
        )


def build_plan(seed: int, cycles: int, point_uris: Sequence[str]) -> FaultPlan:
    """A deterministic randomized plan over *point_uris*.

    Each cycle draws zero, one or two faults (biased toward one) from
    :data:`FAULT_MENU`, each aimed at a seeded choice of point.  The same
    ``(seed, cycles, point_uris)`` always yields the identical plan.
    """
    if cycles < 1:
        raise ValueError(f"campaign needs at least one cycle, got {cycles}")
    if not point_uris:
        raise ValueError("cannot plan faults with no publication points")
    rng = random.Random(seed)
    targets = sorted(point_uris)
    weights = (0, 1, 1, 2)  # faults drawn per cycle
    faults: list[PlannedFault] = []
    for cycle in range(cycles):
        for _ in range(rng.choice(weights)):
            kind = rng.choice(FAULT_MENU)
            target = rng.choice(targets)
            if kind is FaultKind.AMPLIFY:
                # Amplification is subtree-wide by definition: aim at the
                # authority's host prefix so every point it publishes (or
                # delegates) under that host turns slow at once.
                target = _host_prefix(target)
            faults.append(PlannedFault(
                cycle=cycle,
                kind=kind,
                point_uri=target,
                delay_seconds=(
                    rng.randrange(60, 420)
                    if kind in (FaultKind.DELAY, FaultKind.AMPLIFY) else 0
                ),
            ))
    return FaultPlan(seed=seed, cycles=cycles, faults=tuple(faults))


def _host_prefix(point_uri: str) -> str:
    """``rsync://host/...`` -> ``rsync://host/`` (whole-authority prefix)."""
    scheme, _, rest = point_uri.partition("://")
    host = rest.split("/", 1)[0]
    return f"{scheme}://{host}/"
