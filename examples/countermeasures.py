#!/usr/bin/env python3
"""The hardening directions the paper points to, exercised side by side.

Section 7 asks: "Can abuse by RPKI authorities be made more difficult to
execute, more limited in scope, or easier to detect?"  The paper cites
three concurrent IETF effort as first steps; this example runs all three
against the same attack:

1. **Suspenders** (Kent & Mandelberg): retain uncorroborated
   disappearances for a grace period;
2. **local trust-anchor overrides** (Bush): the relying party pins the
   binding it knows to be right;
3. **multiple publication points**: mirrors break the Section 6
   delivery circularity (though they cannot stop an *authorized* whack).

Run:  python examples/countermeasures.py
"""

from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.rp import (
    LocalOverrides,
    RelyingParty,
    Route,
    SuspendersRelyingParty,
    classify_with_overrides,
)
from repro.simtime import HOUR


def make_rp(world, faults=None):
    fetcher = Fetcher(world.registry, world.clock, faults=faults)
    return RelyingParty(world.trust_anchors, fetcher)


def show(label, state):
    print(f"  {label:<44} -> {state.value}")


def main() -> None:
    target_route = ("63.174.16.0/20", 17054)

    print("Attack: Sprint stealthily whacks (63.174.16.0/20, AS 17054)")
    print("=" * 64)

    # -- 1. plain relying party --------------------------------------------
    world = build_figure2()
    rp = make_rp(world)
    rp.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    rp.refresh()
    show("plain relying party", rp.classify_parts(*target_route))

    # -- 2. Suspenders --------------------------------------------------------
    world = build_figure2()
    srp = SuspendersRelyingParty(make_rp(world), grace_seconds=24 * HOUR)
    srp.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    srp.refresh()
    show("Suspenders (24h grace)", srp.classify_parts(*target_route))
    for entry in srp.retained:
        print(f"      retained: {entry.vrp} ({entry.reason})")

    # -- 3. local pin ---------------------------------------------------------
    world = build_figure2()
    rp = make_rp(world)
    rp.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    rp.refresh()
    overrides = LocalOverrides().pin("63.174.16.0/20", 17054)
    show(
        "local trust-anchor pin",
        classify_with_overrides(Route.parse(*target_route), rp.vrps, overrides),
    )

    # -- 4. mirrors against delivery faults --------------------------------------
    print("\nFault: one corrupted fetch of the same ROA (no attack)")
    print("=" * 64)
    for mirrored in (False, True):
        world = build_figure2()
        if mirrored:
            server = world.registry.by_host("sprint.example")
            uri = "rsync://sprint.example/mirror/continental/"
            world.continental.enable_mirror(uri, server.mount(uri))
        faults = FaultInjector(seed=2)
        faults.schedule(
            FaultKind.CORRUPT, "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        rp = make_rp(world, faults=faults)
        rp.refresh()
        label = "with mirror" if mirrored else "no mirror"
        show(f"{label}: VRPs surviving the corruption",
             rp.classify_parts(*target_route))

    print(
        "\nSuspenders and local pins blunt authorized whacking;"
        "\nmirrors fix delivery (and the Section 6 circularity),"
        "\nbut cannot override what the hierarchy legitimately signs."
    )


if __name__ == "__main__":
    main()
