#!/usr/bin/env python3
"""The ROA-whacking walkthroughs of Sections 3.1 and Figure 3.

Demonstrates, against the Figure 2 RPKI:

1. the blunt instrument — revoking Continental Broadband's certificate,
   with its four-ROA collateral damage;
2. Side Effect 3 — Sprint whacking its grandchild ROA
   (63.174.16.0/20, AS 17054) by hole-punching, with zero collateral;
3. Figure 3 — whacking (63.174.16.0/22, AS 7341), which requires
   make-before-break and leaves the suspicious-reissue fingerprint that
   the monitor (the paper's proposed countermeasure) detects.

The whacks are ``repro.experiments.figure3`` (what ``python -m repro
fig3`` prints); this script adds the relying-party and monitor views.

Run:  python examples/whack_campaign.py
"""

from repro.experiments import figure3, revocation_collateral
from repro.modelgen import build_figure2
from repro.monitor import analyze, diff_snapshots, take_snapshot
from repro.repository import Fetcher
from repro.rp import RelyingParty


def fresh_rp(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    rp.refresh()
    return rp


def monitor_alerts(world):
    """What an out-of-band monitor sees: the pristine Figure 2 world (every
    ``figure3`` whack starts from one) diffed against *world* after it."""
    pristine = build_figure2()
    before = take_snapshot(pristine.registry, world.clock.now,
                           trust_anchors=pristine.trust_anchors)
    after = take_snapshot(world.registry, world.clock.now,
                          trust_anchors=world.trust_anchors)
    return analyze(diff_snapshots(before, after), before, after)


def main() -> None:
    # -- 1. why revocation is a blunt instrument ---------------------------
    damage = revocation_collateral()
    print("Option 1: revoke Continental Broadband's RC")
    print(f"  collateral: {len(damage)} other ROAs whacked:")
    for item in damage:
        print(f"    - {item}")

    # -- 2. targeted grandchild whacking (Side Effect 3) --------------------
    print("\nOption 2: targeted whack of (63.174.16.0/20, AS 17054)")
    world, plan = figure3(20)
    print("  " + plan.describe().replace("\n", "\n  "))
    rp = fresh_rp(world)
    print(f"  route (63.174.16.0/20, AS17054) is now: "
          f"{rp.classify_parts('63.174.16.0/20', 17054).value}")
    print(f"  surviving VRPs: {len(rp.vrps)} of 8 "
          "(only the target was whacked)")
    print("  monitor alerts:")
    for alert in monitor_alerts(world):
        print(f"    {alert}")

    # -- 3. make-before-break (Figure 3) -------------------------------------
    print("\nOption 3: whack (63.174.16.0/22, AS 7341) — no clean hole exists")
    world, plan = figure3(22)
    print("  " + plan.describe().replace("\n", "\n  "))
    rp = fresh_rp(world)
    print(f"  route (63.174.16.0/22, AS7341)  -> "
          f"{rp.classify_parts('63.174.16.0/22', 7341).value} "
          "(invalid, not unknown: the reissued /20 ROA covers it)")
    print(f"  route (63.174.16.0/20, AS17054) -> "
          f"{rp.classify_parts('63.174.16.0/20', 17054).value} "
          "(kept alive by Sprint's make-before-break reissue)")
    print("  monitor alerts (note the critical fingerprint):")
    for alert in monitor_alerts(world):
        print(f"    {alert}")


if __name__ == "__main__":
    main()
