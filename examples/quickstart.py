#!/usr/bin/env python3
"""Quickstart: build the paper's Figure 2 RPKI and validate routes.

Constructs the model RPKI from the paper (ARIN -> Sprint -> {ETB,
Continental Broadband}), runs a relying party over it — fetching every
publication point and performing full path validation — and classifies
the routes the paper discusses.

Run:  python examples/quickstart.py
"""

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty


def main() -> None:
    # 1. Build the Figure 2 world: authorities, keys, certificates, ROAs,
    #    and the repository servers that publish them.
    world = build_figure2()
    print("The model RPKI of Figure 2")
    print("==========================")
    for ca in world.authorities():
        parent = ca.parent.handle if ca.parent else "(trust anchor)"
        print(f"  {ca.handle:<24} holds {ca.resources}  parent: {parent}")
        for roa in ca.issued_roas.values():
            print(f"      ROA {roa.describe()}")

    # 2. A relying party syncs the repositories and validates everything.
    fetcher = Fetcher(world.registry, world.clock)
    rp = RelyingParty(world.trust_anchors, fetcher)
    report = rp.refresh()
    print(f"\nRelying party: {report.rounds} discovery rounds, "
          f"{len(rp.vrps)} validated ROA payloads, "
          f"{len(report.run.errors())} errors")
    for vrp in rp.vrps:
        print(f"  VRP {vrp}")

    # 3. Classify the routes the paper walks through (Section 4).
    print("\nRoute origin validation (RFC 6811)")
    print("----------------------------------")
    probes = [
        ("63.160.0.0/12", 1239),    # no covering ROA -> unknown
        ("63.174.16.0/20", 17054),  # matching ROA -> valid
        ("63.174.17.0/24", 17054),  # covered, no match -> invalid
        ("63.174.16.0/22", 7341),   # its own matching ROA -> valid
    ]
    for prefix, origin in probes:
        state = rp.classify_parts(prefix, origin)
        print(f"  route ({prefix:<18} AS{origin:<6}) -> {state.value}")

    # 4. Side Effect 5 in one line: Sprint issues the Figure 5 (right) ROA
    #    and previously-unknown routes become invalid.
    world.sprint.issue_roa(1239, "63.160.0.0/12-13")
    rp.refresh()
    print("\nAfter Sprint issues (63.160.0.0/12-13, AS 1239):")
    for prefix, origin in [("63.160.0.0/12", 1239), ("63.163.0.0/16", 64512)]:
        state = rp.classify_parts(prefix, origin)
        print(f"  route ({prefix:<18} AS{origin:<6}) -> {state.value}")


if __name__ == "__main__":
    main()
