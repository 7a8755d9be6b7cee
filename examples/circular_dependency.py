#!/usr/bin/env python3
"""Side Effect 7: a transient fault becomes a persistent failure.

Reproduces the paper's Section 6 scenario end to end:

- Continental Broadband (AS 17054) hosts its own repository at
  63.174.23.0, inside its own 63.174.16.0/20;
- Sprint's ROA (63.160.0.0/12-13, AS 1239) covers — but does not match —
  the route to that repository;
- the relying party drops invalid routes.

One corrupted fetch of the self-hosted ROA and the loop closes: the route
to the repository becomes invalid, so the repository can never be fetched
again, so the ROA stays missing — forever, until manual intervention.
The same fault under depref-invalid heals by itself.

Both halves are ``repro.experiments`` scenarios (``circular_dependencies``
and ``side_effect7``, what ``python -m repro se7`` prints); this script
only narrates them.

Run:  python examples/circular_dependency.py
"""

from repro.bgp import LocalPolicy
from repro.experiments import circular_dependencies, side_effect7


def narrate_loop(policy: LocalPolicy) -> None:
    loop = side_effect7(policy).loop

    print(f"\nrelying-party policy: {policy.value}")
    print("-" * 60)
    for report in loop.epochs:
        if report.epoch == 1:
            print("  !! ONE corrupted fetch of the self-hosted ROA")
        # The only route this world can invalidate is the one to
        # Continental's own repository.
        route = "INVALID" if report.invalid_routes else "VALID  "
        fetch = "FAILED" if report.unreachable_points else "ok"
        print(
            f"  epoch {report.epoch}: {report.vrp_count} VRPs | "
            f"route to repo {route} | repo fetch {fetch}"
        )
    outcome = (
        "recovered by itself"
        if loop.can_reach("63.174.23.0", 17054)
        else "PERSISTENT FAILURE — the fault never heals"
    )
    print(f"  => {outcome}")


def main() -> None:
    # First, the static analysis: where are the traps?
    analysis = circular_dependencies()
    print("Static dependency analysis")
    print("==========================")
    for risk in analysis.cycles():
        trap = "PERSISTENT-FAILURE TRAP" if risk.is_persistent_failure_trap \
            else "cycle (no covering threat)"
        print(f"  {' -> '.join(risk.cycle)}: {trap}")
    for edge in analysis.edges:
        if edge.dependent == edge.dependency:
            print(f"  condition (a): ROA {edge.roa} for route {edge.route}")
            print(f"                 is stored at {edge.dependency} itself")

    # Then the dynamic loop, under both policies.
    narrate_loop(LocalPolicy.DROP_INVALID)
    narrate_loop(LocalPolicy.DEPREF_INVALID)


if __name__ == "__main__":
    main()
