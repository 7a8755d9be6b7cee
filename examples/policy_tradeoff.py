#!/usr/bin/env python3
"""Table 6: drop-invalid vs depref-invalid under both threat models.

Runs the paper's Section 5 experiment on a small Internet: a victim, an
attacker mounting a subprefix hijack (the BGP threat) and a manipulator
whacking the victim's ROA while a covering ROA survives (the RPKI
threat), crossed with both relying-party policies.  The scenario is
``repro.experiments.table6`` — the one ``python -m repro tab6`` prints
and ``benchmarks/test_bench_tab6_policies.py`` asserts on.

Run:  python examples/policy_tradeoff.py
"""

from repro.bgp import LocalPolicy
from repro.experiments import table6


def main() -> None:
    # The reference topology: two tier-1s, three mid-tier providers,
    # stubs, a victim (AS 4) and an attacker (AS 666); the covering ROA
    # (10.0.0.0/8, AS 10) survives the whack.
    table = table6()
    print("Table 6 — impact of different local policies")
    print("=" * 64)
    print(table.render())
    print()

    for policy in (LocalPolicy.DROP_INVALID, LocalPolicy.DEPREF_INVALID):
        for threat in ("routing-attack", "rpki-manipulation"):
            cell = table.cell(policy, threat)
            print(
                f"{policy.value:<16} vs {threat:<18}: "
                f"{cell.reachable_fraction:.0%} of ASes reach the victim, "
                f"{cell.hijacked_fraction:.0%} hijacked"
            )

    print(
        "\nThe tradeoff, verbatim from the paper: the policy best at"
        "\nprotecting against problems with BGP (drop invalid) is worst at"
        "\nprotecting against problems with the RPKI, and vice versa."
    )


if __name__ == "__main__":
    main()
