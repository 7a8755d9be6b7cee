#!/usr/bin/env python3
"""Table 4: cross-border certification audit (Section 3.2).

Builds a model RPKI seeded with the paper's nine published RC rows — each
holder certified by its real parent RIR, with customer ROAs in the
countries the paper lists — and recomputes the audit: which RCs cover
ASes outside the jurisdiction of their parent RIR?

Also runs the audit over a purely synthetic deployment to show the
aggregate claim ("cross-country certification is not uncommon") holds
beyond the nine hand-picked rows.

Run:  python examples/border_audit.py
"""

from repro.core import subtree_roas
from repro.experiments import table4
from repro.jurisdiction import (
    RIR,
    cross_border_audit,
    in_jurisdiction,
    render_table4,
)
from repro.modelgen import DeploymentConfig, build_deployment


def main() -> None:
    # -- the paper's nine rows, reproduced (python -m repro tab4) ----------
    world, findings = table4()
    print("Table 4 — RCs & the countries they cover that are outside")
    print("the jurisdiction of their parent RIR")
    print("=" * 64)
    print(render_table4(findings))

    # -- whacking power across borders -------------------------------------
    print("\nWhat this means (Section 3.2):")
    arin = next(root for root, rir in world.roots if rir is RIR.ARIN)
    foreign = [
        (roa.describe(), world.as_country[roa.asn])
        for _h, _n, roa in subtree_roas(arin)
        if not in_jurisdiction(RIR.ARIN, world.as_country[roa.asn])
    ]
    print(f"  ARIN — accountable only to its member countries — can whack")
    print(f"  {len(foreign)} ROAs for ASes in "
          f"{len({c for _, c in foreign})} other countries, e.g.:")
    for description, country in foreign[:5]:
        print(f"    {description} ({country})")

    # -- the aggregate claim on synthetic deployments -------------------------
    print("\nSynthetic full-deployment audit (15% cross-border allocation):")
    synthetic = build_deployment(DeploymentConfig(
        isps_per_rir=6, customers_per_isp=2, seed=3
    ))
    synthetic_findings = cross_border_audit(
        synthetic.roots, synthetic.as_country
    )
    crossing = [f for f in synthetic_findings if f.crosses_border]
    print(f"  {len(crossing)} of {len(synthetic_findings)} RCs cover "
          "out-of-jurisdiction ASes — cross-country certification is not "
          "uncommon.")


if __name__ == "__main__":
    main()
