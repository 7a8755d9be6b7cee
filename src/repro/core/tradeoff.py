"""Table 6: the relying-party policy tradeoff, as an executable experiment.

"The local policy that is best at protecting against problems with BGP is
worst at protecting against problems with RPKI" (paper, Section 5).  The
experiment crosses the two threats with the two policies:

===============  ==========================  ==========================
policy           prefix reachable during      prefix reachable during
                 routing attack               RPKI manipulation
===============  ==========================  ==========================
drop invalid     YES                          NO
depref invalid   subprefix hijacks possible   YES
===============  ==========================  ==========================

:func:`run_tradeoff` reproduces the table on any topology: it measures,
across all non-attacker ASes, the fraction that still reach the victim's
addresses (a) under a subprefix hijack and (b) after the victim's ROA is
whacked while a covering ROA survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bgp import (
    AsGraph,
    LocalPolicy,
    Origination,
    forward,
    policy_table,
    propagate,
    reachable,
    subprefix_hijack,
)
from ..resources import ASN, Prefix, format_address
from ..rp import VRP, VrpSet, validate

__all__ = ["TradeoffScenario", "TradeoffCell", "TradeoffTable", "run_tradeoff"]


@dataclass(frozen=True)
class TradeoffScenario:
    """The pieces the 2x2 experiment needs."""

    graph: AsGraph
    victim_prefix: Prefix
    victim: ASN
    attacker: ASN
    covering_vrp: VRP     # survives the whack; what makes the route INVALID
    victim_vrp: VRP       # the victim's own ROA (whacked in case B)

    @classmethod
    def build(
        cls,
        graph: AsGraph,
        victim_prefix: str,
        victim: int,
        attacker: int,
        *,
        covering_prefix: str,
        covering_origin: int,
    ) -> "TradeoffScenario":
        prefix = Prefix.parse(victim_prefix)
        return cls(
            graph=graph,
            victim_prefix=prefix,
            victim=ASN(victim),
            attacker=ASN(attacker),
            covering_vrp=VRP.parse(covering_prefix, covering_origin),
            victim_vrp=VRP.parse(victim_prefix, victim),
        )


@dataclass(frozen=True)
class TradeoffCell:
    """One cell of Table 6: reachability under one (policy, threat) pair."""

    policy: LocalPolicy
    threat: str                 # "routing-attack" | "rpki-manipulation"
    reachable_fraction: float   # over all non-attacker, non-victim ASes
    hijacked_fraction: float    # delivered to the attacker instead

    @property
    def prefix_reachable(self) -> bool:
        """The table's boolean verdict (everyone still reaches the victim)."""
        return self.reachable_fraction == 1.0


@dataclass
class TradeoffTable:
    cells: dict[tuple[LocalPolicy, str], TradeoffCell]

    def cell(self, policy: LocalPolicy, threat: str) -> TradeoffCell:
        return self.cells[(policy, threat)]

    def render(self) -> str:
        """The paper's Table 6, with measured fractions alongside."""
        lines = [
            f"{'relying-party policy':<16}  {'routing attack':>22}  "
            f"{'RPKI manipulation':>22}"
        ]
        for policy in (LocalPolicy.DROP_INVALID, LocalPolicy.DEPREF_INVALID):
            row = [f"{policy.value:<16}"]
            for threat in ("routing-attack", "rpki-manipulation"):
                cell = self.cells[(policy, threat)]
                if cell.prefix_reachable:
                    text = "reachable"
                elif threat == "routing-attack" and cell.hijacked_fraction > 0:
                    text = f"hijacked {cell.hijacked_fraction:.0%}"
                else:
                    text = f"reachable {cell.reachable_fraction:.0%}"
                row.append(f"{text:>22}")
            lines.append("  ".join(row))
        return "\n".join(lines)


def _measure(
    scenario: TradeoffScenario,
    policy: LocalPolicy,
    vrps: VrpSet,
    originations: list[Origination],
    probe_address: str,
) -> tuple[float, float]:
    """(reachable fraction, hijacked fraction) across observer ASes."""
    validity = lambda route: validate(  # noqa: E731
        route.prefix, route.origin, vrps).state
    policies = policy_table(list(scenario.graph.ases()), policy, validity)
    outcome = propagate(scenario.graph, originations, policies)

    observers = [
        asn for asn in scenario.graph.ases()
        if asn not in (scenario.victim, scenario.attacker)
    ]
    reached = 0
    hijacked = 0
    for observer in observers:
        if reachable(outcome, observer, probe_address, scenario.victim):
            reached += 1
        elif forward(outcome, observer, probe_address).delivered_to == (
            scenario.attacker
        ):
            hijacked += 1
    total = len(observers)
    return reached / total, hijacked / total


def run_tradeoff(scenario: TradeoffScenario) -> TradeoffTable:
    """Fill the 2x2 table for the scenario."""
    # Probe an address in the half the subprefix hijacker steals.
    attack = subprefix_hijack(
        scenario.victim_prefix, scenario.victim, scenario.attacker
    )
    probe_prefix = attack.attack.prefix
    probe_address = format_address(
        probe_prefix.afi, probe_prefix.network | 1
    )

    cells: dict[tuple[LocalPolicy, str], TradeoffCell] = {}
    for policy in (LocalPolicy.DROP_INVALID, LocalPolicy.DEPREF_INVALID):
        # Threat A: BGP under attack, RPKI intact (victim's ROA present).
        vrps_intact = VrpSet([scenario.covering_vrp, scenario.victim_vrp])
        reached, hijacked = _measure(
            scenario, policy, vrps_intact, attack.originations, probe_address
        )
        cells[(policy, "routing-attack")] = TradeoffCell(
            policy, "routing-attack", reached, hijacked
        )

        # Threat B: RPKI manipulated — the victim's ROA is whacked, the
        # covering ROA survives, no BGP attacker.
        vrps_whacked = VrpSet([scenario.covering_vrp])
        assert validate(
            scenario.victim_prefix, scenario.victim, vrps_whacked
        ).state.value == "invalid", "scenario must make the victim's route invalid"
        reached, hijacked = _measure(
            scenario,
            policy,
            vrps_whacked,
            [Origination(scenario.victim_prefix, scenario.victim)],
            probe_address,
        )
        cells[(policy, "rpki-manipulation")] = TradeoffCell(
            policy, "rpki-manipulation", reached, hijacked
        )
    return TradeoffTable(cells=cells)
