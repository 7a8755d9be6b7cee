"""The paper's contribution: attacks and side-effect analyses.

- :mod:`repro.core.whack` — the ROA-whacking taxonomy (Side Effects 1-4)
- :mod:`repro.core.validity` — Figure 5 route-validity matrices
- :mod:`repro.core.missing` — Side Effects 5-6 (new/missing-ROA impact)
- :mod:`repro.core.reclaim` — Side Effect 1 (unilateral reclamation)
- :mod:`repro.core.tradeoff` — Table 6 (local-policy tradeoff)
- :mod:`repro.core.circular` — Section 6 / Side Effect 7 (the closed loop)
"""

from .advisor import (
    RolloutPlan,
    RolloutWarning,
    audit_repository_placement,
    plan_rollout,
)
from .circular import (
    CircularRisk,
    ClosedLoopSimulation,
    DependencyEdge,
    EpochReport,
    RepositoryDependencyGraph,
)
from .errors import CoreError, ScenarioError, WhackError
from .granularity import MIN_ROUTABLE_V4, BlastRadius, whack_blast_radius
from .missing import (
    RoaRemovalImpact,
    missing_roa_impact,
    new_roa_impact,
    safe_issuance_order,
)
from .reclaim import ReclamationReport, reclaim_space, reissuance_candidates
from .tradeoff import TradeoffCell, TradeoffScenario, TradeoffTable, run_tradeoff
from .validity import (
    OTHER_ORIGIN,
    ValidityMatrix,
    matrix_diff,
    validity_matrix,
)
from .whack import (
    DamagedObject,
    WhackMethod,
    WhackPlan,
    collateral_of_revocation,
    execute_whack,
    find_hole,
    plan_whack,
    subtree_roas,
)

__all__ = [
    "CircularRisk",
    "RolloutPlan",
    "RolloutWarning",
    "audit_repository_placement",
    "plan_rollout",
    "BlastRadius",
    "ClosedLoopSimulation",
    "CoreError",
    "MIN_ROUTABLE_V4",
    "whack_blast_radius",
    "DamagedObject",
    "DependencyEdge",
    "EpochReport",
    "OTHER_ORIGIN",
    "ReclamationReport",
    "RepositoryDependencyGraph",
    "RoaRemovalImpact",
    "ScenarioError",
    "TradeoffCell",
    "TradeoffScenario",
    "TradeoffTable",
    "ValidityMatrix",
    "WhackError",
    "WhackMethod",
    "WhackPlan",
    "collateral_of_revocation",
    "execute_whack",
    "find_hole",
    "matrix_diff",
    "missing_roa_impact",
    "new_roa_impact",
    "plan_whack",
    "reclaim_space",
    "reissuance_candidates",
    "run_tradeoff",
    "safe_issuance_order",
    "subtree_roas",
    "validity_matrix",
]
