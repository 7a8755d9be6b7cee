"""repro — a reproduction of "On the Risk of Misbehaving RPKI Authorities".

HotNets-XII (2013), Cooper, Heilman, Brogle, Reyzin and Goldberg.

The package builds every layer of Figure 1 of the paper — the RPKI (objects,
authorities, repositories), relying-party route validity, and BGP — plus the
paper's contribution on top: the ROA-whacking attack taxonomy, the seven
side-effect analyses, the circular-dependency failure mode, the
cross-jurisdiction audit, and a monitoring layer for detecting manipulation.

Layering: import order is strictly bottom-up, in the order of the layer
table in docs/architecture.md (``tools/check_layers.py`` checks it)::

    simtime / telemetry / memo (substrate: simulated time, metrics, memos)
    resources -> crypto -> rpki -> repository -> rp -> api -> bgp -> rtr
    core -> monitor -> jurisdiction -> modelgen -> chaos -> experiments
    profiling -> repro (this facade) -> cli

**This module is the stable public API.**  Everything re-exported here —
the names in ``__all__`` — is the documented entry point::

    from repro import Clock, Fetcher, RelyingParty, build_figure2

    world = build_figure2()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock))
    rp.refresh()

Subpackages stay importable for the long tail (``repro.core``,
``repro.bgp``, ...), but code written against the facade will not break
as internals move.  Telemetry (``default_registry``, ``MetricsRegistry``,
``TraceNode``) is part of the facade and its *metric names* are likewise a
stability guarantee — see docs/telemetry.md.

``__all__`` is kept **sorted and complete** — every re-export appears in
it exactly once, every name resolves, and every name is documented in
docs/API.md.  ``tools/check_facade.py`` enforces those three in tier-1, so
the facade cannot drift from its documentation; its other two checks
hold every exported option and every def and class under ``src/repro``
to a caller outside ``tests/``.

See DESIGN.md for the full system inventory and the experiment index that
maps every figure and table of the paper to a benchmark.
"""

from .api import (
    ApiConfig,
    ApiResponse,
    CacheStats,
    HistoryEntry,
    QueryService,
    QueryStatus,
    RateLimitConfig,
    ResponseCache,
    TokenBucket,
    VrpDiff,
)
from .chaos import (
    CampaignConfig,
    CampaignResult,
    FaultPlan,
    PlannedFault,
    StallorisConfig,
    StallorisReport,
    Violation,
    build_plan,
    measure_stalloris,
    run_campaign,
    shrink_plan,
)
from .core import (
    ClosedLoopSimulation,
    collateral_of_revocation,
    execute_whack,
    missing_roa_impact,
    plan_whack,
    validity_matrix,
    whack_blast_radius,
)
from .crypto import KeyFactory, generate_keypair
from .experiments import demonstrate_all
from .jurisdiction import cross_border_audit, render_table4
from .modelgen import (
    INTERNET_SCALES,
    DeploymentConfig,
    Figure2World,
    build_deployment,
    build_figure2,
    build_table4_world,
    figure2_bgp,
)
from .monitor import (
    ChurnConfig,
    ChurnEngine,
    DetectionExperiment,
    StallDetector,
    analyze,
    diff_snapshots,
    take_snapshot,
)
from .repository import (
    BYZANTINE_KINDS,
    PERSISTENT,
    BreakerState,
    CacheFreshness,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    Fetcher,
    FetchResult,
    FetchScheduler,
    FetchStatus,
    LocalCache,
    RepositoryRegistry,
    RepositoryServer,
    nested_bomb,
)
from .resources import ASN, Afi, Prefix, ResourceSet
from .rp import (
    VRP,
    DegradationReport,
    IncrementalState,
    OriginValidationOutcome,
    PathValidator,
    RefreshReport,
    RelyingParty,
    Route,
    RouteValidity,
    SuspendersRelyingParty,
    ValidationRun,
    VrpSet,
    validate,
)
from .rpki import CertificateAuthority, ResourceCertificate, Roa, RsyncUri
from .rtr import (
    CacheChain,
    ChainedRtrCache,
    DuplexPipe,
    RtrCacheServer,
    RtrRouterClient,
    SessionMux,
)
from .simtime import DAY, HOUR, YEAR, Clock
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceNode,
    default_registry,
)

__version__ = "1.43.0"

# Sorted, complete, and drift-checked (tools/check_facade.py).
__all__ = [
    "ASN", "Afi", "ApiConfig", "ApiResponse", "BYZANTINE_KINDS",
    "BreakerState", "CacheChain", "CacheFreshness",
    "CacheStats", "CampaignConfig", "CampaignResult", "CertificateAuthority",
    "ChainedRtrCache", "ChurnConfig",
    "ChurnEngine", "CircuitBreaker", "Clock", "ClosedLoopSimulation",
    "Counter", "DAY", "DegradationReport", "DeploymentConfig",
    "DetectionExperiment", "DuplexPipe", "FaultInjector",
    "FaultKind", "FaultPlan", "FetchResult", "FetchScheduler", "FetchStatus",
    "Fetcher",
    "Figure2World", "Gauge", "HOUR", "Histogram", "HistoryEntry",
    "INTERNET_SCALES", "IncrementalState", "KeyFactory", "LocalCache",
    "MetricsRegistry",
    "OriginValidationOutcome", "PERSISTENT", "PathValidator",
    "PlannedFault", "Prefix", "QueryService", "QueryStatus",
    "RateLimitConfig", "RefreshReport", "RelyingParty", "RepositoryRegistry",
    "RepositoryServer", "ResourceCertificate",
    "ResourceSet", "ResponseCache", "Roa", "Route",
    "RouteValidity", "RsyncUri", "RtrCacheServer", "RtrRouterClient",
    "SessionMux", "StallDetector",
    "StallorisConfig", "StallorisReport",
    "SuspendersRelyingParty", "TokenBucket", "TraceNode", "VRP", "ValidationRun",
    "Violation", "VrpDiff", "VrpSet", "YEAR", "__version__",
    "analyze", "build_deployment", "build_figure2",
    "build_plan", "build_table4_world", "collateral_of_revocation",
    "cross_border_audit", "default_registry", "demonstrate_all",
    "diff_snapshots", "execute_whack", "figure2_bgp",
    "generate_keypair", "measure_stalloris", "missing_roa_impact",
    "nested_bomb", "plan_whack", "render_table4",
    "run_campaign",
    "shrink_plan", "take_snapshot", "validate", "validity_matrix",
    "whack_blast_radius",
]
