"""Distributed RPKI repositories and the delivery path to relying parties.

Publication points are hosted on repository servers that sit at real
(simulated) network locations; fetching them traverses the simulated BGP
data plane and an explicit fault model.  This is the layer where the
paper's Section 6 circularity physically lives.
"""

from .cache import CachedPoint, CacheFreshness, LocalCache, point_digest
from .errors import MountError, RepositoryError, UnknownHostError
from .faults import (
    BYZANTINE_KINDS,
    PERSISTENT,
    Fault,
    FaultInjector,
    FaultKind,
    nested_bomb,
)
from .fetch import FetchResult, FetchStatus, Fetcher, always_reachable
from .resilience import BreakerState, CircuitBreaker
from .scheduler import FetchScheduler
from .server import (
    HostLocator,
    HostedPublicationPoint,
    RepositoryRegistry,
    RepositoryServer,
)

__all__ = [
    "BYZANTINE_KINDS",
    "PERSISTENT",
    "BreakerState",
    "CacheFreshness",
    "CachedPoint",
    "CircuitBreaker",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FetchResult",
    "FetchScheduler",
    "FetchStatus",
    "Fetcher",
    "HostLocator",
    "HostedPublicationPoint",
    "LocalCache",
    "MountError",
    "RepositoryError",
    "RepositoryRegistry",
    "RepositoryServer",
    "UnknownHostError",
    "always_reachable",
    "nested_bomb",
    "point_digest",
]
