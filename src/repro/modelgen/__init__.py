"""Model RPKI generation: exact paper fixtures and synthetic deployments."""

from .deployment import (
    HIERARCHICAL_SCALES,
    INTERNET_SCALES,
    DeploymentConfig,
    DeploymentWorld,
    build_deployment,
    build_table4_world,
    resolve_scale,
)
from .figure2 import Figure2World, build_figure2, figure2_bgp

__all__ = [
    "DeploymentConfig",
    "DeploymentWorld",
    "Figure2World",
    "HIERARCHICAL_SCALES",
    "INTERNET_SCALES",
    "build_deployment",
    "build_figure2",
    "build_table4_world",
    "figure2_bgp",
    "resolve_scale",
]
