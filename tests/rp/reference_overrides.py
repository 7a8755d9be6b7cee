"""The oracle for classification under local overrides: the whole table.

:func:`repro.rp.classify_with_overrides` reads only the VRPs that cover
the route.  This builds the effective set from every VRP — filtered,
then pinned — the way each route was once classified, and is what the
optimized path is held to.
"""

from __future__ import annotations

from repro.rp import LocalOverrides, Route, RouteValidity, VrpSet, validate


def apply(overrides: LocalOverrides, vrps: VrpSet) -> VrpSet:
    """The effective VRP set under *overrides*."""
    effective = VrpSet(
        v for v in vrps if not any(f.drops(v) for f in overrides.filtered)
    )
    for vrp in overrides.pinned:
        effective.add(vrp)
    return effective


def classify(route: Route, vrps: VrpSet,
             overrides: LocalOverrides) -> RouteValidity:
    """The route against the whole effective set."""
    return validate(route.prefix, route.origin, apply(overrides, vrps)).state
