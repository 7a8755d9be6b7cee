"""Test-only conveniences over the library's public surface.

Nothing under ``src/`` needs these, so they live with the tests: the
four-level Side Effect 4 world, a ROA lookup by the paper's notation,
a copy of everything a cache serves, the exact-prefix route an AS
selected, and a drop of the process-wide key cache.
"""

from __future__ import annotations

from repro.crypto import KeyFactory
from repro.modelgen import build_figure2
from repro.repository import HostLocator
from repro.resources import ASN, ResourceSet
from repro.rpki import RoaPrefix


def clear_key_cache() -> None:
    """Drop every generated key: the next build generates its keys again."""
    with KeyFactory._cache_lock:
        KeyFactory._cache.clear()


def build_deep_hierarchy():
    """A four-level chain for Side Effect 4's "and beyond" case.

    ARIN -> Sprint -> Continental Broadband -> SmallBiz: SmallBiz is a
    Continental customer with its own publication point and two ROAs, so a
    manipulator two *or three* levels up can be tested against a target
    whose damage chain crosses multiple intermediate certificates.

    Returns the Figure2World plus the extra authority (as a pair).
    """
    world = build_figure2()
    server = world.registry.create_server(
        "smallbiz.example", HostLocator.parse("63.174.18.10", 64700)
    )
    smallbiz = world.continental.issue_child_authority(
        "SmallBiz",
        ResourceSet.parse("63.174.18.0/23"),
        sia="rsync://smallbiz.example/repo/",
        publication_point=server.mount("rsync://smallbiz.example/repo/"),
    )
    name, _ = smallbiz.issue_roa(64700, "63.174.18.0/24")
    world.roa_names["smallbiz-18"] = name
    name, _ = smallbiz.issue_roa(64700, "63.174.19.0/24")
    world.roa_names["smallbiz-19"] = name
    return world, smallbiz


def find_roa(ca, prefix_text: str, asn: int):
    """The ``(file name, Roa)`` *ca* issued for the paper's
    ``(prefix[-maxlen], ASN)`` notation, or None."""
    wanted, wanted_asn = RoaPrefix.parse(prefix_text), ASN(int(asn))
    for name, roa in ca.issued_roas.items():
        if roa.asn == wanted_asn and wanted in roa.prefixes:
            return name, roa
    return None


def all_files(cache, now: int | None = None) -> dict[str, dict[str, bytes]]:
    """Everything *cache* serves at *now*, keyed by point URI then file
    name: one ``serve`` decision per cached point (counters included),
    with every file dict copied."""
    served = (cache.serve(point.uri, now) for point in cache.points())
    return {entry.uri: dict(entry.files) for entry in served if entry}


def route_at(outcome, asn, prefix):
    """The exact-prefix route *asn* selected in *outcome*, or None."""
    rib = outcome.rib_of(asn)
    return rib.lookup(prefix) if prefix in rib else None
