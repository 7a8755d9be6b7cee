"""Route-validity matrices: the computation behind Figure 5.

Figure 5 shows "route validity status for 63.160.0.0/12 and its
subprefixes, inferred from the RPKI of Figure 2" — a map from every
(subprefix, origin) pair to valid/unknown/invalid, before and after a new
ROA is added.  :func:`validity_matrix` computes exactly that; the diff
helpers quantify the side effects the two panels illustrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..resources import ASN, Prefix
from ..rp import RouteValidity, VrpSet, validate

__all__ = [
    "ValidityMatrix",
    "validity_matrix",
    "matrix_diff",
    "OTHER_ORIGIN",
]

# A column for "any AS without ROAs of its own" — Figure 5's implicit
# 'everyone else' case.  AS 64511 is documentation/reserved space.
OTHER_ORIGIN = ASN(64511)


@dataclass
class ValidityMatrix:
    """Validity of every (subprefix, origin) pair under one VRP set."""

    base: Prefix
    lengths: tuple[int, ...]
    origins: tuple[ASN, ...]
    cells: dict[tuple[Prefix, ASN], RouteValidity]

    def state(self, prefix: Prefix | str, origin: ASN | int) -> RouteValidity:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return self.cells[(prefix, ASN(int(origin)))]

    def rows(self) -> list[tuple[Prefix, dict[ASN, RouteValidity]]]:
        """Per-prefix rows, in address order, for rendering."""
        prefixes = sorted({p for p, _ in self.cells})
        return [
            (prefix, {o: self.cells[(prefix, o)] for o in self.origins})
            for prefix in prefixes
        ]

    def count(self, state: RouteValidity) -> int:
        return sum(1 for s in self.cells.values() if s is state)

    def render(self) -> str:
        """A fixed-width text table (the benchmark's printable artifact)."""
        header_cells = ["prefix".ljust(20)] + [
            (str(o) if o != OTHER_ORIGIN else "other").rjust(9)
            for o in self.origins
        ]
        lines = ["  ".join(header_cells)]
        for prefix, states in self.rows():
            row = [str(prefix).ljust(20)] + [
                states[o].value.rjust(9) for o in self.origins
            ]
            lines.append("  ".join(row))
        return "\n".join(lines)


def validity_matrix(
    vrps: VrpSet,
    base: Prefix | str,
    *,
    lengths: Iterable[int] | None = None,
    origins: Iterable[ASN | int] = (),
) -> ValidityMatrix:
    """Classify *base* and all its subprefixes for each origin of interest.

    *lengths* defaults to every length from the base's own down to /24 —
    "the smallest IPv4 prefix length which is globally routable in BGP"
    (paper, Section 2), which is why the figure stops there.  The
    origins end with :data:`OTHER_ORIGIN`, the figure's "any other AS"
    row.
    """
    if isinstance(base, str):
        base = Prefix.parse(base)
    if lengths is None:
        lengths = range(base.length, min(24, base.afi.bits) + 1)
    lengths = tuple(lengths)

    origin_list = [ASN(int(o)) for o in origins]
    origin_list.append(OTHER_ORIGIN)

    cells: dict[tuple[Prefix, ASN], RouteValidity] = {}
    for length in lengths:
        for prefix in base.subprefixes(length):
            for origin in origin_list:
                cells[(prefix, origin)] = validate(prefix, origin, vrps).state
    return ValidityMatrix(
        base=base,
        lengths=lengths,
        origins=tuple(origin_list),
        cells=cells,
    )


@dataclass(frozen=True)
class MatrixFlip:
    """One (prefix, origin) whose state changed between two matrices."""

    prefix: Prefix
    origin: ASN
    before: RouteValidity
    after: RouteValidity

    def __str__(self) -> str:
        return f"({self.prefix}, {self.origin}): {self.before.value} -> {self.after.value}"


def matrix_diff(before: ValidityMatrix, after: ValidityMatrix) -> list[MatrixFlip]:
    """All cells whose state changed (the Figure 5 left-vs-right delta)."""
    if set(before.cells) != set(after.cells):
        raise ValueError("matrices cover different (prefix, origin) cells")
    return [
        MatrixFlip(prefix, origin, before.cells[key], after.cells[key])
        for key in sorted(before.cells)
        for prefix, origin in [key]
        if before.cells[key] is not after.cells[key]
    ]
