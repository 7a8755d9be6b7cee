"""Jurisdiction analysis: RIR regions and the Table 4 cross-border audit."""

from .regions import RIR, in_jurisdiction, region_of
from .table4 import (
    TABLE4_ROWS,
    CrossBorderFinding,
    Table4Row,
    cross_border_audit,
    render_table4,
)

__all__ = [
    "CrossBorderFinding",
    "RIR",
    "TABLE4_ROWS",
    "Table4Row",
    "cross_border_audit",
    "in_jurisdiction",
    "region_of",
    "render_table4",
]
