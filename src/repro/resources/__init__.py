"""IP and AS-number resource algebra.

This package is the arithmetic substrate of the reproduction: prefixes with
the paper's covering relation, arbitrary address ranges and RFC 3779-style
resource sets (the representation that makes targeted whacking possible),
AS-number sets, and the prefix map for covering/longest-match queries.
"""

from .asn import AS_MAX, ASN, AsnRange, AsnSet
from .errors import (
    AddressParseError,
    AfiMismatchError,
    AsnValueError,
    PrefixParseError,
    PrefixValueError,
    RangeValueError,
    ResourceError,
)
from .ipaddr import Afi, format_address, parse_address
from .prefix import Prefix
from .ranges import AddressRange, ResourceSet
from .prefixmap import PrefixMap

__all__ = [
    "AS_MAX",
    "ASN",
    "AddressParseError",
    "AddressRange",
    "AfiMismatchError",
    "Afi",
    "AsnRange",
    "AsnSet",
    "AsnValueError",
    "Prefix",
    "PrefixMap",
    "PrefixParseError",
    "PrefixValueError",
    "RangeValueError",
    "ResourceError",
    "ResourceSet",
    "format_address",
    "parse_address",
]
