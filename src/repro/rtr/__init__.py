"""The RPKI-to-Router protocol (RFC 6810): caches feeding BGP speakers.

The final hop of the paper's Figure 1 pipeline, with real wire encoding:
a relying-party cache serves its VRP set over RTR sessions — multiplexed
through an event-driven :class:`SessionMux` with per-session fairness,
bounded delta history with snapshot compaction, and cache-to-cache
chaining for router-fleet fan-out; routers hold local tables
synchronized by serial-numbered deltas.
"""

from .cache_server import RtrCacheServer
from .chain import CacheChain, ChainedRtrCache
from .channel import Channel, ChannelClosed, DuplexPipe
from .mux import MuxEvent, MuxSession, SessionMux
from .pdu import (
    MAX_ERROR_REPORT_LENGTH,
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PduDecodeError,
    PduType,
    ResetQuery,
    RTR_VERSION,
    SerialNotify,
    SerialQuery,
    decode_runs,
    encode_pdu,
    encode_prefixes,
)
from .router_client import RouterState, RtrRouterClient

__all__ = [
    "CacheChain",
    "CacheReset",
    "CacheResponse",
    "ChainedRtrCache",
    "Channel",
    "ChannelClosed",
    "DuplexPipe",
    "EndOfData",
    "ErrorReport",
    "MAX_ERROR_REPORT_LENGTH",
    "MuxEvent",
    "MuxSession",
    "Pdu",
    "PduDecodeError",
    "PduType",
    "RTR_VERSION",
    "ResetQuery",
    "RouterState",
    "RtrCacheServer",
    "RtrRouterClient",
    "SerialNotify",
    "SerialQuery",
    "SessionMux",
    "decode_runs",
    "encode_pdu",
    "encode_prefixes",
]
