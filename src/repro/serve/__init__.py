"""The serving front: JSON-RPC gateway and per-client rate limiting.

This package is the node's client-facing door (docs/serving.md):
:class:`Gateway` is the synchronous admission core and
:class:`AsyncGatewayServer` puts it behind asyncio HTTP/1.1.  The fault
simulator (:mod:`repro.sim`) fronts every node with a :class:`Gateway`
on its seeded virtual clock, so client admission, block production and
receipt lookup run under crashes, message loss and partitions.
"""

from repro.serve.gateway import AsyncGatewayServer, Gateway, GatewayConfig
from repro.serve.jsonrpc import (
    BACKPRESSURE,
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    RATE_LIMITED,
    REQUEST_TOO_LARGE,
    SHUTTING_DOWN,
    RpcError,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket

__all__ = [
    "AsyncGatewayServer",
    "Gateway",
    "GatewayConfig",
    "RateLimiter",
    "RpcError",
    "TokenBucket",
    "BACKPRESSURE",
    "INTERNAL_ERROR",
    "INVALID_PARAMS",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "PARSE_ERROR",
    "RATE_LIMITED",
    "REQUEST_TOO_LARGE",
    "SHUTTING_DOWN",
]
