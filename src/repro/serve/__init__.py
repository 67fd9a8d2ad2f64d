"""The serving front: JSON-RPC gateway, rate limiting, load generation.

This package is the node's client-facing door (docs/serving.md):
:class:`Gateway` is the synchronous admission core,
:class:`AsyncGatewayServer` puts it behind asyncio HTTP/1.1, and
:mod:`repro.serve.loadgen` drives the gateway in process, on a
seeded virtual clock, through sustained mixed SCF-AR/ABS/coldchain
traffic.
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
