"""The serving front: JSON-RPC gateway and per-client rate limiting.

This package is the node's client-facing door (docs/serving.md):
:class:`Gateway` is the synchronous admission core and owns the one
producer schedule (pre-verify, cut or wait, on any clock);
:class:`AsyncGatewayServer` puts it behind asyncio HTTP/1.1 and runs
that schedule on the event loop's clock.  The fault simulator
(:mod:`repro.sim`) fronts every node with a :class:`Gateway` and runs
the same schedule on its seeded virtual clock, so client admission,
pre-verification, block production and receipt lookup run under
crashes, message loss and partitions.  Error codes live in
:mod:`repro.serve.jsonrpc`.
"""

from repro.serve.gateway import AsyncGatewayServer, Gateway, GatewayConfig

__all__ = ["AsyncGatewayServer", "Gateway", "GatewayConfig"]
