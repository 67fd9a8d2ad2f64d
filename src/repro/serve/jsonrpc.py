"""JSON-RPC 2.0 codec for the serving gateway.

The wire format is deliberately boring: JSON-RPC 2.0 request objects in,
response objects out, both rendered with sorted keys so identical
requests always produce byte-identical responses (the load generator's
determinism check depends on this).

Everything a client can get wrong is mapped to a *structured* error
object — the gateway never lets a traceback, a repr, or payload bytes
escape in a response.  Error ``data`` fields carry only short
allowlisted vocabulary and numbers, mirroring the telemetry guard's
philosophy (:mod:`repro.obs.guard`) on the request/response boundary.
"""

from __future__ import annotations

import json

from repro.errors import ReproError

# Standard JSON-RPC 2.0 error codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# Server-defined codes (the -32000..-32099 range the spec reserves).
# BACKPRESSURE is the wire form of ``TxPool.add -> False``: the node is
# shedding load, the client should retry later with backoff.
BACKPRESSURE = -32050
RATE_LIMITED = -32051
REQUEST_TOO_LARGE = -32052
SHUTTING_DOWN = -32053
# Block production has failed: nothing this node admits would commit.
UNAVAILABLE = -32054

ERROR_NAMES = {
    PARSE_ERROR: "parse error",
    INVALID_REQUEST: "invalid request",
    METHOD_NOT_FOUND: "method not found",
    INVALID_PARAMS: "invalid params",
    INTERNAL_ERROR: "internal error",
    BACKPRESSURE: "backpressure",
    RATE_LIMITED: "rate limited",
    REQUEST_TOO_LARGE: "request too large",
    SHUTTING_DOWN: "shutting down",
    UNAVAILABLE: "unavailable",
}

# Request ids: JSON-RPC allows strings, numbers and null.  Anything
# else in the id position makes the request invalid.
_ID_TYPES = (str, int, float, type(None))

MAX_METHOD_CHARS = 64


class RpcError(ReproError):
    """A structured JSON-RPC failure (never carries payload bytes)."""

    def __init__(self, code: int, message: str = "", data: dict | None = None):
        self.code = code
        self.message = message or ERROR_NAMES.get(code, "error")
        self.data = data
        super().__init__(f"[{code}] {self.message}")


def parse_request(body: bytes, max_bytes: int = 1 << 16) -> dict:
    """Decode and validate one JSON-RPC 2.0 request object.

    Raises :class:`RpcError` for every malformed shape — oversized
    bodies, undecodable JSON, batch arrays (unsupported), missing or
    non-string methods, non-object params.  The returned dict always has
    ``method`` (str), ``params`` (dict) and ``id`` keys.
    """
    if len(body) > max_bytes:
        raise RpcError(
            REQUEST_TOO_LARGE,
            data={"limit_bytes": max_bytes, "request_bytes": len(body)},
        )
    try:
        request = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise RpcError(PARSE_ERROR) from None
    if not isinstance(request, dict):
        # Batch requests are rejected rather than half-supported.
        raise RpcError(INVALID_REQUEST, "request must be a single object")
    if request.get("jsonrpc") != "2.0":
        raise RpcError(INVALID_REQUEST, "jsonrpc must be '2.0'")
    method = request.get("method")
    if not isinstance(method, str) or not method:
        raise RpcError(INVALID_REQUEST, "method must be a non-empty string")
    if len(method) > MAX_METHOD_CHARS:
        raise RpcError(INVALID_REQUEST, "method name too long")
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise RpcError(INVALID_PARAMS, "params must be an object")
    request_id = request.get("id")
    if not isinstance(request_id, _ID_TYPES):
        raise RpcError(INVALID_REQUEST, "id must be a string, number or null")
    return {"method": method, "params": params, "id": request_id}


def ok_response(request_id, result) -> bytes:
    """Encode a success response (canonical key order)."""
    return json.dumps(
        {"id": request_id, "jsonrpc": "2.0", "result": result},
        sort_keys=True, separators=(",", ":"),
    ).encode()


def error_response(request_id, code: int, message: str = "",
                   data: dict | None = None) -> bytes:
    """Encode an error response (canonical key order)."""
    error: dict = {"code": code,
                   "message": message or ERROR_NAMES.get(code, "error")}
    if data:
        error["data"] = data
    return json.dumps(
        {"error": error, "id": request_id, "jsonrpc": "2.0"},
        sort_keys=True, separators=(",", ":"),
    ).encode()


def hex_param(params: dict, name: str, max_bytes: int | None = None) -> bytes:
    """Fetch a required hex-string parameter as bytes.

    Raises :class:`RpcError` (invalid params) for missing values,
    non-strings, odd-length or non-hex text, and oversized blobs —
    every failure mode the fuzzer-ish malformed-request tests throw at
    the gateway.
    """
    value = params.get(name)
    if not isinstance(value, str):
        raise RpcError(INVALID_PARAMS, f"'{name}' must be a hex string")
    try:
        blob = bytes.fromhex(value)
    except ValueError:
        raise RpcError(INVALID_PARAMS, f"'{name}' is not valid hex") from None
    if max_bytes is not None and len(blob) > max_bytes:
        raise RpcError(
            REQUEST_TOO_LARGE,
            data={"limit_bytes": max_bytes, "param_bytes": len(blob)},
        )
    return blob
