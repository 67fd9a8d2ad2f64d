"""Confidentiality guard for telemetry leaving the enclave.

The paper's monitor rule is absolute: "The status information contains
only error messages which are not related to any application data."
Telemetry is the easiest covert channel out of a TEE, so everything the
tracer records or the metrics page renders passes through this
allowlist first:

- **names and field keys** must look like telemetry identifiers
  (``tee.ecall``, ``cycles``, ``key_bytes``);
- **numeric values** (int/float/bool) are always fine — sizes,
  durations, counts carry no plaintext;
- **string values** are only accepted for a fixed set of descriptive
  fields (operation name, VM target, outcome, ...) and must be short,
  printable ASCII — never raw payloads;
- **bytes of any kind are rejected unconditionally**: there is no
  legitimate reason for transaction plaintext, key material, or
  decrypted state to ride on a span or a metric label.

Violations raise :class:`~repro.errors.TelemetryError` where a span is
emitted or a metrics page is rendered, which keeps the mistake inside
the enclave instead of letting it cross the boundary.
"""

from __future__ import annotations

import re

from repro.errors import TelemetryError

# Telemetry identifiers: span names, metric names, attribute keys.
# (\Z, not $: $ would tolerate a trailing newline.)
_NAME_RE = re.compile(r"\A[A-Za-z][A-Za-z0-9_.:]{0,99}\Z")

# The only fields whose values may be strings.  Everything here is
# descriptive vocabulary (what happened), never content (to what data).
ALLOWED_STR_FIELDS = frozenset(
    {
        "cat",
        "component",
        "direction",
        "engine",
        "error_kind",
        "kind",
        # analysis admission mode: "source+bytecode" / "bytecode-only"
        "mode",
        "method",
        "op",
        "outcome",
        "phase",
        "pool",
        "target",
        "unit",
        "vm",
    }
)

# Printable-ASCII vocabulary for allowed string values; deliberately has
# no escape characters and a short cap so it cannot smuggle blobs.
_STR_VALUE_RE = re.compile(r"\A[A-Za-z0-9 _.,:+\-/]{0,64}\Z")

MAX_STR_VALUE = 64


def guard_name(name: str) -> str:
    """Validate a span/metric/attribute name."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise TelemetryError(f"invalid telemetry name {name!r}")
    return name


def guard_field(key: str, value):
    """Validate one attribute/label; returns the value unchanged."""
    guard_name(key)
    if isinstance(value, bool):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        raise TelemetryError(
            f"telemetry field '{key}' carries payload bytes; only sizes, "
            "durations, counts and allowlisted names may cross the boundary"
        )
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        if key not in ALLOWED_STR_FIELDS:
            raise TelemetryError(
                f"telemetry field '{key}' may not carry a string; "
                f"string values are limited to {sorted(ALLOWED_STR_FIELDS)}"
            )
        if not _STR_VALUE_RE.match(value):
            raise TelemetryError(
                f"telemetry field '{key}' value is not short printable "
                "ASCII telemetry vocabulary"
            )
        return value
    raise TelemetryError(
        f"telemetry field '{key}' has unsupported type "
        f"{type(value).__name__}; only numbers and allowlisted short "
        "strings may cross the boundary"
    )


def guard_fields(fields: dict) -> dict:
    """Validate a whole attribute mapping; returns a shallow copy."""
    return {key: guard_field(key, value) for key, value in fields.items()}
