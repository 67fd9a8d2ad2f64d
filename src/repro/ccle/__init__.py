"""CCLe — the Confidential smart Contract Language extension (paper §4)."""

from repro.ccle.codec import decode, decode_table, encode, encode_table
from repro.ccle.codegen_cws import generate_accessors
from repro.ccle.confidential import (
    merge,
    secret_from_bytes,
    secret_to_bytes,
    split,
    split_by_role,
)
from repro.ccle.parser import parse_schema
from repro.ccle.schema import Field, FieldType, Schema, Table

__all__ = [
    "Field",
    "FieldType",
    "Schema",
    "Table",
    "decode",
    "decode_table",
    "encode",
    "encode_table",
    "generate_accessors",
    "merge",
    "parse_schema",
    "secret_from_bytes",
    "secret_to_bytes",
    "split",
    "split_by_role",
]
