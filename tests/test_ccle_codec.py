"""CCLe binary codec tests: roundtrips, defaults, views, errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccle import decode, encode, parse_schema
from repro.errors import EncodingError

SCHEMA = parse_schema("""
attribute "map";
attribute "confidential";

table Root {
  name: string;
  flag: bool;
  tiny: byte;
  count: uint;
  big: ulong;
  signed_val: long;
  items: [Item];
  lookup: [Entry](map);
}
table Item {
  label: string;
  weight: ushort;
}
table Entry {
  key: string;
  value: long;
}
root_type Root;
""")

FULL_VALUE = {
    "name": "example",
    "flag": True,
    "tiny": -5,
    "count": 4_000_000_000,
    "big": (1 << 63) + 5,
    "signed_val": -(1 << 40),
    "items": [
        {"label": "first", "weight": 10},
        {"label": "second", "weight": 20},
    ],
    "lookup": {
        "alpha": {"key": "alpha", "value": 1},
        "beta": {"key": "beta", "value": -2},
    },
}


class TestRoundtrip:
    def test_full_value(self):
        assert decode(SCHEMA, encode(SCHEMA, FULL_VALUE)) == FULL_VALUE

    def test_map_key_autofill(self):
        value = {"lookup": {"a": {"value": 9}}}
        back = decode(SCHEMA, encode(SCHEMA, value))
        assert back["lookup"]["a"]["key"] == "a"

    def test_map_key_conflict_rejected(self):
        value = {"lookup": {"a": {"key": "b", "value": 9}}}
        with pytest.raises(EncodingError, match="disagrees"):
            encode(SCHEMA, value)

    def test_defaults_for_absent_fields(self):
        back = decode(SCHEMA, encode(SCHEMA, {}))
        assert back == {
            "name": "", "flag": False, "tiny": 0, "count": 0, "big": 0,
            "signed_val": 0, "items": [], "lookup": {},
        }

    def test_bytes_strings_survive(self):
        value = {"name": b"\xff\xfe raw bytes"}
        back = decode(SCHEMA, encode(SCHEMA, value))
        assert back["name"] == b"\xff\xfe raw bytes"

    def test_deterministic_encoding(self):
        assert encode(SCHEMA, FULL_VALUE) == encode(SCHEMA, FULL_VALUE)


class TestErrors:
    def test_unknown_field(self):
        with pytest.raises(EncodingError, match="unknown fields"):
            encode(SCHEMA, {"ghost": 1})

    def test_scalar_overflow(self):
        with pytest.raises(EncodingError, match="out of range"):
            encode(SCHEMA, {"tiny": 1000})

    def test_wrong_container_type(self):
        with pytest.raises(EncodingError):
            encode(SCHEMA, {"items": {"not": "a list"}})
        with pytest.raises(EncodingError):
            encode(SCHEMA, {"lookup": ["not", "a", "dict"]})

    def test_truncated_payload(self):
        blob = encode(SCHEMA, FULL_VALUE)
        with pytest.raises(EncodingError):
            decode(SCHEMA, blob[: len(blob) // 2])

    def test_scalar_needs_int(self):
        with pytest.raises(EncodingError):
            encode(SCHEMA, {"count": "many"})


_labels = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
_values = st.fixed_dictionaries({}, optional={
    "name": _labels,
    "flag": st.booleans(),
    "tiny": st.integers(min_value=-128, max_value=127),
    "count": st.integers(min_value=0, max_value=(1 << 32) - 1),
    "big": st.integers(min_value=0, max_value=(1 << 64) - 1),
    "signed_val": st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    "items": st.lists(
        st.fixed_dictionaries({
            "label": _labels,
            "weight": st.integers(min_value=0, max_value=65535),
        }),
        max_size=4,
    ),
})


class TestProperties:
    @given(value=_values)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, value):
        back = decode(SCHEMA, encode(SCHEMA, value))
        for key, expected in value.items():
            assert back[key] == expected
