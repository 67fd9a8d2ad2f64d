"""KV store tests, including a model-based property test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kv import MemoryKV


class TestMemoryKV:
    def test_basic_ops(self):
        kv = MemoryKV()
        assert kv.get(b"a") is None
        kv.put(b"a", b"1")
        assert kv.get(b"a") == b"1"
        assert kv.has(b"a")
        kv.delete(b"a")
        assert kv.get(b"a") is None
        kv.delete(b"a")  # no error on absent key

    def test_overwrite(self):
        kv = MemoryKV()
        kv.put(b"a", b"1")
        kv.put(b"a", b"2")
        assert kv.get(b"a") == b"2"
        assert len(kv) == 1

    def test_write_batch(self):
        kv = MemoryKV()
        kv.put(b"gone", b"x")
        kv.write_batch({b"a": b"1", b"b": b"2"}, {b"gone"})
        assert kv.get(b"a") == b"1"
        assert kv.get(b"gone") is None

    def test_items_with_prefix(self):
        kv = MemoryKV()
        kv.put(b"p/a", b"1")
        kv.put(b"p/b", b"2")
        kv.put(b"q/c", b"3")
        assert dict(kv.items_with_prefix(b"p/")) == {b"p/a": b"1", b"p/b": b"2"}

    def test_values_are_copied(self):
        kv = MemoryKV()
        value = bytearray(b"mut")
        kv.put(b"a", value)
        value[0] = ord("X")
        assert kv.get(b"a") == b"mut"


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.binary(min_size=1, max_size=6),
                  st.binary(max_size=12)),
        st.tuples(st.just("delete"), st.binary(min_size=1, max_size=6),
                  st.just(b"")),
    ),
    max_size=40,
)


class TestModelBased:
    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_memory_kv_matches_dict(self, ops):
        kv = MemoryKV()
        model: dict[bytes, bytes] = {}
        for op, key, value in ops:
            if op == "put":
                kv.put(key, value)
                model[key] = value
            else:
                kv.delete(key)
                model.pop(key, None)
        assert dict(kv.items()) == model
