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


class TestMemoryKVThreads:
    def test_readers_see_whole_blocks_and_every_get_is_counted(self):
        # A committer writes blocks that set every key to the block's
        # number; readers on other threads, switching every few
        # microseconds, must never see two keys disagree (a block lands
        # whole), and the shared get counter must lose no update.
        import sys
        import threading

        kv = MemoryKV()
        keys = [b"k%02d" % i for i in range(32)]
        kv.write_batch({key: b"0" for key in keys})
        blocks = 300
        done = threading.Event()
        reads: list[int] = []
        errors: list[BaseException] = []

        def read():
            count = 0
            try:
                while not done.is_set():
                    assert len(set(dict(kv.items()).values())) == 1
                    kv.get(keys[0])
                    count += 1
            except BaseException as exc:  # reported below
                errors.append(exc)
            reads.append(count)

        def commit():
            try:
                for i in range(1, blocks + 1):
                    with kv.block_batch():
                        for key in keys:
                            kv.put(key, b"%d" % i)
            finally:
                done.set()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=commit))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert {kv.get(key) for key in keys} == {b"%d" % blocks}
        assert kv.stats.gets == sum(reads) + len(keys)
        assert kv.stats.block_commits == blocks
