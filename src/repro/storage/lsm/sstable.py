"""Immutable sorted-segment files (SSTables).

Layout::

    [block 0][block 1]...[bloom][index][footer]

- **data blocks** — runs of sorted ``[key, op, value]`` entries, RLP
  encoded, sealed as a unit when the store is confidential, and framed
  ``[crc32 u32][len u32][blob]`` so structural integrity is checkable
  without the seal key (``repro db verify``).  The CRC covers the
  on-disk (post-seal) bytes.
- **bloom filter** — double-hashed, ~10 bits/key, consulted before the
  index so absent keys usually cost zero block reads.
- **block index** — ``[first_key, offset, length]`` per block; binary
  search picks the one candidate block for a point lookup.
- **footer** — fixed-size trailer locating bloom + index, carrying the
  segment id and entry count, CRC'd.

Tombstones are real entries (op ``\\x02``): a flushed delete must shadow
live values in older segments until compaction reaches the bottom tier.
"""

from __future__ import annotations

import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass

from repro.crypto.hashes import sha256
from repro.errors import StorageError
from repro.storage import rlp
from repro.storage.lsm.cache import BlockCache
from repro.storage.lsm.seal import StorageSealer
from repro.storage.lsm.wal import OP_DELETE, OP_PUT, fsync_dir

_BLOCK_FRAME = struct.Struct(">II")  # crc32, length
_FOOTER = struct.Struct(">QQIQIQII")
# segment_id, bloom_off, bloom_len, index_off, index_len, entry_count,
# version, footer_crc
_VERSION = 1
_BLOOM_BITS_PER_KEY = 10
_BLOOM_HASHES = 5

DEFAULT_BLOCK_BYTES = 4096


def _bloom_hashes(key: bytes) -> tuple[int, int]:
    digest = sha256(b"sst-bloom:" + key)
    return (
        int.from_bytes(digest[:8], "big"),
        int.from_bytes(digest[8:16], "big") | 1,
    )


class BloomFilter:
    """Double-hashing bloom filter over the segment's keys."""

    def __init__(self, bits: bytearray):
        self._bits = bits
        self._m = len(bits) * 8

    @classmethod
    def build(cls, keys: list[bytes]) -> "BloomFilter":
        m = max(64, len(keys) * _BLOOM_BITS_PER_KEY)
        bloom = cls(bytearray((m + 7) // 8))
        for key in keys:
            bloom.add(key)
        return bloom

    def add(self, key: bytes) -> None:
        h1, h2 = _bloom_hashes(key)
        for i in range(_BLOOM_HASHES):
            bit = (h1 + i * h2) % self._m
            self._bits[bit // 8] |= 1 << (bit % 8)

    def might_contain(self, key: bytes) -> bool:
        h1, h2 = _bloom_hashes(key)
        for i in range(_BLOOM_HASHES):
            bit = (h1 + i * h2) % self._m
            if not self._bits[bit // 8] & (1 << (bit % 8)):
                return False
        return True

    def encode(self) -> bytes:
        return bytes(self._bits)


def _frame(blob: bytes) -> bytes:
    return _BLOCK_FRAME.pack(zlib.crc32(blob), len(blob)) + blob


def _unframe(data: bytes, offset: int, length: int) -> bytes:
    raw = data[offset:offset + length]
    if len(raw) < _BLOCK_FRAME.size:
        raise StorageError("SSTable block frame truncated")
    crc, blob_len = _BLOCK_FRAME.unpack(raw[:_BLOCK_FRAME.size])
    blob = raw[_BLOCK_FRAME.size:]
    if len(blob) != blob_len or zlib.crc32(blob) != crc:
        raise StorageError("SSTable block checksum mismatch")
    return blob


def write_sstable(
    path: str,
    segment_id: int,
    entries,  # iterable of (key, value_or_TOMBSTONE), sorted by key
    sealer: StorageSealer | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    sync: bool = False,
) -> "SegmentMeta":
    """Write one immutable segment; returns its metadata.  ``sync``
    additionally fsyncs the directory so the rename survives power loss.

    Sealing is batched: blocks are chunked and RLP-encoded first, their
    on-disk offsets laid out up front (a sealed blob's size is a pure
    function of its plaintext length), then every block is sealed in
    one :meth:`StorageSealer.seal_many` pass.  Byte-identical to the
    old per-block sealing — pinned by tests/test_storage_lsm.py.
    """
    plain_blocks: list[bytes] = []
    first_keys: list[bytes] = []
    keys: list[bytes] = []
    current: list[list[bytes]] = []
    current_first: bytes | None = None
    current_size = 0
    count = 0
    last_key: bytes | None = None

    def cut_block(block_entries, first_key):
        plain_blocks.append(rlp.encode(block_entries))
        first_keys.append(first_key)

    for key, value in entries:
        key = bytes(key)
        if last_key is not None and key <= last_key:
            raise StorageError("SSTable entries must be strictly sorted")
        last_key = key
        op = OP_DELETE if value is None else OP_PUT
        entry = [key, op, b"" if value is None else bytes(value)]
        if current_first is None:
            current_first = key
        current.append(entry)
        keys.append(key)
        count += 1
        current_size += len(key) + len(entry[2]) + 8
        if current_size >= block_bytes:
            cut_block(current, current_first)
            current, current_first, current_size = [], None, 0
    if current:
        cut_block(current, current_first)

    # Lay out offsets before sealing (the block context binds each blob
    # to its offset, and sealed sizes are deterministic), then seal the
    # whole segment in one pass.
    offsets: list[int] = []
    offset = 0
    for blob in plain_blocks:
        offsets.append(offset)
        body_len = (StorageSealer.sealed_size(len(blob))
                    if sealer is not None else len(blob))
        offset += _BLOCK_FRAME.size + body_len
    if sealer is not None:
        sid = segment_id.to_bytes(8, "big")
        contexts = [b"sst:" + sid + b":" + off.to_bytes(8, "big")
                    for off in offsets]
        sealed_blocks = sealer.seal_many(plain_blocks, contexts)
    else:
        sealed_blocks = plain_blocks
    blocks = [_frame(blob) for blob in sealed_blocks]
    index = [
        [first_key, rlp.encode_int(off), rlp.encode_int(len(framed))]
        for first_key, off, framed in zip(first_keys, offsets, blocks)
    ]

    bloom_blob = BloomFilter.build(keys).encode()
    index_blob = rlp.encode(index)
    if sealer is not None:
        sid = segment_id.to_bytes(8, "big")
        bloom_blob = sealer.seal(bloom_blob, b"sst-bloom:" + sid)
        index_blob = sealer.seal(index_blob, b"sst-index:" + sid)
    bloom_framed = _frame(bloom_blob)
    index_framed = _frame(index_blob)

    bloom_off = offset
    index_off = bloom_off + len(bloom_framed)
    footer_wo_crc = _FOOTER.pack(
        segment_id, bloom_off, len(bloom_framed), index_off,
        len(index_framed), count, _VERSION, 0,
    )[:-4]
    footer = footer_wo_crc + struct.pack(">I", zlib.crc32(footer_wo_crc))

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        for block in blocks:
            f.write(block)
        f.write(bloom_framed)
        f.write(index_framed)
        f.write(footer)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    if sync:
        fsync_dir(os.path.dirname(path))
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        checksum = zlib.crc32(f.read())
    return SegmentMeta(segment_id, os.path.basename(path), size, checksum, count)


@dataclass(frozen=True)
class SegmentMeta:
    """What the manifest records about one segment file."""

    segment_id: int
    filename: str
    size: int
    checksum: int
    count: int


class SSTableReader:
    """Random and sequential access over one segment file.

    The bloom filter and block index live in memory; data blocks load on
    demand through the shared :class:`BlockCache`.
    """

    def __init__(
        self,
        path: str,
        sealer: StorageSealer | None = None,
        cache: BlockCache | None = None,
    ):
        self.path = path
        self._sealer = sealer
        self._cache = cache
        with open(path, "rb") as f:
            self._data = f.read()
        if len(self._data) < _FOOTER.size:
            raise StorageError(f"SSTable {path} too small for a footer")
        footer = self._data[-_FOOTER.size:]
        (self.segment_id, bloom_off, bloom_len, index_off, index_len,
         self.count, version, footer_crc) = _FOOTER.unpack(footer)
        if zlib.crc32(footer[:-4]) != footer_crc:
            raise StorageError(f"SSTable {path} footer checksum mismatch")
        if version != _VERSION:
            raise StorageError(f"SSTable {path} has unknown version {version}")
        sid = self.segment_id.to_bytes(8, "big")
        bloom_blob = _unframe(self._data, bloom_off, bloom_len)
        index_blob = _unframe(self._data, index_off, index_len)
        if sealer is not None:
            bloom_blob = sealer.open(bloom_blob, b"sst-bloom:" + sid)
            index_blob = sealer.open(index_blob, b"sst-index:" + sid)
        self._bloom = BloomFilter(bytearray(bloom_blob))
        self._index: list[tuple[bytes, int, int]] = [
            (entry[0], rlp.decode_int(entry[1]), rlp.decode_int(entry[2]))
            for entry in rlp.decode(index_blob)
        ]
        self._first_keys = [entry[0] for entry in self._index]

    @property
    def size(self) -> int:
        return len(self._data)

    def _load_block(self, offset: int, length: int) -> list[list[bytes]]:
        blob = _unframe(self._data, offset, length)
        if self._sealer is not None:
            context = (b"sst:" + self.segment_id.to_bytes(8, "big")
                       + b":" + offset.to_bytes(8, "big"))
            blob = self._sealer.open(blob, context)
        entries = rlp.decode(blob)
        return entries if isinstance(entries, list) else []

    def _block(self, offset: int, length: int) -> list[list[bytes]]:
        if self._cache is None:
            return self._load_block(offset, length)

        def loader():
            block = self._load_block(offset, length)
            size = sum(len(e[0]) + len(e[2]) + 16 for e in block)
            return block, size

        return self._cache.get_or_load(self.segment_id, offset, loader)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """(found, value) — value is None for a tombstone hit."""
        if not self._index or not self._bloom.might_contain(key):
            return False, None
        pos = bisect_right(self._first_keys, key) - 1
        if pos < 0:
            return False, None
        _, offset, length = self._index[pos]
        for entry_key, op, value in self._block(offset, length):
            if entry_key == key:
                return True, (None if op == OP_DELETE else value)
            if entry_key > key:
                break
        return False, None

    def items(self):
        """All entries in key order, tombstones as (key, None)."""
        for _, offset, length in self._index:
            for entry_key, op, value in self._block(offset, length):
                yield entry_key, (None if op == OP_DELETE else value)

    def verify_blocks(self) -> int:
        """Structural check: every block frame's CRC (works sealed)."""
        checked = 0
        for _, offset, length in self._index:
            _unframe(self._data, offset, length)
            checked += 1
        return checked
