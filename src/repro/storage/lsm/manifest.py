"""The sealed, monotonic root manifest — the database's trust anchor.

The manifest names the exact set of live SSTable segments (with sizes
and checksums), the current WAL generation, and an application-supplied
binding (the chain state root, for node databases).  It is the single
commit point of the store: a flush or compaction becomes visible only
when the next manifest epoch lands, via atomic write-then-rename.

Freshness (Brandenburger et al.: persisted TEE state needs rollback
protection) is enforced with a **monotonic epoch counter** kept outside
the database — on the platform object for enclave-backed stores, which
models an SGX monotonic counter / TPM NV index surviving process
crashes.  On open:

- ``epoch < counter`` → the host restored an old manifest → **refused**;
- ``epoch > counter + 1`` → a forged future manifest → **refused**;
- ``epoch == counter + 1`` → the crash window between manifest write
  and counter advance → accepted, counter re-advanced;
- a *missing* manifest while the counter is non-zero → refused (deleting
  the manifest is just rollback to epoch 0).

Mix-and-match protection: every listed segment's size and CRC must match
the file on disk, so substituting an old segment under a current
manifest fails closed.  With a :class:`StorageSealer` the manifest body
is AES-GCM sealed (AAD binds the plaintext epoch in the header), so a
host cannot forge or reshuffle the manifest itself.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage import rlp
from repro.storage.lsm.seal import StorageSealer
from repro.storage.lsm.sstable import SegmentMeta
from repro.storage.lsm.wal import fsync_dir

MANIFEST_NAME = "MANIFEST"

_HEADER = struct.Struct(">IQI")  # crc32, epoch, body length


@dataclass(frozen=True)
class SegmentRecord:
    """Manifest entry for one live segment."""

    segment_id: int
    filename: str
    size: int
    checksum: int
    count: int

    @classmethod
    def from_meta(cls, meta: SegmentMeta) -> "SegmentRecord":
        return cls(meta.segment_id, meta.filename, meta.size,
                   meta.checksum, meta.count)


@dataclass(frozen=True)
class RootManifest:
    """One committed epoch of the store."""

    epoch: int
    wal_seq: int
    segments: tuple[SegmentRecord, ...]
    extra: bytes = b""  # application binding, e.g. the chain state root

    def encode(self) -> bytes:
        return rlp.encode([
            rlp.encode_int(self.wal_seq),
            [
                [
                    rlp.encode_int(s.segment_id),
                    s.filename.encode(),
                    rlp.encode_int(s.size),
                    rlp.encode_int(s.checksum),
                    rlp.encode_int(s.count),
                ]
                for s in self.segments
            ],
            self.extra,
        ])

    @classmethod
    def decode(cls, epoch: int, blob: bytes) -> "RootManifest":
        items = rlp.decode(blob)
        if not isinstance(items, list) or len(items) != 3:
            raise StorageError("malformed manifest body")
        segments = tuple(
            SegmentRecord(
                rlp.decode_int(s[0]), s[1].decode(), rlp.decode_int(s[2]),
                rlp.decode_int(s[3]), rlp.decode_int(s[4]),
            )
            for s in items[1]
        )
        return cls(epoch, rlp.decode_int(items[0]), segments, items[2])


class CounterFreshness:
    """In-memory monotonic counter (tests, standalone stores)."""

    def __init__(self, value: int = 0):
        self.value = value

    def current(self) -> int:
        return self.value

    def advance(self, epoch: int) -> None:
        self.value = max(self.value, epoch)


class PlatformFreshness:
    """Monotonic counter anchored on a TEE platform object.

    The counter dict lives on the platform (the machine), so it survives
    a process crash exactly like an SGX monotonic counter would — and a
    copied database directory arrives on another platform with no
    counter, where the sealed manifest will not open anyway.
    """

    def __init__(self, platform, name: str = "lsm"):
        self._platform = platform
        self._name = name
        if not hasattr(platform, "monotonic_counters"):
            platform.monotonic_counters = {}

    def current(self) -> int:
        return self._platform.monotonic_counters.get(self._name, 0)

    def advance(self, epoch: int) -> None:
        counters = self._platform.monotonic_counters
        counters[self._name] = max(counters.get(self._name, 0), epoch)


def _context(epoch: int) -> bytes:
    return b"manifest:" + epoch.to_bytes(8, "big")


def write_manifest(
    directory: str,
    manifest: RootManifest,
    sealer: StorageSealer | None = None,
    freshness=None,
    sync: bool = False,
) -> None:
    """Commit one epoch atomically (write tmp, fsync, rename, advance).

    With ``sync`` the directory is fsynced after the rename — without
    it, power loss can forget the rename itself and silently revert the
    store to the previous epoch.
    """
    body = manifest.encode()
    if sealer is not None:
        body = sealer.seal(body, _context(manifest.epoch))
    header_tail = struct.pack(">QI", manifest.epoch, len(body))
    blob = struct.pack(">I", zlib.crc32(header_tail + body)) + header_tail + body
    tmp = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(directory, MANIFEST_NAME))
    if sync:
        fsync_dir(directory)
    if freshness is not None:
        freshness.advance(manifest.epoch)


def read_manifest(
    directory: str,
    sealer: StorageSealer | None = None,
    freshness=None,
) -> RootManifest | None:
    """Load and authenticate the current manifest; enforce freshness.

    Returns None only for a genuinely fresh directory (no manifest *and*
    a zero counter).  Every tampered, torn, rolled-back or
    forged-future manifest raises :class:`StorageError`.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    expected = freshness.current() if freshness is not None else None
    if not os.path.exists(path):
        if expected:
            raise StorageError(
                f"storage rollback detected: manifest missing but the "
                f"monotonic counter says epoch {expected} was committed"
            )
        return None
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise StorageError("manifest truncated")
    crc, epoch, body_len = _HEADER.unpack(blob[:_HEADER.size])
    body = blob[_HEADER.size:]
    if len(body) != body_len or zlib.crc32(blob[4:]) != crc:
        raise StorageError("manifest checksum mismatch")
    if expected is not None:
        if epoch < expected:
            raise StorageError(
                f"storage rollback detected: manifest epoch {epoch} is "
                f"older than the monotonic counter ({expected})"
            )
        if epoch > expected + 1:
            raise StorageError(
                f"manifest epoch {epoch} is ahead of the monotonic "
                f"counter ({expected}); refusing a forged future state"
            )
    if sealer is not None:
        body = sealer.open(body, _context(epoch))
    manifest = RootManifest.decode(epoch, body)
    if freshness is not None:
        freshness.advance(epoch)
    return manifest


def verify_segments(directory: str, manifest: RootManifest) -> None:
    """Mix-and-match guard: every listed segment must exist with the
    exact size and checksum the manifest committed."""
    for record in manifest.segments:
        path = os.path.join(directory, record.filename)
        if not os.path.exists(path):
            raise StorageError(
                f"segment {record.filename} named by the manifest is missing"
            )
        size = os.path.getsize(path)
        if size != record.size:
            raise StorageError(
                f"segment {record.filename} size {size} does not match the "
                f"manifest ({record.size}); mixed segment set refused"
            )
        with open(path, "rb") as f:
            checksum = zlib.crc32(f.read())
        if checksum != record.checksum:
            raise StorageError(
                f"segment {record.filename} checksum mismatch; mixed or "
                "substituted segment set refused"
            )
