"""At-rest sealing for storage files.

Everything the LSM engine writes to disk (WAL records, SSTable blocks,
the root manifest) can be sealed with AES-GCM under a key that never
touches the disk itself.  The key is **platform derived**
(:meth:`StorageSealer.from_platform`): SGX sealing semantics — the key
comes from the platform secret and a measured identity, so the database
is bound to the machine (and enclave identity) that wrote it; a copied
directory cannot be opened elsewhere.

The AAD of every sealed blob carries a context string (file kind,
segment id, block offset, manifest epoch), so blobs cannot be swapped
between files or repositioned within one — a host shuffling SSTable
blocks produces authentication failures, not silent corruption.

Nonces are synthetic (derived from key, AAD and plaintext, exactly like
the D-Protocol's :class:`~repro.core.d_protocol.StateCipher`), keeping
the on-disk bytes a pure function of the logical content — which the
deterministic simulator relies on.

Every seal and open is a ``storage.seal`` / ``storage.open`` span whose
only attributes are the file kind (``wal``, ``sst`` or ``manifest``) and
the plaintext size: what was sealed, never which record.
"""

from __future__ import annotations

from repro.crypto.gcm import NONCE_SIZE, TAG_SIZE, AesGcm, deterministic_nonce
from repro.errors import AuthenticationError, StorageError
from repro.obs.trace import get_tracer


def _kind(context: bytes) -> str:
    """The file kind an AAD context names (SSTable bloom and index blobs
    count as ``sst``)."""
    if context.startswith(b"wal:"):
        return "wal"
    if context.startswith(b"manifest:"):
        return "manifest"
    return "sst"


class StorageSealer:
    """AEAD wrapper used for whole-file sealing of storage artifacts."""

    def __init__(self, key: bytes, identity: bytes = b""):
        if len(key) not in (16, 32):
            raise StorageError("storage seal key must be an AES key")
        self._key = bytes(key)
        self._gcm = AesGcm(self._key)
        # Mixed into every AAD: the measured identity the data is bound to.
        self.identity = bytes(identity)

    @classmethod
    def from_platform(cls, platform, label: bytes = b"lsm-storage") -> "StorageSealer":
        """Derive from the platform sealing secret (machine-bound)."""
        from repro.tee.enclave import Measurement

        measurement = Measurement.of(label.decode(), 1, ())
        key = platform.sealing_key(measurement)
        return cls(key, identity=measurement.digest)

    def _aad(self, context: bytes) -> bytes:
        return self.identity + b"|" + context

    def seal(self, plaintext: bytes, context: bytes) -> bytes:
        with get_tracer().span("storage.seal", kind=_kind(context),
                               payload_bytes=len(plaintext)):
            aad = self._aad(context)
            nonce = deterministic_nonce(self._key, plaintext, aad)
            return nonce + self._gcm.seal(nonce, plaintext, aad)

    def seal_many(
        self, blobs: list[bytes], contexts: list[bytes]
    ) -> list[bytes]:
        """Seal a batch, byte-identical to per-blob :meth:`seal` calls
        (the nonce is a pure function of key, AAD and plaintext)."""
        if len(blobs) != len(contexts):
            raise StorageError("seal_many needs one context per blob")
        return [self.seal(blob, context) for blob, context in zip(blobs, contexts)]

    @staticmethod
    def sealed_size(plaintext_len: int) -> int:
        """On-disk size of a sealed blob: nonce + ciphertext + tag.
        Deterministic, so writers can lay out offsets before sealing."""
        return NONCE_SIZE + plaintext_len + TAG_SIZE

    def open(self, sealed: bytes, context: bytes) -> bytes:
        if len(sealed) < NONCE_SIZE:
            raise StorageError("sealed storage blob too short")
        nonce, body = sealed[:NONCE_SIZE], sealed[NONCE_SIZE:]
        try:
            with get_tracer().span("storage.open", kind=_kind(context),
                                   payload_bytes=len(body) - TAG_SIZE):
                return self._gcm.open(nonce, body, self._aad(context))
        except AuthenticationError as exc:
            # A blob whose frame CRC verified but whose seal will not
            # open is tampering (wrong key, identity, or context — e.g.
            # a repositioned block), never a torn write: fail closed.
            raise StorageError(
                f"sealed storage blob failed authentication "
                f"(context {context!r}): {exc}"
            ) from exc
