"""Secure Data Module (SDM, paper §3.2.1 and Figure 3-④).

Everything the contract VM reads or writes crosses through here:

- a **crypto engine** applying the D-Protocol (AES-GCM with on-chain
  AAD) to every confidential state, and
- a **memory cache** so repeated access to hot states costs neither an
  ocall nor a decryption.

Storage itself lives outside the enclave, so cache misses issue ocalls
through the enclosing enclave (accruing transition + copy costs).

With a CCLe schema attached, :meth:`store_ccle`/:meth:`load_ccle`
implement selective encryption: the value's public fields are persisted
as plaintext (auditable without keys) and only confidential subtrees are
sealed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.ccle import codec as ccle_codec
from repro.ccle import confidential as ccle_conf
from repro.ccle.schema import Schema
from repro.core.d_protocol import StateAad, StateCipher
from repro.tee.enclave import Enclave

_CACHE_CAPACITY = 4096
_PUB_SUFFIX = b"#pub"
_SEC_SUFFIX = b"#sec"


class SecureDataModule:
    """The SDM bound to one CS enclave and one state cipher."""

    def __init__(self, enclave: Enclave, cipher: StateCipher):
        self._enclave = enclave
        self._cipher = cipher
        self._cache: OrderedDict[bytes, bytes | None] = OrderedDict()
        # Every thread sharing the engine shares this cache; reentrant
        # because load/store issue ocalls that may re-enter through the
        # same thread.
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- raw confidential state -----------------------------------------------

    def load(self, full_key: bytes, aad: StateAad) -> bytes | None:
        """Read and decrypt one state value (cached)."""
        with self._lock:
            if full_key in self._cache:
                self.cache_hits += 1
                self._cache.move_to_end(full_key)
                return self._cache[full_key]
            self.cache_misses += 1
            sealed = self._enclave.ocall("kv_get", full_key)
            value = None if sealed is None else self._cipher.open(sealed, aad)
            self._remember(full_key, value)
            return value

    def store(self, full_key: bytes, value: bytes, aad: StateAad) -> None:
        """Encrypt and write one state value (write-through)."""
        with self._lock:
            sealed = self._cipher.seal(value, aad)
            self._enclave.ocall("kv_set", full_key, sealed)
            self._remember(full_key, bytes(value))

    # -- CCLe selective encryption ---------------------------------------------

    @staticmethod
    def _role_suffix(role: str) -> bytes:
        return _SEC_SUFFIX if not role else _SEC_SUFFIX + b"@" + role.encode()

    def store_ccle(
        self, full_key: bytes, encoded: bytes, aad: StateAad, schema: Schema
    ) -> None:
        """Split an encoded CCLe value; persist the public part plaintext
        and each role's confidential subtree sealed under that role's
        subkey (unscoped confidential fields use k_states directly)."""
        with self._lock:
            value = ccle_codec.decode(schema, encoded)
            public, role_secrets = ccle_conf.split_by_role(schema, value)
            public_blob = ccle_codec.encode(schema, public)
            self._enclave.ocall("kv_set", full_key + _PUB_SUFFIX, public_blob)
            for role in sorted(role_secrets):
                secret_blob = ccle_conf.secret_to_bytes(role_secrets[role])
                sealed = self._cipher.role_cipher(role).seal(secret_blob, aad)
                self._enclave.ocall(
                    "kv_set", full_key + self._role_suffix(role), sealed
                )
            self._remember(full_key, bytes(encoded))

    def load_ccle(
        self, full_key: bytes, aad: StateAad, schema: Schema
    ) -> bytes | None:
        """Merge the plaintext public part with every decrypted role
        subtree and re-encode the full value for the contract."""
        with self._lock:
            if full_key in self._cache:
                self.cache_hits += 1
                self._cache.move_to_end(full_key)
                return self._cache[full_key]
            self.cache_misses += 1
            public_blob = self._enclave.ocall("kv_get", full_key + _PUB_SUFFIX)
            if public_blob is None:
                self._remember(full_key, None)
                return None
            merged = ccle_codec.decode(schema, public_blob)
            for role in sorted(schema.roles() | {""}):
                sealed = self._enclave.ocall(
                    "kv_get", full_key + self._role_suffix(role)
                )
                if sealed is None:
                    continue
                secret = ccle_conf.secret_from_bytes(
                    self._cipher.role_cipher(role).open(sealed, aad)
                )
                merged = ccle_conf.merge(schema, merged, secret)
            encoded = ccle_codec.encode(schema, merged)
            self._remember(full_key, encoded)
            return encoded

    # -- cache -------------------------------------------------------------------

    def _remember(self, key: bytes, value: bytes | None) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        if len(self._cache) > _CACHE_CAPACITY:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
