"""D-Protocol: authenticated encryption of persistent contract state and
code (paper §3.2.4, formula 3).

``Data_auth = Enc(k_states, Data)`` with AES-GCM, where the additional
authenticated data binds on-chain run-time facts — contract identity,
contract owner, and the code security version — so a malicious host
cannot swap ciphertexts between contracts or replay blobs across
security-version upgrades without detection.

Nonces are synthetic (derived from key, AAD and plaintext) so replicated
Confidential-Engines produce byte-identical ciphertext and the encrypted
state still agrees in the state commitment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.gcm import NONCE_SIZE, AesGcm, deterministic_nonce
from repro.errors import ProtocolError
from repro.storage import rlp


@dataclass(frozen=True)
class StateAad:
    """The on-chain facts authenticated along with each state blob."""

    contract_id: bytes
    owner: bytes
    security_version: int

    def encode(self) -> bytes:
        return rlp.encode(
            [self.contract_id, self.owner, rlp.encode_int(self.security_version)]
        )


class StateCipher:
    """AEAD bound to the root states key ``k_states``."""

    def __init__(self, k_states: bytes):
        if len(k_states) not in (16, 32):
            raise ProtocolError("k_states must be an AES key")
        self._key = bytes(k_states)
        self._gcm = AesGcm(k_states)

    def seal(self, plaintext: bytes, aad: StateAad) -> bytes:
        aad_bytes = aad.encode()
        nonce = deterministic_nonce(self._key, plaintext, aad_bytes)
        return nonce + self._gcm.seal(nonce, plaintext, aad_bytes)

    def open(self, sealed: bytes, aad: StateAad) -> bytes:
        if len(sealed) < NONCE_SIZE:
            raise ProtocolError("sealed state too short")
        nonce, body = sealed[:NONCE_SIZE], sealed[NONCE_SIZE:]
        return self._gcm.open(nonce, body, aad.encode())

    def role_key(self, role: str) -> bytes:
        """Subkey for a CCLe access-control role.

        The default role ("") is ``k_states`` itself; tagged roles get an
        HKDF-derived subkey, releasable to authorized parties without
        exposing the root key or other roles' data.
        """
        if not role:
            return self._key
        from repro.crypto.hkdf import hkdf

        return hkdf(self._key, info=b"ccle-role:" + role.encode(), length=16)

    def role_cipher(self, role: str) -> "StateCipher":
        """A cipher bound to a role's subkey."""
        if not role:
            return self
        return StateCipher(self.role_key(role))
