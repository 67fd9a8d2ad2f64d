"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the AEAD used by CONFIDE's D-Protocol for contract states/code and
by the T-Protocol digital envelope.  GHASH uses Shoup's table method with
8-bit windows for a usable pure-Python speed; the table is precomputed per
key, so reuse an :class:`AesGcm` instance when encrypting many payloads
under one key (or let :func:`for_key` do the reuse for you).

Each :meth:`AesGcm.seal` or :meth:`AesGcm.open` makes one call into the
whole-buffer AES kernel (:meth:`repro.crypto.aes.AES.encrypt_blocks`):
the counter blocks J0, inc32(J0), ... go in together, so the tag mask
E(J0) and the keystream come out of the same call.  A key's first call
also encrypts the zero block, which gives GHASH its H.  GHASH's Horner
step is unrolled over the 16 bytes of each block.

Replicated-state determinism
----------------------------
Every consensus node must produce *bit-identical* ciphertext for the same
plaintext state, otherwise encrypted contract states could never agree in
the state merkle root.  :func:`deterministic_nonce` derives an SIV-style
nonce from (key, aad, plaintext), which the D-Protocol uses instead of a
random nonce.  Nonce reuse then only happens when key, AAD *and* plaintext
are all equal — in which case the ciphertext is identical anyway and no
information leaks beyond equality, which the replicated ledger exposes by
construction.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import threading
from collections import OrderedDict

from repro.crypto.aes import AES
from repro.crypto.entropy import token_bytes
from repro.errors import AuthenticationError, CryptoError

TAG_SIZE = 16
NONCE_SIZE = 12

_MASK128 = (1 << 128) - 1
_R = 0xE1000000000000000000000000000000


def _mulx(v: int) -> int:
    """Multiply a GCM field element by x (one-bit shift with reduction)."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def _build_reduction_table() -> list[int]:
    # red8[j] == mulx applied 8 times to the low byte j; combined with a
    # plain >>8 this gives a one-step "multiply by x^8".
    table = []
    for j in range(256):
        v = j
        for _ in range(8):
            v = _mulx(v)
        table.append(v)
    return table


_RED8 = _build_reduction_table()


def _gf_mult_slow(x: int, y: int) -> int:
    """Bit-by-bit GF(2^128) multiply, used only for table construction."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = _mulx(v)
    return z


class _Ghash:
    """GHASH keyed by H, with a 256-entry Shoup table."""

    def __init__(self, h: int):
        # T[n] = H * (polynomial of byte n) in GCM's reflected bit order:
        # the high bit of n carries H itself, each lower bit one more
        # multiply-by-x.  Powers of two come from repeated _mulx; the rest
        # from one XOR of the top set bit's entry with the remainder's.
        t = [0] * 256
        t[0x80] = h
        bit = 0x40
        while bit:
            t[bit] = _mulx(t[bit << 1])
            bit >>= 1
        for n in range(2, 256):
            top = 1 << (n.bit_length() - 1)
            if n != top:
                t[n] = t[top] ^ t[n ^ top]
        self._table = t

    def _mult_h(self, y: int) -> int:
        """Return y * H: Horner in the GCM field, one table step per byte.

        Every block of :meth:`digest` (its tail and length block too)
        goes through here.  In GCM's reflected bit order the *last* byte
        of y's big-endian encoding carries the highest power of x, so
        Horner walks the bytes from the end.
        """
        t = self._table
        red8 = _RED8
        b = y.to_bytes(16, "big")
        z = t[b[15]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[14]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[13]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[12]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[11]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[10]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[9]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[8]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[7]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[6]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[5]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[4]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[3]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[2]]
        z = (z >> 8) ^ red8[z & 0xFF] ^ t[b[1]]
        return (z >> 8) ^ red8[z & 0xFF] ^ t[b[0]]

    def digest(self, aad: bytes, ciphertext: bytes) -> int:
        mult_h = self._mult_h
        from_bytes = int.from_bytes
        y = 0
        for data in (aad, ciphertext):
            full = len(data) & ~15
            for off in range(0, full, 16):
                y = mult_h(y ^ from_bytes(data[off : off + 16], "big"))
            if full != len(data):
                tail = data[full:] + b"\x00" * (16 - (len(data) - full))
                y = mult_h(y ^ from_bytes(tail, "big"))
        lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
        return mult_h(y ^ lengths)


def _counter_blocks(nonce: bytes, nblocks: int) -> bytes:
    """J0, inc32(J0), ... for a 96-bit nonce: ``nblocks`` counter blocks.

    J0's low word is 1 and the counter does not wrap: that would take a
    64 GiB message, which nothing here seals.
    """
    counters = struct.pack(f">{nblocks}I", *range(1, 1 + nblocks))
    blocks = bytearray((bytes(nonce) + bytes(4)) * nblocks)
    for j in range(4):
        blocks[12 + j :: 16] = counters[j::4]
    return bytes(blocks)


class AesGcm:
    """AES-GCM bound to one key; reusable across many messages."""

    def __init__(self, key: bytes):
        self._aes = AES(key)
        self._key = bytes(key)
        # Set by the key's first kernel call, which also encrypts H's
        # zero block: a one-shot key pays for one call, not two.
        self._ghash: _Ghash | None = None

    def _ctr(self, nonce: bytes, length: int) -> tuple[_Ghash, int, bytes]:
        """GHASH for this key, the tag mask E(J0) and ``length`` bytes of
        keystream from inc32(J0), all from one kernel call."""
        blocks = _counter_blocks(nonce, 1 + (length + 15) // 16)
        ghash = self._ghash
        if ghash is None:
            out = self._aes.encrypt_blocks(bytes(16) + blocks)
            ghash = self._ghash = _Ghash(int.from_bytes(out[:16], "big"))
            out = out[16:]
        else:
            out = self._aes.encrypt_blocks(blocks)
        return ghash, int.from_bytes(out[:16], "big"), out[16 : 16 + length]

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        n = len(plaintext)
        ghash, tag_mask, stream = self._ctr(nonce, n)
        ciphertext = (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(n, "big") if n else b""
        tag = (ghash.digest(aad, ciphertext) ^ tag_mask).to_bytes(16, "big")
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises AuthenticationError on tamper."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        if len(sealed) < TAG_SIZE:
            raise AuthenticationError("sealed payload shorter than GCM tag")
        ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
        n = len(ciphertext)
        ghash, tag_mask, stream = self._ctr(nonce, n)
        expected = (ghash.digest(aad, ciphertext) ^ tag_mask).to_bytes(16, "big")
        if not hmac.compare_digest(expected, tag):
            raise AuthenticationError("GCM tag mismatch")
        if not n:
            return b""
        return (
            int.from_bytes(ciphertext, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(n, "big")

    def deterministic_nonce(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """SIV-style nonce so replicated encryption is deterministic."""
        return deterministic_nonce(self._key, plaintext, aad)


def deterministic_nonce(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Derive a 12-byte synthetic nonce from (key, aad, plaintext)."""
    mac = hmac.new(key, digestmod=hashlib.sha256)
    mac.update(len(aad).to_bytes(8, "big"))
    mac.update(aad)
    mac.update(plaintext)
    return mac.digest()[:NONCE_SIZE]


def random_nonce() -> bytes:
    """A fresh random 12-byte nonce (for non-replicated uses)."""
    return token_bytes(NONCE_SIZE)


# Bounded per-key instance cache: the T-Protocol touches one k_tx several
# times per transaction (open body, seal receipt) and key-schedule + GHASH
# table setup dominate small-payload GCM calls in pure Python.  Keys here
# are already resident in enclave memory, so caching the derived tables
# leaks nothing new.
_FOR_KEY_CACHE_MAX = 64
_for_key_cache: OrderedDict[bytes, AesGcm] = OrderedDict()
_for_key_lock = threading.Lock()


def for_key(key: bytes) -> AesGcm:
    """A cached :class:`AesGcm` for ``key`` (LRU-bounded, thread-safe)."""
    k = bytes(key)
    with _for_key_lock:
        inst = _for_key_cache.get(k)
        if inst is not None:
            _for_key_cache.move_to_end(k)
            return inst
        inst = AesGcm(k)
        _for_key_cache[k] = inst
        while len(_for_key_cache) > _FOR_KEY_CACHE_MAX:
            _for_key_cache.popitem(last=False)
        return inst


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot AES-GCM seal (prefer AesGcm for repeated use of one key)."""
    return AesGcm(key).seal(nonce, plaintext, aad)


def open_(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """One-shot AES-GCM open (prefer AesGcm for repeated use of one key)."""
    return AesGcm(key).open(nonce, sealed, aad)


# Internal hook used by tests to validate GHASH's step, the one digest
# runs for every block, against the reference bit-by-bit multiply.
def _gf_mult_fast(h: int, y: int) -> int:
    return _Ghash(h)._mult_h(y)


def _gf_mult_reference(h: int, y: int) -> int:
    return _gf_mult_slow(h, y & _MASK128)
