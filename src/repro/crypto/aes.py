"""Pure-Python AES block cipher (encrypt direction only).

CONFIDE uses AES exclusively in GCM mode, which needs only the forward
cipher, so the inverse cipher is intentionally not implemented.

There is one kernel, :meth:`AES.encrypt_blocks`, and it encrypts many
blocks at once.  It packs up to 64 blocks (1 KiB) into one big integer
and runs every round over all of them with a handful of whole-buffer
operations, so the Python interpreter is entered per round, not per
byte or per block:

- SubBytes is ``bytes.translate`` through the S-box;
- ShiftRows rotates row r (1–3) left by r columns with two masked
  shifts, by 32·r and 128 − 32·r bits, inside each 128-bit lane;
- MixColumns is ``t = s ^ rot8(s)`` and ``xtime(t) ^ rot8(s) ^ rot16(t)``,
  rotating bytes inside each 32-bit column; xtime doubles every byte at
  once with a masked shift and a multiply by 0x1B of each byte's top bit;
- AddRoundKey XORs the round key repeated across the chunk.

The masks are built once at import for a full chunk; a shorter chunk of
n blocks shifts them right by 128·(64 − n) bits.  Working in fixed
chunks keeps the transient integers of one call at a few KiB whatever
the buffer's size.  A call of a few blocks costs about 20 µs, a full
chunk about 2 µs per block.

Supports AES-128 and AES-256 keys.
"""

from __future__ import annotations

from repro.errors import CryptoError

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]

_CHUNK_BLOCKS = 64
_CHUNK_BYTES = 16 * _CHUNK_BLOCKS
_SUB = bytes(_SBOX)


def _repeat(pattern: bytes) -> int:
    """``pattern`` repeated across one full chunk, as an integer."""
    return int.from_bytes(pattern * (_CHUNK_BYTES // len(pattern)), "big")


def _row_mask(row: int, columns: range) -> int:
    """Lane mask over the state bytes of ``row`` in ``columns``."""
    lane = bytearray(16)
    for c in columns:
        lane[row + 4 * c] = 0xFF
    return _repeat(bytes(lane))


# One full chunk's masks, in the order _encrypt_chunk unpacks them.
_MASKS = (
    # ShiftRows: row r of the output takes input column c + r.  In a
    # big-endian integer a later byte is a lower one, so columns c < 4 − r
    # come from 32·r bits lower and the others wrap round from 128 − 32·r
    # bits higher, always inside the same 128-bit lane.
    _row_mask(0, range(4)),
    _row_mask(1, range(3)), _row_mask(1, range(3, 4)),
    _row_mask(2, range(2)), _row_mask(2, range(2, 4)),
    _row_mask(3, range(1)), _row_mask(3, range(1, 4)),
    # Byte rotations inside each 32-bit column: rot8 moves byte i + 1 to
    # byte i, rot16 byte i + 2.
    _repeat(b"\xff\xff\xff\x00"), _repeat(b"\x00\x00\x00\xff"),
    _repeat(b"\xff\xff\x00\x00"), _repeat(b"\x00\x00\xff\xff"),
    # xtime in every byte: the low seven bits, and the top bit moved down.
    _repeat(b"\x7f"), _repeat(b"\x01"),
)
# Times a 128-bit round key: the key in every lane.
_ONES = _repeat(bytes(15) + b"\x01")


def _sub_word(word: int) -> int:
    return (
        (_SBOX[(word >> 24) & 0xFF] << 24)
        | (_SBOX[(word >> 16) & 0xFF] << 16)
        | (_SBOX[(word >> 8) & 0xFF] << 8)
        | _SBOX[word & 0xFF]
    )


def _rot_word(word: int) -> int:
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


def expand_key(key: bytes) -> list[int]:
    """Expand a 16- or 32-byte key into the round-key word schedule."""
    if len(key) not in (16, 32):
        raise CryptoError(f"AES key must be 16 or 32 bytes, got {len(key)}")
    nk = len(key) // 4
    rounds = nk + 6
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp)) ^ (_RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class AES:
    """Forward AES cipher bound to a single expanded key."""

    def __init__(self, key: bytes):
        words = expand_key(key)
        self._keys = [
            (words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32) | words[i + 3]
            for i in range(0, len(words), 4)
        ]
        # The round keys repeated across a full chunk, built on the first
        # full chunk: most keys only ever encrypt a few blocks at a time.
        self._chunk_keys: list[int] | None = None

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return self.encrypt_blocks(block)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt consecutive 16-byte blocks independently (ECB), in
        chunks of up to 64 blocks; ``len(data)`` must be a multiple of 16."""
        if len(data) % 16:
            raise CryptoError("AES input must be whole 16-byte blocks")
        return b"".join(
            self._encrypt_chunk(data[off : off + _CHUNK_BYTES])
            for off in range(0, len(data), _CHUNK_BYTES)
        )

    def _encrypt_chunk(self, chunk: bytes) -> bytes:
        size = len(chunk)
        if size == _CHUNK_BYTES:
            masks = _MASKS
            round_keys = self._chunk_keys
            if round_keys is None:
                round_keys = self._chunk_keys = [k * _ONES for k in self._keys]
        else:
            drop = 8 * (_CHUNK_BYTES - size)
            masks = [m >> drop for m in _MASKS]
            ones = _ONES >> drop
            round_keys = [k * ones for k in self._keys]
        (row0, hi1, lo1, hi2, lo2, hi3, lo3,
         rot8_hi, rot8_lo, rot16_hi, rot16_lo, low7, bit0) = masks
        from_bytes, sub = int.from_bytes, _SUB
        last = len(round_keys) - 1
        s = from_bytes(chunk, "big") ^ round_keys[0]
        for r in range(1, last + 1):
            s = from_bytes(s.to_bytes(size, "big").translate(sub), "big")
            s = (
                (s & row0)
                | ((s << 32) & hi1) | ((s >> 96) & lo1)
                | ((s << 64) & hi2) | ((s >> 64) & lo2)
                | ((s << 96) & hi3) | ((s >> 32) & lo3)
            )
            if r != last:
                r8 = ((s << 8) & rot8_hi) | ((s >> 24) & rot8_lo)
                t = s ^ r8
                s = (
                    ((t & low7) << 1) ^ (((t >> 7) & bit0) * 0x1B)
                    ^ r8 ^ ((t << 16) & rot16_hi) ^ ((t >> 16) & rot16_lo)
                )
            s ^= round_keys[r]
        return s.to_bytes(size, "big")
