"""Golden AES and AES-GCM outputs, pinned byte for byte.

The fixture ``tests/fixtures/gcm_golden.json`` records, for an AES-128
and an AES-256 key,

- the sealed output (SHA-256 of ciphertext || tag, and the tag itself)
  of every plaintext length around the cipher's block and 1 KiB chunk
  edges, under AAD of 0, 1, 16 and 20 bytes;
- the SHA-256 of n blocks encrypted one block at a time, for block
  counts around the same chunk edge, which the whole-buffer kernel
  (``AES.encrypt_blocks``) must reproduce as well.

Every input is a pure function of its case, so whatever changes how AES
or GHASH is computed must reproduce each entry.  Regenerate only when
the cipher's output changes on purpose (it never should):

    PYTHONPATH=src python tests/test_crypto_gcm_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.crypto import gcm
from repro.crypto.aes import AES

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "gcm_golden.json")

KEYS = {"aes128": 16, "aes256": 32}
PLAINTEXT_LENGTHS = [0, 1, 15, 16, 17, 1023, 1024, 1025, 3 * 1024 + 5]
AAD_LENGTHS = [0, 1, 16, 20]
BLOCK_COUNTS = [1, 63, 64, 65, 129, 300]


def _bytes(label: str, n: int) -> bytes:
    """``n`` deterministic bytes named by ``label``."""
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(f"{label}/{counter}".encode()).digest()
        counter += 1
    return bytes(out[:n])


def _key(name: str) -> bytes:
    return _bytes(f"key/{name}", KEYS[name])


def _gcm_case(name: str, pt_len: int, aad_len: int) -> dict:
    case = f"{name}/{pt_len}/{aad_len}"
    nonce = _bytes(f"nonce/{case}", gcm.NONCE_SIZE)
    plaintext = _bytes(f"pt/{case}", pt_len)
    aad = _bytes(f"aad/{case}", aad_len)
    sealed = gcm.AesGcm(_key(name)).seal(nonce, plaintext, aad)
    return {"sha256": hashlib.sha256(sealed).hexdigest(),
            "tag": sealed[-gcm.TAG_SIZE:].hex()}


def _ecb_blocks(name: str, n: int) -> bytes:
    return _bytes(f"blocks/{name}/{n}", 16 * n)


def generate() -> dict:
    gcm_cases = {
        f"{name}/{pt_len}/{aad_len}": _gcm_case(name, pt_len, aad_len)
        for name in KEYS for pt_len in PLAINTEXT_LENGTHS
        for aad_len in AAD_LENGTHS
    }
    ecb_cases = {}
    for name in KEYS:
        cipher = AES(_key(name))
        for n in BLOCK_COUNTS:
            data = _ecb_blocks(name, n)
            out = b"".join(cipher.encrypt_block(data[i:i + 16])
                           for i in range(0, len(data), 16))
            ecb_cases[f"{name}/{n}"] = hashlib.sha256(out).hexdigest()
    return {"gcm": gcm_cases, "ecb": ecb_cases}


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(KEYS))
@pytest.mark.parametrize("pt_len", PLAINTEXT_LENGTHS)
@pytest.mark.parametrize("aad_len", AAD_LENGTHS)
def test_seal_matches_golden_and_opens(golden, name, pt_len, aad_len):
    case = f"{name}/{pt_len}/{aad_len}"
    assert _gcm_case(name, pt_len, aad_len) == golden["gcm"][case]
    nonce = _bytes(f"nonce/{case}", gcm.NONCE_SIZE)
    plaintext = _bytes(f"pt/{case}", pt_len)
    aad = _bytes(f"aad/{case}", aad_len)
    sealed = gcm.AesGcm(_key(name)).seal(nonce, plaintext, aad)
    # A fresh instance whose first call is an open derives H there.
    assert gcm.AesGcm(_key(name)).open(nonce, sealed, aad) == plaintext


@pytest.mark.parametrize("name", sorted(KEYS))
@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_whole_buffer_matches_block_by_block(golden, name, n):
    cipher = AES(_key(name))
    data = _ecb_blocks(name, n)
    out = cipher.encrypt_blocks(data)
    assert out == b"".join(cipher.encrypt_block(data[i:i + 16])
                           for i in range(0, len(data), 16))
    assert hashlib.sha256(out).hexdigest() == golden["ecb"][f"{name}/{n}"]


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_crypto_gcm_golden.py --regenerate")
    with open(FIXTURE, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
