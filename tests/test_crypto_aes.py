"""AES block cipher tests against FIPS-197 vectors."""

import pytest

from repro.crypto.aes import AES, expand_key
from repro.errors import CryptoError


class TestAesVectors:
    def test_fips197_aes128(self):
        # FIPS-197 Appendix C.1
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes256(self):
        # FIPS-197 Appendix C.3
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_aes128_classic_vector(self):
        # NIST SP 800-38A ECB-AES128 block 1
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
        assert AES(key).encrypt_block(plaintext) == expected


class TestAesErrors:
    def test_bad_key_size(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    def test_24_byte_key_rejected(self):
        # AES-192 is deliberately unsupported here.
        with pytest.raises(CryptoError):
            AES(b"x" * 24)

    def test_bad_block_size(self):
        cipher = AES(b"k" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"tiny")
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"x" * 17)
        with pytest.raises(CryptoError):
            cipher.encrypt_blocks(b"x" * 33)


class TestKeyExpansion:
    def test_aes128_schedule_length(self):
        assert len(expand_key(b"k" * 16)) == 44  # 4 * (10 + 1)

    def test_aes256_schedule_length(self):
        assert len(expand_key(b"k" * 32)) == 60  # 4 * (14 + 1)

    def test_fips197_first_round_key(self):
        # FIPS-197 A.1: first expanded words equal the key itself.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        words = expand_key(key)
        assert words[0] == 0x2B7E1516
        assert words[3] == 0x09CF4F3C
        # w[4] from the worked example
        assert words[4] == 0xA0FAFE17

    def test_different_keys_different_ciphertexts(self):
        block = b"\x00" * 16
        assert AES(b"a" * 16).encrypt_block(block) != AES(b"b" * 16).encrypt_block(block)

    def test_encryption_is_deterministic(self):
        cipher = AES(b"k" * 16)
        assert cipher.encrypt_block(b"p" * 16) == cipher.encrypt_block(b"p" * 16)
