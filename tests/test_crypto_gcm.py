"""AES-GCM tests: NIST vectors, tamper detection, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gcm
from repro.errors import AuthenticationError, CryptoError

# McGrew & Viega test vectors (also in NIST's GCM spec).
_KEY2 = bytes(16)
_IV2 = bytes(12)
_KEY34 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
_IV34 = bytes.fromhex("cafebabefacedbaddecaf888")
_PT34 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
_AAD4 = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestNistVectors:
    def test_case1_empty(self):
        out = gcm.seal(_KEY2, _IV2, b"", b"")
        assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_single_zero_block(self):
        out = gcm.seal(_KEY2, _IV2, bytes(16), b"")
        assert out.hex() == (
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        )

    def test_case3_four_blocks(self):
        out = gcm.seal(_KEY34, _IV34, _PT34, b"")
        assert out[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"
        assert out[:16].hex() == "42831ec2217774244b7221b784d0d49c"

    def test_case4_with_aad(self):
        out = gcm.seal(_KEY34, _IV34, _PT34[:-4], _AAD4)
        assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_case4_decrypts(self):
        out = gcm.seal(_KEY34, _IV34, _PT34[:-4], _AAD4)
        assert gcm.open_(_KEY34, _IV34, out, _AAD4) == _PT34[:-4]


class TestTamperDetection:
    def _sealed(self):
        return gcm.seal(b"k" * 16, b"n" * 12, b"attack at dawn", b"hdr")

    def test_flipped_ciphertext_byte(self):
        sealed = bytearray(self._sealed())
        sealed[0] ^= 1
        with pytest.raises(AuthenticationError):
            gcm.open_(b"k" * 16, b"n" * 12, bytes(sealed), b"hdr")

    def test_flipped_tag_byte(self):
        sealed = bytearray(self._sealed())
        sealed[-1] ^= 1
        with pytest.raises(AuthenticationError):
            gcm.open_(b"k" * 16, b"n" * 12, bytes(sealed), b"hdr")

    def test_wrong_aad(self):
        with pytest.raises(AuthenticationError):
            gcm.open_(b"k" * 16, b"n" * 12, self._sealed(), b"other")

    def test_wrong_nonce(self):
        with pytest.raises(AuthenticationError):
            gcm.open_(b"k" * 16, b"m" * 12, self._sealed(), b"hdr")

    def test_wrong_key(self):
        with pytest.raises(AuthenticationError):
            gcm.open_(b"j" * 16, b"n" * 12, self._sealed(), b"hdr")

    def test_truncated_payload(self):
        with pytest.raises(AuthenticationError):
            gcm.open_(b"k" * 16, b"n" * 12, b"short", b"")


class TestNonceHandling:
    def test_bad_nonce_size(self):
        with pytest.raises(CryptoError):
            gcm.seal(b"k" * 16, b"short", b"data")

    def test_deterministic_nonce_is_stable(self):
        n1 = gcm.deterministic_nonce(b"k" * 16, b"data", b"aad")
        n2 = gcm.deterministic_nonce(b"k" * 16, b"data", b"aad")
        assert n1 == n2
        assert len(n1) == gcm.NONCE_SIZE

    def test_deterministic_nonce_separates_inputs(self):
        base = gcm.deterministic_nonce(b"k" * 16, b"data", b"aad")
        assert gcm.deterministic_nonce(b"k" * 16, b"datb", b"aad") != base
        assert gcm.deterministic_nonce(b"k" * 16, b"data", b"aae") != base
        assert gcm.deterministic_nonce(b"j" * 16, b"data", b"aad") != base

    def test_aad_length_ambiguity_resistant(self):
        # (aad="ab", pt="c") vs (aad="a", pt="bc") must not collide.
        n1 = gcm.deterministic_nonce(b"k" * 16, b"c", b"ab")
        n2 = gcm.deterministic_nonce(b"k" * 16, b"bc", b"a")
        assert n1 != n2

    def test_random_nonce_size(self):
        assert len(gcm.random_nonce()) == gcm.NONCE_SIZE


class TestProperties:
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=12, max_size=12),
        plaintext=st.binary(max_size=300),
        aad=st.binary(max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, key, nonce, plaintext, aad):
        sealed = gcm.seal(key, nonce, plaintext, aad)
        assert len(sealed) == len(plaintext) + gcm.TAG_SIZE
        assert gcm.open_(key, nonce, sealed, aad) == plaintext

    @given(h=st.integers(min_value=0, max_value=(1 << 128) - 1),
           y=st.integers(min_value=0, max_value=(1 << 128) - 1))
    @settings(max_examples=60, deadline=None)
    def test_ghash_fast_matches_reference(self, h, y):
        assert gcm._gf_mult_fast(h, y) == gcm._gf_mult_reference(h, y)

    @given(plaintext=st.binary(max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_aes256_key_roundtrip(self, plaintext):
        key = bytes(range(32))
        cipher = gcm.AesGcm(key)
        nonce = b"n" * 12
        assert cipher.open(nonce, cipher.seal(nonce, plaintext)) == plaintext


class TestMemory:
    def test_seal_and_open_work_in_bounded_memory(self):
        # The cipher runs a big buffer 64 blocks at a time.  A kernel
        # that turned the whole 64 KiB into one integer would hold its
        # masks, round keys and round temporaries at full width: about
        # 2 MiB beyond the input and output here, 8.5 MiB at 256 KiB.
        # Traced allocation slows GHASH ~40x, which sets the size.
        import tracemalloc

        cipher = gcm.AesGcm(bytes(range(16)))
        nonce = bytes(12)
        cipher.seal(nonce, b"")  # derive H outside the traced region
        plaintext = bytes(64 * 1024)
        tracemalloc.start()
        try:
            sealed = cipher.seal(nonce, plaintext, b"aad")
            _current, seal_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opened = cipher.open(nonce, sealed, b"aad")
            _current, open_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opened == plaintext
        bound = 512 * 1024
        assert seal_peak - len(sealed) < bound, f"seal peaked at {seal_peak}"
        assert open_peak - len(sealed) - len(opened) < bound, (
            f"open peaked at {open_peak}"
        )
