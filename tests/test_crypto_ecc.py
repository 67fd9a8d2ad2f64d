"""secp256k1 group arithmetic tests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecc
from repro.errors import CryptoError

_scalars = st.integers(min_value=1, max_value=ecc.N - 1)


class TestGroupLaws:
    def test_generator_on_curve(self):
        assert ecc.is_on_curve(ecc.G)

    def test_order_annihilates(self):
        assert ecc.scalar_mult(ecc.N).is_infinity

    def test_identity(self):
        assert ecc.add(ecc.G, ecc.INFINITY) == ecc.G
        assert ecc.add(ecc.INFINITY, ecc.G) == ecc.G

    def test_inverse(self):
        minus_g = ecc.scalar_mult(ecc.N - 1)
        assert ecc.add(ecc.G, minus_g).is_infinity

    def test_double_vs_add(self):
        assert ecc.add(ecc.G, ecc.G) == ecc.scalar_mult(2)

    def test_known_2g(self):
        two_g = ecc.scalar_mult(2)
        assert two_g.x == int(
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16
        )

    @given(a=_scalars, b=_scalars)
    @settings(max_examples=15, deadline=None)
    def test_scalar_distributivity(self, a, b):
        left = ecc.scalar_mult((a + b) % ecc.N)
        right = ecc.add(ecc.scalar_mult(a), ecc.scalar_mult(b))
        assert left == right

    @given(k=_scalars)
    @settings(max_examples=15, deadline=None)
    def test_result_on_curve(self, k):
        assert ecc.is_on_curve(ecc.scalar_mult(k))


class TestEncoding:
    @given(k=_scalars)
    @settings(max_examples=15, deadline=None)
    def test_compressed_roundtrip(self, k):
        point = ecc.scalar_mult(k)
        assert ecc.decode_point(point.encode(compressed=True)) == point

    @given(k=_scalars)
    @settings(max_examples=10, deadline=None)
    def test_uncompressed_roundtrip(self, k):
        point = ecc.scalar_mult(k)
        assert ecc.decode_point(point.encode(compressed=False)) == point

    def test_compressed_size(self):
        assert len(ecc.G.encode()) == 33
        assert len(ecc.G.encode(compressed=False)) == 65

    def test_infinity_not_encodable(self):
        with pytest.raises(CryptoError):
            ecc.INFINITY.encode()

    def test_garbage_rejected(self):
        with pytest.raises(CryptoError):
            ecc.decode_point(b"\x02" + b"\xff" * 31)
        with pytest.raises(CryptoError):
            ecc.decode_point(b"\x09" + b"\x00" * 32)

    def test_non_canonical_uncompressed_rejected(self):
        # (1, y) is on the curve; (1 + P, y) is the same point written
        # with an out-of-range x, and must not decode to a second key.
        y = pow(1 + ecc.B, (ecc.P + 1) // 4, ecc.P)
        assert ecc.is_on_curve(ecc.Point(1, y))
        bad = b"\x04" + (1 + ecc.P).to_bytes(32, "big") + y.to_bytes(32, "big")
        with pytest.raises(CryptoError):
            ecc.decode_point(bad)

    def test_not_on_curve_rejected(self):
        bad = b"\x04" + (1).to_bytes(32, "big") + (1).to_bytes(32, "big")
        with pytest.raises(CryptoError):
            ecc.decode_point(bad)

    def test_x_not_on_curve_compressed(self):
        # x = 5 has no square root for y^2 = x^3+7 mod p? If it does,
        # pick an x known to fail: iterate a couple of candidates.
        found_invalid = False
        for x in range(2, 40):
            y_sq = (pow(x, 3, ecc.P) + 7) % ecc.P
            y = pow(y_sq, (ecc.P + 1) // 4, ecc.P)
            if (y * y) % ecc.P != y_sq:
                with pytest.raises(CryptoError):
                    ecc.decode_point(b"\x02" + x.to_bytes(32, "big"))
                found_invalid = True
                break
        assert found_invalid


class TestModInverse:
    @given(v=st.integers(min_value=1, max_value=ecc.N - 1))
    @settings(max_examples=20, deadline=None)
    def test_inverse_property(self, v):
        assert (v * ecc.mod_inverse(v)) % ecc.N == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(CryptoError):
            ecc.mod_inverse(0)


# ---------------------------------------------------------------------------
# Differential tests against a naive reference that shares no code with
# repro.crypto.ecc: affine double-and-add, Fermat inversions.
# ---------------------------------------------------------------------------


def _ref_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % ecc.P == 0:
            return None
        slope = 3 * x1 * x1 * pow(2 * y1, ecc.P - 2, ecc.P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, ecc.P - 2, ecc.P)
    x3 = (slope * slope - x1 - x2) % ecc.P
    return x3, (slope * (x1 - x3) - y1) % ecc.P


def _ref_mult(k, point):
    result, addend = None, point
    k %= ecc.N
    while k:
        if k & 1:
            result = _ref_add(result, addend)
        addend = _ref_add(addend, addend)
        k >>= 1
    return result


def _as_tuple(point):
    return None if point.is_infinity else (point.x, point.y)


def _scalar(label):
    return int.from_bytes(hashlib.sha256(label).digest(), "big") % ecc.N


def _with_glv_signs(neg1, neg2):
    """A scalar whose GLV halves have the requested signs."""
    i = 0
    while True:
        k = _scalar(b"glv-sign-%d" % i)
        k1, k2 = ecc._glv_split(k)
        if (k1 < 0) == neg1 and (k2 < 0) == neg2:
            return k
        i += 1


_G = (ecc.GX, ecc.GY)
_Q = _ref_mult(_scalar(b"reference-q"), _G)
_EDGE_SCALARS = [
    0,
    1,
    2,
    ecc.N - 1,
    ecc.N,
    ecc.LAMBDA,
    ecc.N - ecc.LAMBDA,
    _with_glv_signs(True, True),
    _with_glv_signs(True, False),
    _with_glv_signs(False, True),
]


class TestDifferential:
    @pytest.mark.parametrize("k", _EDGE_SCALARS)
    def test_fixed_base_edges(self, k):
        assert _as_tuple(ecc.scalar_mult(k)) == _ref_mult(k, _G)

    @pytest.mark.parametrize("k", _EDGE_SCALARS)
    def test_variable_base_edges(self, k):
        q = ecc.Point(*_Q)
        assert _as_tuple(ecc.scalar_mult(k, q)) == _ref_mult(k, _Q)

    @given(k=_scalars)
    @settings(max_examples=15, deadline=None)
    def test_fixed_base_matches_reference(self, k):
        assert _as_tuple(ecc.scalar_mult(k)) == _ref_mult(k, _G)

    @given(k=_scalars, seed=st.binary(min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_variable_base_matches_reference(self, k, seed):
        base = _ref_mult(_scalar(seed), _G)
        assert _as_tuple(ecc.scalar_mult(k, ecc.Point(*base))) == _ref_mult(k, base)

    def test_variable_base_on_minus_g(self):
        minus_g = ecc.Point(ecc.GX, ecc.P - ecc.GY)
        for k in _EDGE_SCALARS:
            assert _as_tuple(ecc.scalar_mult(k, minus_g)) == _ref_mult(
                k, (ecc.GX, ecc.P - ecc.GY)
            )


class TestGlv:
    def test_cube_roots_of_unity(self):
        assert ecc.BETA != 1 and pow(ecc.BETA, 3, ecc.P) == 1
        assert ecc.LAMBDA != 1 and pow(ecc.LAMBDA, 3, ecc.N) == 1

    def test_endomorphism_on_generator(self):
        assert _ref_mult(ecc.LAMBDA, _G) == (ecc.BETA * ecc.GX % ecc.P, ecc.GY)

    @pytest.mark.parametrize("k", _EDGE_SCALARS)
    def test_split_edges(self, k):
        k1, k2 = ecc._glv_split(k % ecc.N)
        assert (k1 + k2 * ecc.LAMBDA - k) % ecc.N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129

    @given(k=st.integers(min_value=0, max_value=ecc.N - 1))
    @settings(max_examples=200, deadline=None)
    def test_split(self, k):
        k1, k2 = ecc._glv_split(k)
        assert (k1 + k2 * ecc.LAMBDA - k) % ecc.N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129

    def test_negative_halves_exist_in_edges(self):
        signs = {tuple(h < 0 for h in ecc._glv_split(k)) for k in _EDGE_SCALARS}
        assert {(True, True), (True, False), (False, True)} <= signs


class TestDoubleScalarMult:
    @given(u1=st.integers(min_value=0, max_value=ecc.N), u2=_scalars)
    @settings(max_examples=15, deadline=None)
    def test_matches_separate_products(self, u1, u2):
        q = ecc.Point(*_Q)
        expected = ecc.add(ecc.scalar_mult(u1), ecc.scalar_mult(u2, q))
        assert ecc.double_scalar_mult(u1, u2, q) == expected
        assert _as_tuple(expected) == _ref_add(_ref_mult(u1, _G), _ref_mult(u2, _Q))

    @pytest.mark.parametrize("u1", [1, 2, ecc.LAMBDA, _with_glv_signs(True, True)])
    def test_cancels_to_infinity(self, u1):
        assert ecc.double_scalar_mult(u1, ecc.N - u1, ecc.G).is_infinity

    @pytest.mark.parametrize("u", [1, 7, ecc.N - 1, _with_glv_signs(False, True)])
    def test_minus_g(self, u):
        minus_g = ecc.Point(ecc.GX, ecc.P - ecc.GY)
        assert ecc.double_scalar_mult(u, u, minus_g).is_infinity
        assert ecc.double_scalar_mult(2 * u, u, minus_g) == ecc.scalar_mult(u)

    def test_same_point_doubles(self):
        assert ecc.double_scalar_mult(3, 4, ecc.G) == ecc.scalar_mult(7)

    def test_zero_scalars(self):
        q = ecc.Point(*_Q)
        assert ecc.double_scalar_mult(0, 0, q).is_infinity
        assert ecc.double_scalar_mult(0, 5, q) == ecc.scalar_mult(5, q)
        assert ecc.double_scalar_mult(5, 0, q) == ecc.scalar_mult(5)
        assert ecc.double_scalar_mult(5, 9, ecc.INFINITY) == ecc.scalar_mult(5)
