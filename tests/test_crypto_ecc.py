"""secp256k1 group arithmetic tests."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import t_protocol
from repro.crypto import ecc, ecies
from repro.crypto.ecc import decode_point
from repro.crypto.keys import KeyPair
from repro.errors import CryptoError
from repro.workloads.clients import Client

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


_REF_BASE = _ref_mult(_scalar(b"comb-base"), _G)
_REF_COMB = ecc.Comb(ecc.Point(*_REF_BASE))


class TestComb:
    @given(k=st.integers(min_value=0, max_value=2 * ecc.N))
    @settings(max_examples=25, deadline=None)
    def test_g_comb_matches_reference(self, k):
        assert _as_tuple(ecc._g_comb().mult(k)) == _ref_mult(k, _G)

    @given(k=st.integers(min_value=0, max_value=2 * ecc.N))
    @settings(max_examples=25, deadline=None)
    def test_recipient_comb_matches_reference(self, k):
        assert _as_tuple(_REF_COMB.mult(k)) == _ref_mult(k, _REF_BASE)

    @pytest.mark.parametrize("bits", [1, 3, 5, 7])
    def test_every_width_matches_reference(self, bits):
        comb = ecc.Comb(ecc.Point(*_REF_BASE), bits)
        for k in _EDGE_SCALARS + [(1 << 255) + 1, ((1 << 250) - 1) << 3]:
            assert _as_tuple(comb.mult(k)) == _ref_mult(k, _REF_BASE)

    def test_table_sizes(self):
        # The top row holds only the digits below N: 256 = 6*42 + 4.
        assert [len(row) - 1 for row in ecc._g_comb()._rows] == [63] * 42 + [15]
        assert [len(row) - 1 for row in _REF_COMB._rows] == [15] * 64
        five = ecc.Comb(ecc.Point(*_REF_BASE), 5)
        assert [len(row) - 1 for row in five._rows] == [31] * 51 + [1]

    def test_no_comb_for_infinity(self):
        with pytest.raises(CryptoError):
            ecc.Comb(ecc.INFINITY)


def _open(keypair, tx):
    return t_protocol.open_transaction(keypair, tx.payload)[1]


class TestPkTxComb:
    """Only the client's T-Protocol seal keeps a comb, for the last pk_tx."""

    def test_built_on_second_seal_in_a_row_then_reused(self, comb_builds):
        engine_key = KeyPair.generate()
        client = Client.from_seed(b"comb-client")
        txs = [
            client.confidential_call(engine_key.public, b"\x01" * 20, "f", b"%d" % i)
            for i in range(4)
        ]
        assert len(comb_builds) == 1
        assert t_protocol._pk_tx_slot == (
            (engine_key.public.x, engine_key.public.y), comb_builds[0]
        )
        for i, tx in enumerate(txs):
            assert _open(engine_key, tx).args == b"%d" % i

    def test_recipients_in_turn_build_no_table(self, comb_builds):
        keys = [KeyPair.from_seed(b"turn-%d" % i) for i in range(3)]
        client = Client.from_seed(b"turn-client")
        for round_ in range(4):
            for key in keys:
                tx = client.confidential_call(key.public, b"\x01" * 20, "f", b"")
                assert _open(key, tx).method == "f"
        assert comb_builds == []

    def test_other_seals_build_no_table(self, comb_builds):
        recipient = KeyPair.generate()
        sealed = [ecies.encrypt(recipient.public, b"m%d" % i) for i in range(5)]
        assert comb_builds == []
        for i, envelope in enumerate(sealed):
            assert ecies.decrypt(recipient, envelope) == b"m%d" % i

    def test_preverify_builds_no_table(self, confidential_engine, comb_builds):
        pk_tx = decode_point(confidential_engine.pk_tx)
        clients = [Client.from_seed(b"preverify-%d" % i) for i in range(50)]
        txs = [c.confidential_call(pk_tx, b"\x01" * 20, "f", b"") for c in clients]
        built = len(comb_builds)
        slot = t_protocol._pk_tx_slot
        assert confidential_engine.preverify_batch(txs) == [True] * 50
        assert len(comb_builds) == built
        assert t_protocol._pk_tx_slot is slot

    def test_two_threads_seal_to_a_new_pk_tx(self, confidential_engine):
        pk_tx = decode_point(confidential_engine.pk_tx)
        first = Client.from_seed(b"race-0").confidential_call(
            pk_tx, b"\x02" * 20, "f", b""
        )
        barrier = threading.Barrier(2, timeout=30)
        sealed = [None, None]

        def seal(slot):
            client = Client.from_seed(b"race-%d" % (slot + 1))
            barrier.wait()
            sealed[slot] = client.confidential_call(pk_tx, b"\x02" * 20, "f", b"")

        threads = [threading.Thread(target=seal, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        txs = [first, *sealed]
        assert confidential_engine.preverify_batch(txs) == [True] * 3

    def test_concurrent_seals_open(self):
        # More threads than cores, switching often, sealing to two pk_tx
        # in runs and in turn: every envelope opens.
        keys = [KeyPair.from_seed(b"stress-%d" % i) for i in range(2)]
        order = [0, 0, 0, 1, 0, 1, 1, 1]
        results = []

        def work(slot):
            client = Client.from_seed(b"stress-client-%d" % slot)
            for step, index in enumerate(order):
                args = b"%d/%d" % (slot, step)
                tx = client.confidential_call(keys[index].public, b"\x03" * 20, "f", args)
                results.append((index, args, tx))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(order)
        for index, args, tx in results:
            assert _open(keys[index], tx).args == args
