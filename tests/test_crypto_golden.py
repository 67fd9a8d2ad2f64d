"""Golden secp256k1 vectors: fixed-base, variable-base, ECDH, ECDSA, ECIES.

Every literal below was produced by the previous (Jacobian, 4-bit
window) scalar-multiplication code and is kept verbatim, so any rewrite
of the group arithmetic must reproduce it byte for byte.  Each result is
a unique group element, so there is no representation freedom to
excuse a difference.
"""

import pytest

from repro.crypto import ecc, ecdsa, ecies
from repro.crypto.keys import KeyPair

# (k, compressed SEC1 encoding of k*G)
FIXED_BASE = [
    (0x1, "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
    (0x2, "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"),
    (0x3, "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"),
    (0x7, "025cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc"),
    (0xF, "02d7924d4f7d43ea965a465ae3095ff41131e5946f3c85f79e44adbcf8e27e080e"),
    (0x10, "03e60fce93b59e9ec53011aabc21c23e97b2a31369b87a5ae9c44ee89e2a6dec0a"),
    (0x11, "03defdea4cdb677750a420fee807eacf21eb9898ae79b9768766e4faa04a2d4a34"),
    (0xFF, "031b38903a43f7f114ed4500b4eac7083fdefece1cf29c63528d563446f972c180"),
    (
        0xFFFFFFFFFFFFFFFF,
        "0330de2c8bc2010aaebbb647c5bac00eb8028f78d795f2cd4532bc6c504c0e01e7",
    ),
    (
        0x100000000000000000000000000000000,
        "028f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
    ),
    (
        0x100000000000000000000000000000001,
        "038b300e513eff872cdaa6d12df54a3e332f27ce937be77e3e63c5e885114cbf09",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFED,
        "03e13f6e65283b14d25838eed8ce3353c0ff20692112eeff9d167249826bc40986",
    ),
    (
        0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
        "02bcace2e99da01887ab0102b696902325872844067f15e98da7bba04400b88fcb",
    ),
    (
        0xAC9C52B33FA3CF1F5AD9E3FD77ED9BA4A880B9FC8EC739C2E0CFC810B51283CE,
        "02c994b69768832bcbff5e9ab39ae8d1d3763bbf1e531bed98fe51de5ee84f50fb",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5D576E7357A4501DDFE92F46681B20A0,
        "0300000000000000000000003b78ce563f89a0ed9414f5aa28ad0d96d6795f9c63",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5D576E7357A4501DDFE92F46681B20A1,
        "0200000000000000000000003b78ce563f89a0ed9414f5aa28ad0d96d6795f9c63",
    ),
    (
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD036413F,
        "03c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
    ),
    (
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364140,
        "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
    ),
    (
        0x2442FFEEDE6AB0781F47FB14845F2683237CCB5E6CD26AF1D2BE97F972D24B9E,
        "027c7886d113957888b4f2388dbe985805c4ae123d35468270ff39378e070a4002",
    ),
    (
        0x7FC3C2C1EB9394AF89BEE45C15F85978439E1A17E71A3562F1706B10EA641B04,
        "02142eddbc5d9594aab0bb4107e6cd6e36d908d424aa91e7c142fdfa67c97f5753",
    ),
    (
        0x336E4BE6F30CFA46F61EF5B3323991E17906CFEE427513C00FEF059ED4A9ADDD,
        "03f429e01ecc91bb77ef26288af6dab49cca05a9f7644f1653d0623210c6b91761",
    ),
]

# The public key of KeyPair.from_seed(b"golden-base"), and (k, k*Q).
BASE_Q = "0226d31a5a47c165f2903501b9a44c938bab935ab798e717dbb0d1b12afc8de313"
VARIABLE_BASE = [
    (0x1, "0226d31a5a47c165f2903501b9a44c938bab935ab798e717dbb0d1b12afc8de313"),
    (0x2, "03ddeb5bb2ce4f70a1dbaf6129077faec0b11220599ba278de70b52ad200c93cb7"),
    (0x3, "027a003259178d13e7437640c2b272fb231eafdcbed58c348f13b86a4396066da8"),
    (0x7, "0245e08d5c67f4a1dd57476b501e558212448ca48f68afb4127ee906f5b9900377"),
    (0xF, "03adec0a20fa4f43e0625cd20ec5961738c31ce37a0615b99bbaa37fc0293a99fd"),
    (0x10, "03307f288888d6c8f61ffa006e9713d458414fb48cdf0ee98c8b534352e3a15078"),
    (0x11, "024701f08286684ee8954051c43337bc56fb35e1758c356dde234cf7dff0a05903"),
    (0xFF, "02d49bbc74f298ac14c97f0c23e1f81c5c07fed8b1e46e8f8f765fff7f6d13e7b4"),
    (
        0xFFFFFFFFFFFFFFFF,
        "034672b3cac2fe4658bcf8f38da98aa8064ebfc9df0d77371f968553ca23734784",
    ),
    (
        0x100000000000000000000000000000000,
        "022a933fa1756c6f24fdeea796e1cc5ba82d14433473986c184a16cd54a78b5b4b",
    ),
    (
        0x100000000000000000000000000000001,
        "027b41f73d00e333ee494a2bc9b9adf124eadbb8f7006151862cc077d8010211ed",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFED,
        "03e2095598925eab79b82b309b9997f2d8f985839c5aee12d86e3f724031ef971e",
    ),
    (
        0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
        "027f4a32166b3a0081ec8bf78d96c289724d7a1b22896ce7b537b74194b3b3c8a5",
    ),
    (
        0xAC9C52B33FA3CF1F5AD9E3FD77ED9BA4A880B9FC8EC739C2E0CFC810B51283CE,
        "0259e2b38f4d04998b833f06b8c4f0e30206f28a25ddac006f17770d3f4fbe5077",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5D576E7357A4501DDFE92F46681B20A0,
        "0214bb26adcc505bb84484c3ce1e432db4881ec4635a4741e44985064d627d1977",
    ),
    (
        0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5D576E7357A4501DDFE92F46681B20A1,
        "0314bb26adcc505bb84484c3ce1e432db4881ec4635a4741e44985064d627d1977",
    ),
    (
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD036413F,
        "02ddeb5bb2ce4f70a1dbaf6129077faec0b11220599ba278de70b52ad200c93cb7",
    ),
    (
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364140,
        "0326d31a5a47c165f2903501b9a44c938bab935ab798e717dbb0d1b12afc8de313",
    ),
    (
        0x2442FFEEDE6AB0781F47FB14845F2683237CCB5E6CD26AF1D2BE97F972D24B9E,
        "021c1c4ed755412861ee2185cf8155af0bf89ec3d49e4fd3f4903968bc9fce3530",
    ),
    (
        0x7FC3C2C1EB9394AF89BEE45C15F85978439E1A17E71A3562F1706B10EA641B04,
        "03ed3cc8b7f29b5ade0d43e15b51ddd4d0d2711e17ea22174e43dbcf50a04a1f67",
    ),
    (
        0x336E4BE6F30CFA46F61EF5B3323991E17906CFEE427513C00FEF059ED4A9ADDD,
        "03b7e7e1d4f45ba8ce6203c3546e24fbb1d99b20ec42a6faa33bdd415cfac90609",
    ),
]

# (own seed, peer seed, shared secret)
ECDH = [
    (b"alice", b"bob", "e9171d5885da656ddad9c548f3cbd976f1a480dfaf4ea71ccbbfadd6eb4b9079"),
    (
        b"node-tx",
        b"client-0",
        "e8f1d84974fe391f8f4fd4395e7c92f730eb3ff308925a86cbadd703b263f670",
    ),
    (b"x", b"y", "c8d0fe335fe3161c3110f397014e91eb0a966bac27416ae184b5d343018a6082"),
]

# (signer seed, message, r, s)
SIGNATURES = [
    (
        b"signer-0",
        b"",
        0xA1AEAF8639C0434FA5F3878CBA8F48B72E31B354C7639ACCF5E8E6547EB5131D,
        0x21B71887BFEEE1423FDACD3E3B8C15C01A6F3B0C59B6A473E7D118E0DBD62245,
    ),
    (
        b"signer-0",
        b"transfer 10",
        0x4EBE79353C9CAF7375911D99D33E808FD17E477DA77FDD35E124638F6535C93F,
        0x622C11A9238E4073BA60EFA9F4FAD4CDBDB75D66E46B959ECE79303457CEF32E,
    ),
    (
        b"signer-1",
        b"golden message",
        0x6FA75D9F1D8FBCB7FFBCE46018BD17E3627BC2168D35DEA4BB129DCE1A36D96E,
        0x5F879F7B36271D9213D7C666DF8414CC63DE0E12590BC8B395C68C67171C5D2D,
    ),
    (
        b"signer-2",
        bytes(range(64)),
        0xE65BCDA94CD3091E97A07ECC32345DB94F8353983F02BDA2BF604E79B1C87CC7,
        0x704B18E33BCCC2E855A6F77FBA10963825D95C74E46AAB9B294BD8E09B7CA7FB,
    ),
]

# An envelope sealed to KeyPair.from_seed(b"golden-recipient") with
# aad b"golden-aad".
ENVELOPE = (
    "03cc1f7abaaa93f0ce22009129476c334a2cd28fe2687952b4faa17ddb84e692ba"
    "69df971fc1cc615be3bb1e45e0c9be50afdba0edd5490f4e7c62f323bb5c887888"
    "d988d87bdf7d7083cbaeeb537a9030bbc125"
)
ENVELOPE_PLAINTEXT = b"pinned golden plaintext"


@pytest.mark.parametrize(("k", "expected"), FIXED_BASE)
def test_fixed_base(k, expected):
    assert ecc.scalar_mult(k).encode().hex() == expected


def test_base_point_q():
    assert KeyPair.from_seed(b"golden-base").public.encode().hex() == BASE_Q


@pytest.mark.parametrize(("k", "expected"), VARIABLE_BASE)
def test_variable_base(k, expected):
    q = ecc.decode_point(bytes.fromhex(BASE_Q))
    assert ecc.scalar_mult(k, q).encode().hex() == expected


@pytest.mark.parametrize(("own", "peer", "expected"), ECDH)
def test_ecdh_secret(own, peer, expected):
    mine = KeyPair.from_seed(own)
    theirs = KeyPair.from_seed(peer)
    assert mine.ecdh(theirs.public).hex() == expected
    assert theirs.ecdh(mine.public).hex() == expected


@pytest.mark.parametrize(("seed", "message", "r", "s"), SIGNATURES)
def test_ecdsa_sign(seed, message, r, s):
    kp = KeyPair.from_seed(seed)
    assert ecdsa.sign(kp.private, message) == ecdsa.Signature(r, s)
    assert ecdsa.verify(kp.public, message, ecdsa.Signature(r, s))


def test_ecies_pinned_envelope_opens():
    recipient = KeyPair.from_seed(b"golden-recipient")
    envelope = bytes.fromhex(ENVELOPE)
    assert ecies.decrypt(recipient, envelope, b"golden-aad") == ENVELOPE_PLAINTEXT


def test_verify_verdicts():
    seed, message, r, s = SIGNATURES[2]
    kp = KeyPair.from_seed(seed)
    other = KeyPair.from_seed(b"signer-2")
    assert ecdsa.verify(kp.public, message, ecdsa.Signature(r, s)) is True
    assert ecdsa.verify(kp.public, b"golden messagf", ecdsa.Signature(r, s)) is False
    assert ecdsa.verify(other.public, message, ecdsa.Signature(r, s)) is False
    # verify() does not enforce low-s; the mirrored signature is valid too.
    assert ecdsa.verify(kp.public, message, ecdsa.Signature(r, ecc.N - s)) is True
