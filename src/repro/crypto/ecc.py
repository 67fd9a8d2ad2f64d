"""secp256k1 elliptic-curve group arithmetic.

The curve underlying CONFIDE's T-Protocol envelope (ECIES), the node
transaction keys (sk_tx / pk_tx) and transaction signatures (ECDSA).

Scalar multiplication accumulates in Jacobian coordinates and only ever
adds *affine* points to the accumulator (mixed addition), so each
product costs one modular inversion at the end, done with the extended
Euclidean algorithm (``pow(z, -1, P)``) rather than Fermat:

- **Fixed base** ``k*G`` (key generation, signing, ECIES envelopes): a
  4-bit comb over a table ``d * 16^w * G`` (``w = 0..63``, ``d = 1..15``)
  stored affine, so ``k*G`` is at most 64 mixed additions and no
  doublings.  Built on first use.
- **Variable base** ``k*P`` (the ECDH in ``ecies.decrypt``): the GLV
  endomorphism ``phi(x, y) = (beta*x, y) = lambda*P`` splits ``k`` into
  two ~128-bit halves ``k1 + k2*lambda``, walked by one interleaved
  width-5 wNAF loop over an affine table of odd multiples of ``P`` (the
  table of ``phi(P)`` is the same table with ``x`` scaled by ``beta``).
  That halves the doublings of a plain double-and-add.
- **ECDSA verify** ``u1*G + u2*Q`` (:func:`double_scalar_mult`): one
  Straus/Shamir loop over the GLV halves of both scalars, sharing the
  ~128 doublings between all four.

Tables are normalised to affine with one batched inversion each
(Montgomery's trick).  Every result is a unique group element, so this
is output-identical to any other correct implementation.  None of it is
constant-time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import CryptoError

# secp256k1 domain parameters
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# GLV endomorphism: beta^3 == 1 (mod P), lambda^3 == 1 (mod N) and
# lambda * (x, y) == (beta * x, y) for every point of the group.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A short basis of the lattice {(a, b) : a + b*lambda == 0 (mod N)}.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

_WINDOW = 5  # wNAF width: digits are odd and in (-16, 16)


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``None`` coordinates mean infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self, compressed: bool = True) -> bytes:
        """SEC1 encoding (33 bytes compressed, 65 uncompressed)."""
        if self.is_infinity:
            raise CryptoError("cannot encode the point at infinity")
        assert self.x is not None and self.y is not None
        if compressed:
            prefix = b"\x03" if self.y & 1 else b"\x02"
            return prefix + self.x.to_bytes(32, "big")
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")


INFINITY = Point(None, None)
G = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Check the curve equation y^2 = x^3 + 7 (mod p)."""
    if point.is_infinity:
        return True
    assert point.x is not None and point.y is not None
    return (point.y * point.y - point.x * point.x * point.x - B) % P == 0


def decode_point(data: bytes) -> Point:
    """Decode a SEC1 compressed or uncompressed point."""
    if len(data) == 33 and data[0] in (2, 3):
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise CryptoError("point x out of range")
        y_sq = (pow(x, 3, P) + B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if (y * y) % P != y_sq:
            raise CryptoError("point not on curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return Point(x, y)
    if len(data) == 65 and data[0] == 4:
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        if x >= P or y >= P:
            raise CryptoError("point coordinate out of range")
        point = Point(x, y)
        if not is_on_curve(point):
            raise CryptoError("point not on curve")
        return point
    raise CryptoError("malformed SEC1 point encoding")


def add(p1: Point, p2: Point) -> Point:
    """Group addition of two affine points."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    assert p1.x is not None and p1.y is not None
    assert p2.x is not None and p2.y is not None
    return _to_affine(_add_affine(p1.x, p1.y, 1, p2.x, p2.y))


# ---------------------------------------------------------------------------
# Jacobian accumulator; (X, Y, Z) is the affine (X/Z^2, Y/Z^3), Z == 0 is
# infinity.  Only affine points are ever added to it.
# ---------------------------------------------------------------------------

_JACOBIAN_INFINITY = (0, 1, 0)


def _double(x: int, y: int, z: int) -> tuple[int, int, int]:
    if z == 0 or y == 0:
        return _JACOBIAN_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 for secp256k1
    nx = (m * m - 2 * s) % P
    return nx, (m * (s - nx) - 8 * ysq * ysq) % P, 2 * y * z % P


def _add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int
) -> tuple[int, int, int]:
    """(x1, y1, z1) + (x2, y2) with the second point affine."""
    if z1 == 0:
        return x2, y2, 1
    z1sq = z1 * z1 % P
    h = (x2 * z1sq - x1) % P
    r = (y2 * z1sq * z1 - y1) % P
    if h == 0:
        if r == 0:
            return _double(x1, y1, z1)
        return _JACOBIAN_INFINITY
    h2 = h * h % P
    h3 = h * h2 % P
    u1h2 = x1 * h2 % P
    nx = (r * r - h3 - 2 * u1h2) % P
    return nx, (r * (u1h2 - nx) - y1 * h3) % P, z1 * h % P


def _to_affine(j: tuple[int, int, int]) -> Point:
    x, y, z = j
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _to_affine_batch(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Normalise finite Jacobian points with a single inversion."""
    prefix = []
    acc = 1
    for _, _, z in points:
        acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)
    out: list[tuple[int, int]] = [(0, 0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i - 1] % P if i else inv
        inv = inv * z % P
        z_inv2 = z_inv * z_inv % P
        out[i] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return out


def _multiples(x: int, y: int, count: int) -> list[tuple[int, int, int]]:
    """[1*P, 2*P, ..., count*P] in Jacobian, P = (x, y) affine."""
    out = [(x, y, 1)]
    cur = _double(x, y, 1)
    out.append(cur)
    for _ in range(count - 2):
        cur = _add_affine(*cur, x, y)
        out.append(cur)
    return out


def _odd_multiples(x: int, y: int) -> tuple[tuple, tuple]:
    """wNAF tables for P and for phi(P), indexed by the signed digit.

    ``table[d]`` is ``d * P`` in affine for every odd ``d`` in
    ``(-2^(w-1), 2^(w-1))``; negative digits land at the top of the table
    through Python's negative indexing.
    """
    half = 1 << (_WINDOW - 1)
    odd = _to_affine_batch(_multiples(x, y, half - 1)[::2])
    table: list = [None] * (2 * half)
    phi: list = [None] * (2 * half)
    for i, (ox, oy) in enumerate(odd):
        d = 2 * i + 1
        bx = BETA * ox % P
        table[d], table[-d] = (ox, oy), (ox, P - oy)
        phi[d], phi[-d] = (bx, oy), (bx, P - oy)
    return tuple(table), tuple(phi)


def _wnaf(k: int) -> list[int]:
    """Width-w non-adjacent form of a signed ``k``, least significant first."""
    mask = (1 << _WINDOW) - 1
    half = 1 << (_WINDOW - 1)
    digits = []
    while k:
        if k & 1:
            d = k & mask
            if d >= half:
                d -= 1 << _WINDOW
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _glv_split(k: int) -> tuple[int, int]:
    """GLV split: ``k == k1 + k2*lambda (mod N)`` with ``|k1|, |k2| < 2^129``."""
    c1 = (_B2 * k + N // 2) // N
    c2 = (-_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _straus(pairs: list[tuple[int, tuple]]) -> Point:
    """Sum of ``k_i * T_i`` for wNAF tables ``T_i``, sharing one doubling chain."""
    nafs = [(_wnaf(k), table) for k, table in pairs]
    acc = _JACOBIAN_INFINITY
    for i in range(max((len(naf) for naf, _ in nafs), default=0) - 1, -1, -1):
        acc = _double(*acc)
        for naf, table in nafs:
            if i < len(naf) and naf[i]:
                acc = _add_affine(*acc, *table[naf[i]])
    return _to_affine(acc)


@functools.cache
def _comb_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """``table[w][d - 1] = d * 16^w * G`` in affine, for the fixed-base comb."""
    bases = [(GX, GY, 1)]
    for _ in range(63):
        cur = bases[-1]
        for _ in range(4):
            cur = _double(*cur)
        bases.append(cur)
    rows = []
    for bx, by in _to_affine_batch(bases):
        rows.extend(_multiples(bx, by, 15))
    flat = _to_affine_batch(rows)
    return tuple(tuple(flat[w * 15 : w * 15 + 15]) for w in range(64))


@functools.cache
def _g_tables() -> tuple[tuple, tuple]:
    """wNAF tables for G and phi(G), for :func:`double_scalar_mult`."""
    return _odd_multiples(GX, GY)


def scalar_mult(k: int, point: Point = G) -> Point:
    """Compute k * point (fixed-base comb for G, GLV + wNAF otherwise)."""
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    assert point.x is not None and point.y is not None
    if point.x == GX and point.y == GY:
        table = _comb_table()
        acc = _JACOBIAN_INFINITY
        w = 0
        while k:
            d = k & 15
            if d:
                acc = _add_affine(*acc, *table[w][d - 1])
            k >>= 4
            w += 1
        return _to_affine(acc)
    table, phi = _odd_multiples(point.x, point.y)
    k1, k2 = _glv_split(k)
    return _straus([(k1, table), (k2, phi)])


def double_scalar_mult(u1: int, u2: int, point: Point) -> Point:
    """Compute u1*G + u2*point in one interleaved loop (ECDSA verify)."""
    if point.is_infinity:
        return scalar_mult(u1)
    assert point.x is not None and point.y is not None
    g_table, g_phi = _g_tables()
    table, phi = _odd_multiples(point.x, point.y)
    a1, a2 = _glv_split(u1 % N)
    b1, b2 = _glv_split(u2 % N)
    return _straus([(a1, g_table), (a2, g_phi), (b1, table), (b2, phi)])


def mod_inverse(value: int, modulus: int = N) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    if value % modulus == 0:
        raise CryptoError("no inverse for zero")
    return pow(value, -1, modulus)
