"""Entropy indirection for everything that consumes randomness.

Production code draws from the OS CSPRNG (:mod:`secrets`).  The
deterministic simulation harness (:mod:`repro.sim`) needs every run to
be replayable from a single integer seed, so all nondeterministic draws
— ephemeral ECIES keys, GCM nonces, generated keypairs, platform ids —
go through this module instead of calling :func:`secrets.token_bytes`
directly.  Installing a seeded :class:`random.Random` swaps the source
for the whole process; the default (no source installed) is the CSPRNG,
so nothing changes for normal operation.

This mirrors how FoundationDB-style simulation gets determinism: one
PRNG, one seed, every byte of "randomness" derived from it.
"""

from __future__ import annotations

import random
import secrets
from contextlib import contextmanager
from typing import Iterator

_source: random.Random | None = None


def token_bytes(n: int) -> bytes:
    """`n` random bytes from the installed source (CSPRNG by default)."""
    if _source is None:
        return secrets.token_bytes(n)
    return _source.randbytes(n)


def token_hex(n: int) -> str:
    """`2n` hex characters from the installed source."""
    return token_bytes(n).hex()


def install_entropy(source: random.Random | None) -> random.Random | None:
    """Install (or with ``None`` clear) the process entropy source.

    Returns the previously installed source so callers can restore it.
    """
    global _source
    previous = _source
    _source = source
    return previous


@contextmanager
def deterministic_entropy(seed: int) -> Iterator[random.Random]:
    """Route all entropy through one seeded PRNG for the duration.

    Not thread-safe by design: the simulator is single-threaded (that is
    what makes runs replayable).
    """
    rng = random.Random(seed)
    previous = install_entropy(rng)
    try:
        yield rng
    finally:
        install_entropy(previous)
