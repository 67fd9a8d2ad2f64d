"""The four workloads: what each sends and how much.

Why each was chosen is recorded in ``BENCHMARK.json`` and the README.
A run is ``--seconds / cycle_s`` cycles of a saturating burst, a paced
segment of writes and a paced segment of reads; each is fixed work, so
two runs of one commit do the same and compare, and each is short enough
that the machine's speed, sampled on either side of it, mostly holds
through it (``calibrate.py``).  Paced rates keep every rig under about a
third busy, so the median latencies sit in the idle regime on a slow
machine too (README, "Sizing").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ccle import encode as ccle_encode
from repro.chain.transaction import Transaction
from repro.workloads.abs import ABS_SCHEMA, make_asset
from repro.workloads.clients import Client
from repro.workloads.coldchain import encode_reading
from repro.workloads.mix import (
    CANARY_DEBTOR,
    CANARY_TAG,
    DEFAULT_WEIGHTS,
    NUM_SHIPMENTS,
    TrafficMix,
)
from repro.workloads.scf import make_transfer_input

WINDOW = 32  # transactions kept outstanding while saturating


@dataclass(frozen=True)
class Workload:
    name: str
    rig: str  # "serve" | "consortium"
    weights: dict[str, float]
    burst_txs: int  # one saturating burst commits this many
    paced_writes: int  # transactions of one paced write segment ...
    write_s: float = 1.0  # ... evenly spread over this long
    paced_reads: int = 80  # query_state calls of one paced read segment ...
    read_s: float = 0.5  # ... evenly spread over this long
    cycle_s: float = 2.0  # burst + both segments, nominal: sets the cycle count
    memo_bytes: int = 200  # ABS record padding; 700 gives the paper's 1 KB
    prepopulate: int = 0  # ABS records committed during set-up
    restarts: int = 3  # restart_s is their median
    fits_in_cache: bool = True  # the run fails if the block cache evicts

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


WORKLOADS = {w.name: w for w in (
    # 296 B envelopes, one contract call over 16 shipments.
    Workload("serve-coldchain", "serve", {"coldchain": 1.0},
             burst_txs=64, paced_writes=20),
    # 31 contract calls, 151 GetStorage, 9 SetStorage per transfer.
    Workload("serve-scf", "serve", {"scf": 1.0},
             burst_txs=32, paced_writes=8),
    # 700 × 1 KB records = 1.33 MB of live SSTables against the store's
    # 1 MiB block cache.  Each 3-tx block rescans the whole store through
    # the thrashing cache (~1.5 s) and stalls every reader meanwhile, so
    # the counts are small: a burst is one block, a write segment is one
    # transaction, and the reads have a segment of their own, as on every
    # workload, where no block stalls them.
    Workload("serve-abs-bigstate", "serve", {"abs": 1.0},
             burst_txs=3, paced_writes=1, write_s=0.2, cycle_s=4.0,
             memo_bytes=700, prepopulate=700, fits_in_cache=False,
             restarts=2),
    # The default 60/30/10 mix, replicated four ways on one thread.  Two
    # whole decks of the mix to a burst and one to a write segment, so
    # every burst and every segment sends the same kinds.
    Workload("consortium-mixed", "consortium", dict(DEFAULT_WEIGHTS),
             burst_txs=20, paced_writes=10, write_s=1.6, cycle_s=2.8),
)}


@dataclass
class SealedTx:
    """One pre-sealed business transaction and what opens its receipt."""

    tx: Transaction
    wire: str  # hex, as submit_tx takes it
    raw_hash: bytes
    owner: Client


@dataclass
class Load:
    """Seeded factory for a workload's traffic.

    Deploys and wiring come from ``TrafficMix``; business transactions
    are built here from the same public encoders, so the benchmark keeps
    each transaction's raw hash and owner and can open every receipt.
    """

    workload: Workload
    pk_tx: object
    seed: int
    mix: TrafficMix = field(init=False)
    user_bytes: int = 0  # wire bytes of everything built so far

    def __post_init__(self) -> None:
        self.mix = TrafficMix(self.pk_tx, seed=self.seed,
                              weights=dict(self.workload.weights))
        self._rng = random.Random(f"load-{self.seed}")
        self._names = sorted(self.workload.weights)
        self._weights = [self.workload.weights[n] for n in self._names]
        self._clients = {
            name: Client.from_seed(f"e2e-{name}-{self.seed}".encode())
            for name in self._names
        }
        self._counts = dict.fromkeys(self._names, 0)
        self._decks: dict[str, list[str]] = {}

    @property
    def canary_needles(self) -> list[bytes]:
        return self.mix.canary_needles

    def provisioning(self) -> list[Transaction]:
        """Deploys, then wiring; each must commit before the next."""
        requests = (self.mix.deploy_transactions()
                    + self.mix.setup_transactions())
        self.user_bytes += sum(r.tx.wire_size for r in requests)
        return [r.tx for r in requests]

    def take(self, count: int, stream: str = "") -> list[SealedTx]:
        """The next ``count`` transactions, in the order they must be
        submitted (nonces).  Each ``stream`` deals from a deck of its
        own, so bursts of whole decks all hold the same kinds whatever
        the paced segments between them took."""
        return [self._next(stream) for _ in range(count)]

    def _kind(self, stream: str) -> str:
        """The next transaction's workload.  Kinds come in seeded shuffles
        of a deck that holds each in proportion to its weight, so every
        seed sends the same amount of each and only the order differs."""
        deck = self._decks.setdefault(stream, [])
        if not deck:
            smallest = min(self._weights)
            for name, weight in zip(self._names, self._weights):
                deck += [name] * round(weight / smallest)
            self._rng.shuffle(deck)
        return deck.pop()

    def _next(self, stream: str) -> SealedTx:
        name = self._kind(stream)
        index = self._counts[name]
        self._counts[name] = index + 1
        contract, method, args = getattr(self, f"_{name}")(index)
        owner = self._clients[name]
        raw = owner.call_raw(contract, method, args)
        tx = owner.seal(self.pk_tx, raw)
        self.user_bytes += tx.wire_size
        return SealedTx(tx, tx.encode().hex(), raw.tx_hash, owner)

    def _coldchain(self, index: int):
        shipment = f"SHIP{index % NUM_SHIPMENTS:04d}".encode()
        temp = (index * 7) % 150 - 50
        return (self.mix.addresses["coldchain"], "record",
                encode_reading(shipment, temp, CANARY_TAG))

    def _scf(self, index: int):
        args = make_transfer_input(
            from_id=f"ACCT{index % 97:04d}".encode(),
            to_id=f"ACCT{(index + 1) % 97:04d}".encode(),
            cert_id=f"CERT{index % 31:04d}".encode(),
        )
        return self.mix.addresses["scf:gateway"], "transfer", args

    def _abs(self, index: int):
        asset = make_asset(index, memo_bytes=self.workload.memo_bytes)
        asset["debtor"] = CANARY_DEBTOR
        return (self.mix.addresses["abs"], "transfer_asset",
                ccle_encode(ABS_SCHEMA, asset))
