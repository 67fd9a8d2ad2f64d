"""Mixed serving traffic: SCF-AR transfers, ABS ingestion, coldchain IoT.

Serving tests and the end-to-end benchmark need a client-side factory
for the paper's three production workloads, weighted the way a
consortium front door would see them: a trickle of heavyweight SCF-AR
receivable transfers, a steady feed of ~1 KB ABS asset records, and a
firehose of small coldchain sensor readings.

Every business transaction is confidential (sealed under ``pk_tx``), and
the ABS and coldchain streams carry **canary bytes** in their
confidential arguments — the ABS debtor name and the coldchain sensor
id, both of which land in sealed *state values*.  The canaries give the
serving tests their teeth: a canary byte appearing in any gateway
response body or in replicated storage is a confidentiality violation,
mechanically detectable with the byte-scan of
:class:`~repro.sim.invariants.ConfidentialityChecker`.

The SCF-AR stream deliberately carries no canary: its three input ids
all flow into storage *keys* (``balance<id>``, ``cert.st<cert>``, ...),
and state keys are plaintext by design — only values are sealed at
rest.  Planting a canary there would flag the contract's own key
layout, not a gateway leak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ccle import encode as ccle_encode
from repro.chain.transaction import Transaction
from repro.crypto.ecc import Point
from repro.errors import ReproError
from repro.lang import compile_source
from repro.workloads.abs import (
    ABS_SCHEMA,
    ABS_SCHEMA_SOURCE,
    flatbuffers_contract_source,
    make_asset,
)
from repro.workloads.clients import Client
from repro.workloads.coldchain import (
    COLDCHAIN_CONTRACT,
    COLDCHAIN_SCHEMA_SOURCE,
    encode_reading,
    encode_register,
)
from repro.workloads.scf import ScfSuite, make_transfer_input, setup_plan

# Default traffic fractions, heaviest-per-tx rarest (SCF-AR is 31
# contract calls per transfer; a coldchain record is one cheap call).
DEFAULT_WEIGHTS = {"scf": 0.10, "abs": 0.30, "coldchain": 0.60}

# Canary material planted in confidential arguments.  The 8-byte tag
# fits the fixed-width coldchain sensor field; the string rides in the
# ABS debtor column.  Both are stored in sealed state *values* (never
# keys — see the module docstring).
CANARY_TAG = b"CNRY#TAG"
CANARY_DEBTOR = "debtor-CANARY-9f3a1c"

NUM_SHIPMENTS = 16


@dataclass
class MixRequest:
    """One business submission: which workload, and the sealed tx."""

    workload: str
    tx: Transaction


@dataclass
class TrafficMix:
    """Deterministic factory for mixed serving traffic.

    Seeded identically, two instances produce byte-identical transaction
    streams — nonces, ids, and workload choices all come from the one
    ``random.Random``.
    """

    pk_tx: Point
    seed: int = 0
    weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS)
    )
    rng: random.Random = field(init=False)
    addresses: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        unknown = set(self.weights) - {"scf", "abs", "coldchain"}
        if unknown:
            raise ReproError(f"unknown mix workloads: {sorted(unknown)}")
        self._names = sorted(name for name, w in self.weights.items() if w > 0)
        self._weights = [self.weights[name] for name in self._names]
        if not self._names:
            raise ReproError("the traffic mix needs at least one workload")
        # One signing identity per workload family keeps nonce streams
        # independent of the interleaving the scheduler picks.
        self._clients = {
            name: Client.from_seed(f"mix-client-{name}-{self.seed}".encode())
            for name in ("deploy", "scf", "abs", "coldchain")
        }
        self._counters = dict.fromkeys(self._names, 0)

    @property
    def canary_needles(self) -> list[bytes]:
        return [CANARY_TAG, CANARY_DEBTOR.encode()]

    # -- setup traffic -----------------------------------------------------

    def deploy_transactions(self) -> list[MixRequest]:
        """Sealed deploys for every contract the mix calls.

        Returns the deploy stream; :attr:`addresses` is populated as a
        side effect (client-computed — a confidential deploy's sender
        and nonce never leave the envelope, so the *client* derives the
        address, not the gateway).
        """
        deployer = self._clients["deploy"]
        requests: list[MixRequest] = []
        suite = ScfSuite.compile()
        for name in sorted(suite.artifacts):
            tx, address = deployer.confidential_deploy(
                self.pk_tx, suite.artifacts[name]
            )
            self.addresses[f"scf:{name}"] = address
            requests.append(MixRequest("deploy", tx))
        abs_artifact = compile_source(flatbuffers_contract_source(), "wasm")
        tx, address = deployer.confidential_deploy(
            self.pk_tx, abs_artifact, schema_source=ABS_SCHEMA_SOURCE
        )
        self.addresses["abs"] = address
        requests.append(MixRequest("deploy", tx))
        cold_artifact = compile_source(COLDCHAIN_CONTRACT, "wasm")
        tx, address = deployer.confidential_deploy(
            self.pk_tx, cold_artifact, schema_source=COLDCHAIN_SCHEMA_SOURCE
        )
        self.addresses["coldchain"] = address
        requests.append(MixRequest("deploy", tx))
        return requests

    def setup_transactions(self) -> list[MixRequest]:
        """Post-deploy wiring: SCF routing plan + shipment registration."""
        if not self.addresses:
            raise ReproError("deploy_transactions must run first")
        deployer = self._clients["deploy"]
        scf_addresses = {
            name.split(":", 1)[1]: address
            for name, address in self.addresses.items()
            if name.startswith("scf:")
        }
        requests = [
            MixRequest("setup", deployer.confidential_call(
                self.pk_tx, scf_addresses[contract], method, args
            ))
            for contract, method, args in setup_plan(scf_addresses)
        ]
        for i in range(NUM_SHIPMENTS):
            args = encode_register(self._shipment_id(i), -100, 100)
            requests.append(MixRequest("setup", deployer.confidential_call(
                self.pk_tx, self.addresses["coldchain"], "register", args
            )))
        return requests

    @staticmethod
    def _shipment_id(i: int) -> bytes:
        return f"SHIP{i:04d}".encode()

    # -- steady-state traffic ----------------------------------------------

    def next_request(self) -> MixRequest:
        """One business transaction, workload drawn from the weights."""
        name = self.rng.choices(self._names, weights=self._weights, k=1)[0]
        index = self._counters[name]
        self._counters[name] = index + 1
        builder = getattr(self, f"_make_{name}")
        return MixRequest(name, builder(index))

    def _make_scf(self, index: int) -> Transaction:
        args = make_transfer_input(
            from_id=f"ACCT{index % 97:04d}".encode(),
            to_id=f"ACCT{(index + 1) % 97:04d}".encode(),
            cert_id=f"CERT{index % 31:04d}".encode(),
        )
        return self._clients["scf"].confidential_call(
            self.pk_tx, self.addresses["scf:gateway"], "transfer", args
        )

    def _make_abs(self, index: int) -> Transaction:
        asset = make_asset(index, memo_bytes=200)
        asset["debtor"] = CANARY_DEBTOR
        return self._clients["abs"].confidential_call(
            self.pk_tx, self.addresses["abs"], "transfer_asset",
            ccle_encode(ABS_SCHEMA, asset),
        )

    def _make_coldchain(self, index: int) -> Transaction:
        sid = self._shipment_id(index % NUM_SHIPMENTS)
        temp = (index * 7) % 150 - 50  # wanders across the [-10, 10] range
        args = encode_reading(sid, temp, CANARY_TAG)
        return self._clients["coldchain"].confidential_call(
            self.pk_tx, self.addresses["coldchain"], "record", args
        )
