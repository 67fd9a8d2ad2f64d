"""Output checks that gate every run.  Each returns a list of problems;
any problem makes the run incorrect and the exit code non-zero."""

from __future__ import annotations

import os
import random

from repro.errors import ReproError

RESTART_SAMPLE = 24  # receipts and state values compared across a restart


def accounting(tally, committed: list, blobs: dict) -> list[str]:
    """accepted + refused + errors = attempted, and exactly one receipt
    per accepted transaction."""
    problems = []
    if tally.accepted + tally.refused + tally.errors != tally.attempted:
        problems.append(
            f"accounting: accepted {tally.accepted} + refused {tally.refused} "
            f"+ errors {tally.errors} != attempted {tally.attempted}")
    if len({sealed.tx.tx_hash for sealed in committed}) != len(committed):
        problems.append("accounting: a transaction committed twice")
    receipts_found = sum(1 for blob in blobs.values() if blob is not None)
    if receipts_found + tally.missing_receipts != tally.accepted:
        problems.append(
            f"accounting: {tally.accepted} accepted but {receipts_found} "
            f"receipts and {tally.missing_receipts} counted missing")
    return problems


def fetch_receipts(target, committed: list, tally) -> dict:
    """After timing: the receipt of every committed transaction."""
    blobs = {}
    for sealed in committed:
        blob = blobs[sealed.tx.tx_hash] = target.receipt(sealed.tx.tx_hash)
        if blob is None:
            tally.missing_receipts += 1
    return blobs


def open_receipts(committed: list, blobs: dict, tally) -> list[str]:
    """Open every receipt with its owner's key; a receipt that does not
    open, or opens to ``success=False``, is a failed operation."""
    problems = []
    for sealed in committed:
        blob = blobs[sealed.tx.tx_hash]
        if blob is None:
            continue
        try:
            receipt = sealed.owner.open_receipt(sealed.raw_hash, blob)
        except ReproError as exc:
            problems.append(f"receipt does not open: {type(exc).__name__}")
            continue
        if receipt.tx_hash != sealed.tx.tx_hash:
            problems.append("receipt names another transaction")
        if not receipt.success:
            tally.unsuccessful += 1
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.operations} operations "
                        f"failed: {dict(vars(tally))}")
    return problems


def canaries(rig, needles: list[bytes]) -> list[str]:
    """No canary plaintext in any HTTP response, nor — after the clean
    close — in any file of any data dir."""
    problems = []
    if rig.canary_hits:
        problems.append(f"canary bytes in {rig.canary_hits} HTTP responses")
    for folder in rig.data_dirs:
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), "rb") as fh:
                blob = fh.read()
            if any(needle in blob for needle in needles):
                problems.append(f"canary bytes on disk in {name}")
    return problems


def replicas_agree(rig) -> list[str]:
    """Every replica holds the same state root and the same consensus KV."""
    states = rig.replica_states()
    root, consensus_kv = states[0]
    problems = []
    for index, (other_root, other_kv) in enumerate(states[1:], start=1):
        if other_root != root:
            problems.append(f"replica {index} state root differs from replica 0")
        if other_kv != consensus_kv:
            problems.append(f"replica {index} consensus KV differs from replica 0")
    return problems


def sample_before_restart(target, blobs: dict, keys: list, seed) -> dict:
    """A seeded sample of receipts and state values, as the rig serves
    them just before the restart."""
    rng = random.Random(f"restart-{seed}")
    hashes = rng.sample(sorted(blobs), min(RESTART_SAMPLE, len(blobs)))
    chosen = rng.sample(keys, min(RESTART_SAMPLE, len(keys)))
    return {
        "receipts": {h: blobs[h] for h in hashes},
        "values": {k: target.read(k) for k in chosen},
    }


def after_restart(rig, target, status_before: dict, sample: dict) -> list[str]:
    """Height, head state root, and the sample must be byte-identical."""
    problems = []
    status = rig.status(target)
    if status["height"] != status_before["height"]:
        problems.append(
            f"restart: height {status['height']} != {status_before['height']}")
    if status["head"]["state_root"] != status_before["head"]["state_root"]:
        problems.append("restart: head state root changed")
    for tx_hash, blob in sample["receipts"].items():
        if blob is None or target.receipt(tx_hash) != blob:
            problems.append("restart: a sampled receipt changed or vanished")
            break
    for key, value in sample["values"].items():
        if value is None or target.read(key) != value:
            problems.append("restart: a sampled state value changed or vanished")
            break
    return problems
