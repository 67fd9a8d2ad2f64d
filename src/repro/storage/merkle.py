"""Binary merkle trees: block transaction roots, state commitments, and
SPV inclusion proofs.

The paper's security model (§3.3) leans on two commitments:

- each block header commits to its transactions (so a single malicious
  node cannot forge history), and
- each block commits to the post-state, so "only the transactions whose
  results are computed based on the latest states can pass the consensus
  phase" — replicas cross-check state roots.

The first is served by :class:`MerkleTree`, the second by
:class:`StateCommitment` — the same tree shape, kept up to date from
each block's write set instead of rebuilt from the store.  A *consensus
read* from a possibly-malicious node is verified with
:func:`verify_proof` against a root learned from a quorum (see
:mod:`repro.chain.spv`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from repro.crypto.hashes import sha256
from repro.errors import StorageError

EMPTY_ROOT = sha256(b"repro-empty-merkle")

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return sha256(_LEAF_PREFIX + data)


def _hash_node(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX + left + right)


def _build_levels(leaf_hashes: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree, leaves first; odd nodes are promoted."""
    levels = [leaf_hashes]
    level = leaf_hashes
    while len(level) > 1:
        nxt = [
            _hash_node(level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) & 1:
            nxt.append(level[-1])
        levels.append(nxt)
        level = nxt
    return levels


@dataclass(frozen=True)
class ProofStep:
    """One sibling on the path from a leaf to the root."""

    sibling: bytes
    sibling_on_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf."""

    leaf_index: int
    leaf_data_hash: bytes
    steps: tuple[ProofStep, ...]


class MerkleTree:
    """Binary merkle tree over a fixed list of byte leaves.

    Odd nodes are promoted (not duplicated), so the tree is well defined
    for any leaf count; the empty tree has the distinguished
    :data:`EMPTY_ROOT`.
    """

    def __init__(self, leaves: list[bytes]):
        self._leaf_hashes = [_hash_leaf(leaf) for leaf in leaves]
        self._levels = _build_levels(list(self._leaf_hashes))

    @property
    def root(self) -> bytes:
        if not self._leaf_hashes:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def prove(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at `index`."""
        if not 0 <= index < len(self._leaf_hashes):
            raise StorageError(f"leaf index {index} out of range")
        steps: list[ProofStep] = []
        pos = index
        for level in self._levels[:-1]:
            if pos ^ 1 < len(level):
                # The promoted-odd-node case has no sibling at this level.
                if (pos | 1) < len(level) or pos & 1:
                    sibling_pos = pos ^ 1
                    steps.append(
                        ProofStep(level[sibling_pos], sibling_on_left=bool(pos & 1))
                    )
            pos //= 2
        return MerkleProof(index, self._leaf_hashes[index], tuple(steps))


def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that `leaf` is committed under `root` by `proof`."""
    node = _hash_leaf(leaf)
    if node != proof.leaf_data_hash:
        return False
    for step in proof.steps:
        if step.sibling_on_left:
            node = _hash_node(step.sibling, node)
        else:
            node = _hash_node(node, step.sibling)
    return node == root


def _state_leaf(key: bytes, value: bytes) -> bytes:
    return _hash_leaf(len(key).to_bytes(4, "big") + key + value)


class StateCommitment:
    """Commitment to a whole KV state, maintained block by block.

    The root is the :class:`MerkleTree` root over the key-sorted leaves
    ``len(key) ‖ key ‖ value``.  Construction hashes every pair once;
    :meth:`update` then folds in a block's write set without touching
    the store: an overwritten value re-hashes one root path, an insert
    or delete re-hashes the internal nodes from the first shifted leaf
    rightwards.  Only keys, leaf hashes and internal nodes are held —
    all derived data, in memory only; values stay in the store.
    """

    def __init__(self, items: Iterable[tuple[bytes, bytes]] = ()):
        pairs = sorted(items)
        self._keys = [key for key, _ in pairs]
        self._levels = _build_levels(
            [_state_leaf(key, value) for key, value in pairs]
        )

    @property
    def root(self) -> bytes:
        if not self._keys:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._keys)

    def update(self, puts: dict[bytes, bytes],
               deletes: Iterable[bytes] = ()) -> int:
        """Apply one write set (a key is in `puts` or `deletes`, not
        both; deleting an absent key is a no-op).  Returns the number of
        keys inserted."""
        keys, leaves = self._keys, self._levels[0]
        changed: set[int] = set()  # overwritten in place
        # First leaf whose position or existence changed.  Every edit
        # moves only leaves at or right of its own index, so anything
        # left of the smallest edit index — `changed` included — stays
        # where it was.
        shifted = None
        inserted = 0
        for key in deletes:
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index], leaves[index]
                shifted = index if shifted is None else min(shifted, index)
        for key, value in puts.items():
            leaf = _state_leaf(key, value)
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                if leaves[index] != leaf:
                    leaves[index] = leaf
                    changed.add(index)
            else:
                keys.insert(index, key)
                leaves.insert(index, leaf)
                shifted = index if shifted is None else min(shifted, index)
                inserted += 1
        self._rehash(changed, shifted)
        return inserted

    def _rehash(self, changed: set[int], shifted: int | None) -> None:
        """Recompute the internal nodes above the `changed` leaves and
        above every leaf at or right of `shifted`."""
        levels = self._levels
        level = levels[0]
        depth = 0
        while len(level) > 1:
            depth += 1
            if depth == len(levels):
                levels.append([])
            parents = levels[depth]
            size = (len(level) + 1) // 2
            del parents[size:]
            first = size if shifted is None else shifted >> depth
            changed = {i >> 1 for i in changed if i >> 1 < first}
            for index in (*changed, *range(first, size)):
                left = 2 * index
                node = (
                    _hash_node(level[left], level[left + 1])
                    if left + 1 < len(level) else level[left]
                )
                if index < len(parents):
                    parents[index] = node
                else:
                    parents.append(node)
            level = parents
        del levels[depth + 1:]


def state_root(items: dict[bytes, bytes]) -> bytes:
    """Commitment to a whole KV state: merkle root over sorted pairs."""
    return StateCommitment(items.items()).root
