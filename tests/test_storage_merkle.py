"""Merkle tree and proof tests."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    StateCommitment,
    state_root,
    verify_proof,
)


class TestTree:
    def test_empty_tree(self):
        assert MerkleTree([]).root == EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.prove(0)
        assert verify_proof(tree.root, b"only", proof)

    def test_root_changes_with_leaves(self):
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([b"a", b"c"])
        assert t1.root != t2.root

    def test_order_matters(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_out_of_range_proof(self):
        with pytest.raises(StorageError):
            MerkleTree([b"a"]).prove(1)

    def test_second_preimage_guard(self):
        # leaf/node domain separation: a two-leaf root never equals a
        # one-leaf root of the concatenated hashes.
        two = MerkleTree([b"a", b"b"])
        assert MerkleTree([two.root]).root != two.root


class TestProofs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
    def test_all_leaves_provable(self, n):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.prove(i)), (n, i)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_wrong_leaf_rejected(self, n):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        assert not verify_proof(tree.root, b"forged", tree.prove(0))

    def test_wrong_root_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        other = MerkleTree([b"x", b"y"])
        assert not verify_proof(other.root, b"a", tree.prove(0))

    def test_tampered_proof_step(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.prove(1)
        bad_steps = (dataclasses.replace(proof.steps[0], sibling=bytes(32)),) + proof.steps[1:]
        forged = dataclasses.replace(proof, steps=bad_steps)
        assert not verify_proof(tree.root, b"b", forged)

    @given(leaves=st.lists(st.binary(max_size=16), min_size=1, max_size=24),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_proof_property(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        assert verify_proof(tree.root, leaves[index], tree.prove(index))


class TestStateRoot:
    def test_insertion_order_independent(self):
        a = state_root({b"k1": b"v1", b"k2": b"v2"})
        b = state_root({b"k2": b"v2", b"k1": b"v1"})
        assert a == b

    def test_value_sensitive(self):
        assert state_root({b"k": b"1"}) != state_root({b"k": b"2"})

    def test_key_value_boundary_unambiguous(self):
        # (k="ab", v="c") must differ from (k="a", v="bc").
        assert state_root({b"ab": b"c"}) != state_root({b"a": b"bc"})

    def test_empty_state(self):
        assert state_root({}) == EMPTY_ROOT


def _reference_root(state: dict[bytes, bytes]) -> bytes:
    """The batch tree the commitment must reproduce bit for bit."""
    return MerkleTree([
        len(key).to_bytes(4, "big") + key + value
        for key, value in sorted(state.items())
    ]).root


class TestStateCommitment:
    def test_bulk_build_is_state_root(self):
        state = {b"k%d" % i: b"v%d" % i for i in range(7)}
        assert StateCommitment(state.items()).root == state_root(state)
        assert state_root(state) == _reference_root(state)

    def test_empty_to_one_and_back(self):
        commitment = StateCommitment()
        assert commitment.root == EMPTY_ROOT
        assert commitment.update({b"k": b"v"}) == 1
        assert commitment.root == _reference_root({b"k": b"v"})
        commitment.update({}, [b"k"])
        assert commitment.root == EMPTY_ROOT and len(commitment) == 0

    def test_deleting_an_absent_key_is_a_noop(self):
        commitment = StateCommitment([(b"a", b"1"), (b"c", b"3")])
        before = commitment.root
        assert commitment.update({}, [b"b", b"zz"]) == 0
        assert commitment.root == before

    @pytest.mark.parametrize("seed", range(12))
    def test_random_write_sets_match_the_batch_tree(self, seed):
        # Overwrite / insert / delete / re-insert over a small keyspace
        # (so keys collide and leaf counts cross every odd/even and
        # power-of-two boundary, down to empty and back), checked
        # against the from-scratch tree after every step.
        rng = random.Random(seed)
        keyspace = [bytes([65 + i]) * rng.randrange(1, 4) for i in range(20)]
        state: dict[bytes, bytes] = {}
        commitment = StateCommitment()
        for step in range(120):
            puts: dict[bytes, bytes] = {}
            deletes: set[bytes] = set()
            if step % 40 == 39:
                deletes.update(state)  # drain to empty
            for _ in range(rng.randrange(0, 6)):
                key = rng.choice(keyspace)
                if rng.random() < 0.35:
                    puts.pop(key, None)
                    deletes.add(key)
                else:
                    deletes.discard(key)
                    puts[key] = rng.randbytes(rng.randrange(0, 5))
            inserted = commitment.update(puts, deletes)
            assert inserted == sum(1 for key in puts if key not in state)
            for key in deletes:
                state.pop(key, None)
            state.update(puts)
            assert commitment.root == _reference_root(state), (seed, step)
            assert len(commitment) == len(state)
