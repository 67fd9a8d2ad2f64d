"""Mempool hot-path regressions: drop policies, cached encoding, and
thread safety of the pool under the §5.2 pre-verification worker pool.

The oversized-drop and full-pool-backpressure behaviours are pinned in
``test_chain_blocks.py``; this module pins the remaining hot-path fixes.
"""

import threading

from repro.chain.mempool import TxPool
from repro.chain.transaction import RawTransaction, Transaction, address_of
from repro.crypto.keys import KeyPair


def make_tx(i: int, seed: bytes = b"mempool-user") -> Transaction:
    keypair = KeyPair.from_seed(seed)
    raw = RawTransaction(
        sender=address_of(keypair.public_bytes()),
        contract=b"\x02" * 20, method="m", args=i.to_bytes(4, "big"), nonce=i,
    ).signed_by(keypair)
    return Transaction.public(raw)


class TestWireSizeCaching:
    def test_encode_is_cached(self):
        # Regression: block drafting sizes the pool head on every pass;
        # encode() used to re-serialize each time.  The encoding is
        # immutable, so the exact same object must come back.
        tx = make_tx(1)
        assert tx.encode() is tx.encode()

    def test_wire_size_matches_encoding(self):
        tx = make_tx(2)
        assert tx.wire_size == len(tx.encode())

    def test_tx_hash_is_cached(self):
        tx = make_tx(3)
        assert tx.tx_hash is tx.tx_hash

    def test_pop_batch_budget_uses_wire_size(self):
        pool = TxPool()
        txs = [make_tx(i) for i in range(4)]
        for tx in txs:
            pool.add(tx)
        budget = sum(tx.wire_size for tx in txs[:2])
        batch = pool.pop_batch(max_bytes=budget)
        assert batch == txs[:2]

    def test_sizes_and_a_partly_used_budget(self):
        pool = TxPool()
        assert pool.nbytes == 0 and pool.head_bytes == 0
        txs = [make_tx(i) for i in range(4)]
        for tx in txs:
            pool.add(tx)
        assert pool.nbytes == sum(tx.wire_size for tx in txs)
        assert pool.head_bytes == txs[0].wire_size
        # With part of the budget used, the batch stops at the first
        # transaction that does not fit the rest; nothing is dropped.
        budget = sum(tx.wire_size for tx in txs[:3])
        batch = pool.pop_batch(max_bytes=budget,
                               used_bytes=txs[0].wire_size + 1)
        assert batch == txs[:1]
        assert pool.dropped_oversized == 0
        assert pool.head_bytes == txs[1].wire_size
        assert pool.nbytes == sum(tx.wire_size for tx in txs[1:])


class TestPoolThreadSafety:
    def test_concurrent_add_and_pop(self):
        # The §5.2 worker pool feeds the verified pool while the
        # proposer drafts from it; adds must never be lost or doubled.
        pool = TxPool()
        num_threads, per_thread = 8, 50
        popped: list[Transaction] = []
        popped_lock = threading.Lock()
        start = threading.Barrier(num_threads + 1)

        def producer(worker: int):
            start.wait()
            for i in range(per_thread):
                pool.add(make_tx(i, seed=b"w%d" % worker))

        def consumer():
            start.wait()
            for _ in range(200):
                batch = pool.pop_batch(max_count=7)
                with popped_lock:
                    popped.extend(batch)

        threads = [threading.Thread(target=producer, args=(w,))
                   for w in range(num_threads)]
        threads.append(threading.Thread(target=consumer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        popped.extend(pool.pop_batch())
        assert len(popped) == num_threads * per_thread
        assert len({tx.tx_hash for tx in popped}) == len(popped)
        assert len(pool) == 0

    def test_len_and_contains_take_the_lock(self):
        # Regression: __len__/__contains__ used to read the OrderedDict
        # without the lock, racing pop_batch's in-place mutation.  They
        # must synchronize with writers: while a writer holds the lock,
        # a reader blocks instead of observing the dict mid-mutation.
        pool = TxPool()
        tx = make_tx(0, seed=b"locked")
        pool.add(tx)
        results: list[object] = []

        def reader():
            results.append(len(pool))
            results.append(tx.tx_hash in pool)

        with pool._lock:
            t = threading.Thread(target=reader)
            t.start()
            t.join(timeout=0.3)
            assert t.is_alive(), "reader must block while the lock is held"
            assert results == []
        t.join(timeout=5)
        assert not t.is_alive()
        assert results == [1, True]

    def test_concurrent_adds_respect_capacity(self):
        pool = TxPool(capacity=25)
        txs = [make_tx(i, seed=b"cap") for i in range(100)]

        def adder(chunk):
            for tx in chunk:
                pool.add(tx)

        threads = [threading.Thread(target=adder, args=(txs[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(pool) == 25
        assert pool.rejected_full == 75


class TestPoolFullBoundaryProperty:
    """Backpressure property: concurrent add/pop hammering a tiny pool
    across its full boundary must neither lose nor duplicate a
    transaction, and every refusal must be visible to its caller.

    This is the serving gateway's admission contract: an ``add`` that
    returned True is a promise (the tx will be drafted exactly once);
    an ``add`` that returned False is backpressure the client heard
    about.  There is no third outcome.
    """

    def test_no_loss_no_duplication_under_concurrency(self):
        capacity = 16
        num_producers, per_producer = 6, 120
        pool = TxPool(capacity=capacity)
        all_txs = {
            worker: [make_tx(i, seed=b"prop-%d" % worker)
                     for i in range(per_producer)]
            for worker in range(num_producers)
        }
        verdicts: dict[int, list[bool]] = {}
        popped: list = []
        popped_lock = threading.Lock()
        producing = threading.Event()
        producing.set()
        start = threading.Barrier(num_producers + 2)

        def producer(worker: int):
            start.wait()
            results = []
            for tx in all_txs[worker]:
                results.append(pool.add(tx))
            verdicts[worker] = results

        def consumer():
            # Keeps the pool crossing full->space->full the whole run.
            start.wait()
            while producing.is_set() or len(pool):
                batch = pool.pop_batch(max_count=5)
                with popped_lock:
                    popped.extend(batch)

        threads = [threading.Thread(target=producer, args=(w,))
                   for w in range(num_producers)]
        threads.append(threading.Thread(target=consumer))
        for t in threads:
            t.start()
        start.wait()
        for t in threads[:-1]:
            t.join()
        producing.clear()
        threads[-1].join()
        popped.extend(pool.pop_batch())

        accepted_hashes = {
            tx.tx_hash
            for worker, results in verdicts.items()
            for tx, ok in zip(all_txs[worker], results)
            if ok
        }
        rejected_count = sum(
            results.count(False) for results in verdicts.values()
        )
        popped_hashes = [tx.tx_hash for tx in popped]
        # Every accept drafted exactly once; every refusal was reported.
        assert len(popped_hashes) == len(set(popped_hashes))
        assert set(popped_hashes) == accepted_hashes
        assert len(accepted_hashes) + rejected_count == (
            num_producers * per_producer
        )
        # The counters the gateway exports agree with the callers' view.
        assert pool.accepted_total == len(accepted_hashes)
        assert pool.rejected_full == rejected_count
        assert pool.depth_peak <= capacity
        assert len(pool) == 0
