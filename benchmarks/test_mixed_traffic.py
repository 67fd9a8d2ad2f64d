"""Extension — mixed public/confidential blocks.

Figure 2: "public and confidential transactions are processed together"
in ordering; execution dispatches by TYPE to the Public-Engine or the
Confidential-Engine.  This bench sweeps the confidential share of a
block and shows block execution time scaling with it — the marginal
cost of confidentiality in a mixed deployment.
"""

from __future__ import annotations

import pytest

from conftest import write_report
from repro.bench.reporting import format_table
from repro.chain.executor import BlockExecutor
from repro.chain.node import Node
from repro.core import bootstrap_founder
from repro.errors import ReproError
from repro.lang import compile_source
from repro.workloads import Client, abs_workload

_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
_BLOCK_TXS = 8


def _rig():
    node = Node(0)
    bootstrap_founder(node.confidential.km)
    node.confidential.provision_from_km()
    pk = node.pk_tx
    client = Client.from_seed(b"mixed-user")
    workload = abs_workload("flatbuffers")
    artifact = compile_source(workload.source, "wasm")
    # Two deployments of the same contract: one confidential, one public.
    conf_tx, conf_addr = client.confidential_deploy(
        pk, artifact, workload.schema_source
    )
    outcome = node.confidential.execute(conf_tx)
    if not outcome.receipt.success:
        raise ReproError(outcome.receipt.error)
    pub_raw, pub_addr = client.deploy_raw(artifact, workload.schema_source)
    outcome = node.public.execute(Client.public(pub_raw))
    if not outcome.receipt.success:
        raise ReproError(outcome.receipt.error)
    return node, client, pk, workload, conf_addr, pub_addr


def test_mixed_block_cost(benchmark):
    node, client, pk, workload, conf_addr, pub_addr = _rig()
    executor = BlockExecutor(node.confidential, node.public)
    index = [0]

    def block_for(share: float):
        txs = []
        for i in range(_BLOCK_TXS):
            index[0] += 1
            args = workload.make_input(index[0])
            if i < share * _BLOCK_TXS:
                tx = client.confidential_call(pk, conf_addr, workload.method, args)
                node.confidential.preverify(tx)
            else:
                raw = client.call_raw(pub_addr, workload.method, args)
                tx = Client.public(raw)
                node.public.preverify(tx)
            txs.append(tx)
        return txs

    def measure():
        rows = []
        block_for(0.5)  # warmup
        executor.execute_block(block_for(0.5))
        for share in _SHARES:
            report = executor.execute_block(block_for(share))
            for outcome in report.outcomes:
                assert outcome.receipt.success, outcome.receipt.error
            rows.append((share, report.serial_duration_s))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["confidential share", "block exec"],
        [[f"{int(share * 100):3d}%", f"{seconds * 1000:7.2f} ms"]
         for share, seconds in rows],
        title=f"Extension — mixed block cost ({_BLOCK_TXS} ABS txs per block)",
    )
    write_report("mixed_traffic.txt", table)
    all_public = rows[0][1]
    all_confidential = rows[-1][1]
    assert all_confidential > all_public * 1.5, (all_public, all_confidential)
    # Cost grows (weakly) monotonically with the confidential share.
    assert rows[-1][1] > rows[1][1]
