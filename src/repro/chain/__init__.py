"""Consortium-blockchain substrate: transactions, blocks, pools,
consensus, nodes, parallel execution, and consensus reads.

`Node`/`BlockExecutor`/`spv` are imported lazily (PEP 562): they depend
on :mod:`repro.core`, which itself imports :mod:`repro.chain.transaction`,
and eager imports would create a cycle.
"""

from repro.chain.block import (
    GENESIS_HASH,
    Block,
    BlockHeader,
    receipts_merkle_root,
    tx_merkle_root,
)
from repro.chain.consensus import PBFTOrderer, RoundReport
from repro.chain.mempool import TxPool
from repro.chain.network import SINGLE_ZONE, NetworkModel, zones_for
from repro.chain.transaction import (
    ADDRESS_SIZE,
    DEPLOY_METHOD,
    TX_CONFIDENTIAL,
    TX_PUBLIC,
    RawTransaction,
    Transaction,
    address_of,
    contract_address,
    deploy_args,
    parse_deploy_args,
)

_LAZY = {
    "AppliedBlock": ("repro.chain.node", "AppliedBlock"),
    "Consortium": ("repro.chain.node", "Consortium"),
    "BlockExecutionReport": ("repro.chain.executor", "BlockExecutionReport"),
    "BlockExecutor": ("repro.chain.executor", "BlockExecutor"),
    "DEFAULT_BLOCK_BYTES": ("repro.chain.node", "DEFAULT_BLOCK_BYTES"),
    "Node": ("repro.chain.node", "Node"),
    "build_consortium": ("repro.chain.node", "build_consortium"),
    "lane_schedule": ("repro.chain.executor", "lane_schedule"),
    "spv": ("repro.chain.spv", None),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.chain' has no attribute '{name}'")
    import importlib

    module = importlib.import_module(target[0])
    value = module if target[1] is None else getattr(module, target[1])
    globals()[name] = value
    return value


__all__ = [
    "ADDRESS_SIZE",
    "AppliedBlock",
    "Block",
    "BlockExecutionReport",
    "BlockExecutor",
    "BlockHeader",
    "DEFAULT_BLOCK_BYTES",
    "DEPLOY_METHOD",
    "GENESIS_HASH",
    "NetworkModel",
    "Node",
    "PBFTOrderer",
    "RawTransaction",
    "RoundReport",
    "SINGLE_ZONE",
    "TX_CONFIDENTIAL",
    "TX_PUBLIC",
    "Transaction",
    "TxPool",
    "address_of",
    "build_consortium",
    "contract_address",
    "deploy_args",
    "lane_schedule",
    "parse_deploy_args",
    "receipts_merkle_root",
    "spv",
    "tx_merkle_root",
    "zones_for",
]
