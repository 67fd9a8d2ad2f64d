"""The serve rig's system under test, in a process of its own.

``AsyncGatewayServer`` → ``Gateway`` (30 ms beat, 4 KB blocks) → one
``Node`` on a sealed LSM store with one fsync per block commit.  The
benchmark process is the only client: business traffic arrives over
loopback HTTP, and a line-oriented JSON control channel on
stdin/stdout carries ``commit`` (set-up traffic applied straight to the
node in large blocks, before the server exists), ``serve``, ``mark``
(phase boundary + counter snapshot), ``calibrate`` (one pass of the
speed kernel, here, where the system runs), ``keys``, ``restart`` and
``stop``.

Run as ``python serve_child.py DATA_DIR TRACE(0|1) TRACE_OUT|-``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time


def _import_path() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(here, "..", "..", "src")]


class ServeSut:
    """Node + gateway + server, rebuilt in place by ``restart``."""

    def __init__(self, data_dir: str, traced: bool):
        from repro.tee.enclave import Platform

        from spans import Recorder
        from sut import PoolWaits

        self.data_dir = data_dir
        # Sealing keys and the store's freshness counter are bound to the
        # platform, so a restart must come back on the same one.
        self.platform = Platform("bench-node-0")
        self.recorder = Recorder() if traced else None
        self.waits = PoolWaits(self.recorder) if traced else None
        self.node = self.gateway = self.server = None

    def open(self, restore: bool) -> dict:
        from repro.core.k_protocol import bootstrap_founder

        import sut

        if restore:
            self.node, timings = sut.restore_node(
                0, self.data_dir, self.platform)
            return timings
        self.node = sut.open_node(0, self.data_dir, self.platform)
        bootstrap_founder(self.node.confidential.km)
        self.node.confidential.provision_from_km()
        return {"pk_tx": self.node.confidential.pk_tx.hex()}

    def commit(self, wires: list[str], block_txs: int) -> dict:
        from repro.chain.transaction import Transaction

        import sut

        sut.commit_direct(
            self.node, [Transaction.decode(bytes.fromhex(w)) for w in wires],
            block_txs)
        return {"height": self.node.height}

    async def serve(self) -> dict:
        from repro.serve.gateway import (
            AsyncGatewayServer, Gateway, GatewayConfig,
        )

        import sut

        self.gateway = Gateway(self.node, GatewayConfig(
            block_interval_s=sut.BLOCK_INTERVAL_S,
            max_block_bytes=sut.BLOCK_BYTES,
        ))
        if self.recorder is not None:
            sut.instrument(self.recorder, self.waits, self.node, self.gateway)
        self.server = AsyncGatewayServer(self.gateway)
        await self.server.start()
        return {"port": self.server.port}

    async def stop(self) -> float:
        started = time.perf_counter()
        await self.server.stop()
        return time.perf_counter() - started

    def snapshot(self) -> dict:
        import sut

        gateway = self.gateway
        return {
            "node": sut.counters(self.node),
            "gateway": {
                "requests": sum(gateway.requests_total.values()),
                "backpressure": gateway.backpressure_total,
                "accepted": gateway.accepted_total,
                "blocks": gateway.blocks_produced,
                "txs_committed": gateway.txs_committed,
                "internal_errors": gateway.internal_errors_total,
            },
            **sut.process_usage(),
        }


async def _serve(data_dir: str, traced: bool, trace_out: str | None) -> None:
    import calibrate
    import sut

    sut_ = ServeSut(data_dir, traced)
    loop = asyncio.get_running_loop()

    def reply(document: dict) -> None:
        sys.stdout.write(json.dumps(document) + "\n")
        sys.stdout.flush()

    reply(sut_.open(restore=False))
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break  # the parent went away: shut down
        command = json.loads(line)
        name = command["cmd"]
        if name == "commit":
            reply(sut_.commit(command["txs"], command["block_txs"]))
        elif name == "serve":
            reply(await sut_.serve())
        elif name == "mark":
            if sut_.recorder is not None:
                sut_.recorder.phase = command["phase"]
            reply(sut_.snapshot())
        elif name == "calibrate":
            reply({"pass_s": calibrate.one_pass()})
        elif name == "keys":
            reply({"keys": sut.state_keys(sut_.node)})
        elif name == "restart":
            close_s = await sut_.stop()
            reply({**sut_.open(restore=True), **await sut_.serve(),
                   "close_s": close_s})
        elif name == "stop":
            final = {"snapshot": sut_.snapshot()}
            await sut_.stop()
            if sut_.recorder is not None:
                final.update(sut.trace_report(
                    sut_.recorder, sut_.waits, trace_out))
            reply(final)
            return
        else:
            reply({"error": f"unknown command {name!r}"})
    if sut_.server is not None:
        await sut_.stop()
    else:
        sut_.node.close()


def main(argv: list[str]) -> int:
    _import_path()
    data_dir, traced, trace_out = argv[1], argv[2] == "1", argv[3]
    asyncio.run(_serve(data_dir, traced,
                       None if trace_out == "-" else trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
