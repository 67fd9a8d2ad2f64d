"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``compile <file.cws> [--target wasm|evm] [-o out]`` — compile a
  CWScript contract and write the artifact.
- ``disasm <file.cws> [--target ...] [--fuse]`` — compile and print the
  disassembly (``--fuse`` shows the post-OPT4 superinstruction form).
- ``histogram <file.cws> [--target ...]`` — static opcode frequencies.
- ``analyze <file.cws> [--schema file.ccle] [--target ...] [--json]`` —
  run the deploy-time static analyses (confidentiality taint analysis
  plus the untrusted-bytecode verifier); exits non-zero on findings.
- ``analyze --bytecode <artifact.bin> [--schema file.ccle]
  [--confidential-prefix P] [--json]`` — run the bytecode verifier and
  the bytecode confidentiality-flow pass standalone on a compiled
  artifact (both VM formats) — what sourceless deploy admission runs.
- ``demo [--trace out.json]`` — run the quickstart flow (single
  confidential node), optionally writing a Chrome trace of it.
- ``bench [--quick]`` — print the paper's tables/figures from a quick
  run, including the Table 1 / metrics-registry crosscheck.
- ``metrics [--txs N]`` — run a small confidential flow on a full node
  and print the metrics registry in Prometheus text exposition format.
- ``trace [-o out.json] [--txs N]`` — run the same flow under the span
  tracer and write Chrome trace-event JSON (load in Perfetto or
  ``chrome://tracing``).
- ``sim --seed S --steps N --faults drop,crash,partition,epc
  [--storage lsm]`` — run the deterministic fault-injection simulator;
  exits non-zero (printing the seed and fault schedule) if any
  safety/durability/confidentiality invariant is violated.
- ``db stats|verify|compact <dir>`` — inspect or maintain an LSM store
  directory (docs/storage.md).  Sealed stores need ``--seal-key`` (hex).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.lang import compile_source
from repro.vm.disasm import disassemble_artifact, instruction_histogram


def _read_source(path: str) -> str:
    with open(path) as f:
        return f.read()


def cmd_compile(args) -> int:
    artifact = compile_source(_read_source(args.file), args.target)
    out = args.output or (args.file.rsplit(".", 1)[0] + f".{args.target}.bin")
    with open(out, "wb") as f:
        f.write(artifact.encode())
    print(f"{args.file} -> {out}: {len(artifact.code)} code bytes, "
          f"methods: {', '.join(artifact.methods)}")
    return 0


def cmd_disasm(args) -> int:
    artifact = compile_source(_read_source(args.file), args.target)
    print(disassemble_artifact(artifact, fuse=args.fuse))
    return 0


def cmd_histogram(args) -> int:
    artifact = compile_source(_read_source(args.file), args.target)
    histogram = instruction_histogram(artifact)
    total = sum(histogram.values())
    print(f"{total} static instructions, {len(histogram)} distinct opcodes")
    for name, count in sorted(histogram.items(), key=lambda kv: -kv[1]):
        print(f"  {name:16s} {count:6d}  {count / total * 100:5.1f}%")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import analyze_source, check_artifact

    if args.bytecode:
        return _analyze_bytecode(args)
    source = _read_source(args.file)
    schema_source = _read_source(args.schema) if args.schema else ""
    report = analyze_source(source, schema_source, contract_name=args.file)
    artifact = compile_source(source, args.target)
    report.merge(check_artifact(artifact, contract_name=args.file))
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        for declass in report.declassifications:
            print(f"  declassify in {declass.function} "
                  f"(line {declass.line}, col {declass.column})")
    return 0 if report.clean else 1


def _analyze_bytecode(args) -> int:
    """``analyze --bytecode``: Pass 2 + Pass 3 over a compiled artifact
    (either VM format), exactly what sourceless deploy admission runs."""
    import json

    from repro.analysis import analyze_artifact, check_artifact
    from repro.ccle import parse_schema
    from repro.lang.compiler import ContractArtifact

    with open(args.file, "rb") as f:
        artifact = ContractArtifact.decode(f.read())
    schema = (parse_schema(_read_source(args.schema))
              if args.schema else None)
    report = check_artifact(artifact, contract_name=args.file)
    result = analyze_artifact(
        artifact, schema=schema, contract_name=args.file,
        extra_confidential=tuple(args.confidential_prefix or ()),
    )
    report.merge(result.report)
    if args.json:
        payload = report.to_dict()
        payload["target"] = artifact.target
        payload["path_constraints"] = result.constraints.to_list()
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(f"target: {artifact.target}")
        print(report.summary())
        for finding in report.findings:
            if finding.window:
                for line in finding.window.splitlines():
                    print(f"    {line}")
        for res in report.resources:
            loops = " (has loops)" if res.has_loops else ""
            print(f"  {res.function}: stack<={res.max_stack} "
                  f"mem<={res.memory_high_water} "
                  f"cycles<={res.cycle_estimate}{loops}")
        n = len(result.constraints.constraints)
        print(f"  {n} branch constraint(s) recovered")
    return 0 if report.clean else 1


def cmd_demo(args) -> int:
    from repro.core import ConfidentialEngine, bootstrap_founder
    from repro.crypto.ecc import decode_point
    from repro.storage import MemoryKV
    from repro.workloads import Client

    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs.trace import get_tracer

        get_tracer().enabled = True
    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    pk = decode_point(engine.provision_from_km())
    client = Client.from_seed(b"cli-demo")
    artifact = compile_source(
        """
        fn main() {
            let v = alloc(8);
            store64(v, 42);
            storage_set("answer", 6, v, 8);
            output(v, 8);
        }
        """,
        "wasm",
    )
    tx, address = client.confidential_deploy(pk, artifact)
    engine.execute(tx)
    raw = client.call_raw(address, "main", b"")
    outcome = engine.execute(client.seal(pk, raw))
    receipt = client.open_receipt(raw.tx_hash, outcome.sealed_receipt)
    print(f"deployed at {address.hex()}")
    print(f"sealed receipt opened: output={int.from_bytes(receipt.output, 'big')}")
    ciphertext = [k for k, _ in engine.kv.items() if k.startswith(b"s:")]
    print(f"{len(ciphertext)} encrypted state entries in the node database")
    if trace_path:
        from repro.obs.export import drain_to_file
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        events = drain_to_file(tracer, trace_path)
        tracer.enabled = False
        print(f"wrote {events} trace events to {trace_path}")
    return 0


def _observed_flow(num_txs: int):
    """Stand up one confidential node, deploy a contract, push a small
    block of confidential calls through pre-verification and execution.
    Shared by ``repro metrics`` and ``repro trace``."""
    from repro.chain.node import Node
    from repro.core import bootstrap_founder
    from repro.workloads import Client

    node = Node(0)
    bootstrap_founder(node.confidential.km)
    node.confidential.provision_from_km()
    pk = node.pk_tx
    client = Client.from_seed(b"cli-observed")
    artifact = compile_source(
        """
        fn main() {
            let v = alloc(8);
            let n = storage_get("hits", 4, v, 8);
            let count = 0;
            if (n > 0) { count = load64(v); }
            store64(v, count + 1);
            storage_set("hits", 4, v, 8);
            output(v, 8);
        }
        """,
        "wasm",
    )
    tx, address = client.confidential_deploy(pk, artifact)
    node.receive_transaction(tx)
    node.preverify_pending()
    node.apply_transactions(node.draft_block(max_bytes=1 << 20))
    for i in range(num_txs):
        node.receive_transaction(
            client.confidential_call(pk, address, "main", b"")
        )
    node.preverify_pending()
    applied = node.apply_transactions(node.draft_block(max_bytes=1 << 20))
    for outcome in applied.report.outcomes:
        if not outcome.receipt.success:
            raise ReproError(f"observed flow tx failed: {outcome.receipt.error}")
    return node


def cmd_metrics(args) -> int:
    from repro.obs.collect import collect_node, collect_tracer
    from repro.obs.export import prometheus_text
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import get_tracer

    node = _observed_flow(args.txs)
    registry = MetricsRegistry()
    collect_node(registry, node)
    collect_tracer(registry, get_tracer())
    print(prometheus_text(registry), end="")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.export import drain_to_file
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    tracer.enabled = True
    try:
        _observed_flow(args.txs)
        events = drain_to_file(tracer, args.output)
    finally:
        tracer.enabled = False
    print(f"wrote {events} trace events to {args.output}")
    return 0


def cmd_bench(args) -> int:
    from repro.bench import (
        fig10_series,
        fig11_point,
        fig12_series,
        sec64_metrics,
        table1_rows,
    )
    from repro.bench import reporting

    from repro.obs.metrics import MetricsRegistry

    if args.storage:
        from repro.bench.harness import run_storage_bench

        backends = tuple(
            name.strip() for name in args.storage.split(",") if name.strip()
        )
        result = run_storage_bench(
            backends=backends,
            num_blocks=3 if args.quick else 8,
            txs_per_block=2 if args.quick else 4,
            out_path=args.storage_out,
        )
        print(f"storage bench: {result['num_blocks']} blocks x "
              f"{result['txs_per_block']} txs ({result['workload']})")
        for backend, entry in result["backends"].items():
            line = (f"  {backend:10s} block p50 "
                    f"{entry['block_commit_ms']['p50']:8.2f} ms  "
                    f"write p50 {entry['storage_write_ms']['p50']:8.3f} ms")
            if "reopen_ms" in entry:
                line += (f"  reopen {entry['reopen_ms']:8.2f} ms "
                         f"({entry['reopen_restored_blocks']} blocks, "
                         "state root verified)")
            print(line)
        if args.storage_out:
            print(f"wrote {args.storage_out}")
        return 0

    num_txs = 4 if args.quick else 8
    print(reporting.format_fig10(fig10_series(num_txs=num_txs, json_kv=30)))
    print()
    points = [fig11_point(n, lanes, zones, 12)
              for zones in (1, 2)
              for lanes in ((1, 4) if zones == 1 else (1,))
              for n in (4, 12, 20)]
    print(reporting.format_fig11(points))
    print()
    registry = MetricsRegistry()
    table1_runs = 2
    rows = table1_rows(runs=table1_runs, registry=registry)
    print(reporting.format_table1(rows))
    print()
    print(reporting.format_table1_crosscheck(rows, registry, table1_runs))
    print()
    print(reporting.format_fig12(fig12_series(num_txs=num_txs)))
    print()
    print(reporting.format_sec64(sec64_metrics(num_txs=6)))
    return 0


def cmd_db(args) -> int:
    from repro.storage.lsm import LsmKV, StorageSealer

    sealer = None
    if args.seal_key:
        sealer = StorageSealer(
            bytes.fromhex(args.seal_key),
            identity=args.seal_identity.encode(),
        )
    kv = LsmKV(args.directory, sealer=sealer)
    try:
        if args.action == "stats":
            for name, value in sorted(kv.stats_snapshot().items()):
                print(f"  {name:24s} {value}")
        elif args.action == "verify":
            report = kv.verify()
            print(f"  {args.directory}: manifest epoch "
                  f"{report['manifest_epoch']}, {report['segments']} "
                  f"segment(s), {report['blocks_checked']} block(s) "
                  f"checked, {report['wal_records']} WAL record(s) replayable")
            print("  integrity OK")
        else:  # compact
            before = kv.live_segments
            kv.flush()
            while kv.compact():
                pass
            print(f"  {before} -> {kv.live_segments} segment(s), "
                  f"manifest epoch {kv.manifest_epoch}")
    finally:
        kv.close()
    return 0


def cmd_sim(args) -> int:
    from repro.sim import SimConfig, parse_faults, run_sim

    config = SimConfig(
        seed=args.seed,
        steps=args.steps,
        faults=parse_faults(args.faults),
        num_nodes=args.nodes,
        storage=args.storage,
    )
    result = run_sim(config)
    if args.verify_determinism:
        second = run_sim(config)
        if (result.event_log_text != second.event_log_text
                or result.final_state_roots != second.final_state_roots):
            print("DETERMINISM FAILURE: two runs with the same seed "
                  "diverged", file=sys.stderr)
            print(result.summary(), file=sys.stderr)
            print(second.summary(), file=sys.stderr)
            return 1
        print(f"determinism verified: two runs of seed {args.seed} produced "
              f"byte-identical logs ({len(result.event_log)} events)")
    if args.report:
        faults_spec = ",".join(sorted(config.faults)) or "none"
        with open(args.report, "w") as f:
            f.write(f"# repro sim seed={config.seed} steps={config.steps} "
                    f"faults={faults_spec} nodes={config.num_nodes}\n")
            f.write(result.event_log_text + "\n")
            f.write("\n# fault schedule\n")
            for entry in result.fault_schedule:
                f.write(f"# {entry}\n")
        print(f"wrote event log + fault schedule to {args.report}")
    print(result.summary())
    if not result.ok:
        print(result.failure_report(), file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    import json as _json

    from repro.fuzz import FuzzConfig, replay, run_fuzz, target_names

    if args.list_targets:
        for name in target_names():
            print(name)
        return 0

    targets = tuple(args.target) or ("greeter",)

    if args.replay is not None:
        if len(targets) != 1:
            print("--replay needs exactly one --target", file=sys.stderr)
            return 2
        findings = replay(targets[0], args.replay)
        for finding in findings:
            print(f"{finding.kind}: {finding.detail}")
        if args.expect:
            if any(f.kind == args.expect for f in findings):
                print(f"expected finding kind '{args.expect}': detected")
                return 0
            print(f"expected finding kind '{args.expect}' NOT detected",
                  file=sys.stderr)
            return 1
        return 0

    config = FuzzConfig(
        targets=targets,
        seed=args.seed,
        max_execs=args.max_execs,
        time_budget_s=args.time_budget,
        corpus_dir=args.corpus,
        solver=not args.no_solver,
    )
    result = run_fuzz(config)
    if args.verify_determinism:
        second = run_fuzz(config)
        first_text = _json.dumps(result.to_dict(), sort_keys=True)
        second_text = _json.dumps(second.to_dict(), sort_keys=True)
        if first_text != second_text:
            print("DETERMINISM FAILURE: two campaigns with seed "
                  f"{config.seed} diverged", file=sys.stderr)
            return 1
        print(f"determinism verified: two campaigns of seed {config.seed} "
              "produced byte-identical reports")

    if args.report:
        with open(args.report, "w") as f:
            _json.dump(result.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote finding report to {args.report}")

    if args.json:
        print(_json.dumps(result.to_dict(include_timing=True), indent=2,
                          sort_keys=True))
    else:
        for name, stats in sorted(result.stats.items()):
            hits = {k: v for k, v in stats.findings.items() if v}
            print(f"{name}: execs={stats.execs} "
                  f"edges(wasm/evm)={stats.edges_wasm}/{stats.edges_evm} "
                  f"corpus={stats.corpus_entries} "
                  f"flips={stats.constraint_flips} "
                  f"findings={hits or 'none'}")
        for finding in result.findings:
            print(f"  {finding.kind} @{finding.target}: {finding.line()}")
            print(f"    {finding.detail}")

    if args.metrics:
        from repro.obs.collect import collect_fuzz
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        collect_fuzz(registry, result)
        print(prometheus_text(registry), end="")

    if args.expect:
        if any(f.kind == args.expect for f in result.findings):
            print(f"expected finding kind '{args.expect}': detected")
            return 0
        print(f"expected finding kind '{args.expect}' NOT detected",
              file=sys.stderr)
        return 1
    return 1 if (args.fail_on_findings and result.findings) else 0


def _build_serving_node(args):
    from repro.chain.node import Node
    from repro.core.config import EngineConfig
    from repro.core.k_protocol import bootstrap_founder

    config = EngineConfig(storage_backend=args.storage)
    node = Node(
        0, config=config, data_dir=args.data_dir,
        mempool_capacity=args.mempool_capacity,
    )
    bootstrap_founder(node.confidential.km)
    node.confidential.provision_from_km()
    return node


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import AsyncGatewayServer, Gateway, GatewayConfig

    if args.storage != "memory" and not args.data_dir:
        print("error: persistent --storage needs --data-dir",
              file=sys.stderr)
        return 2
    node = _build_serving_node(args)
    gateway = Gateway(node, GatewayConfig(
        rate_per_s=args.rate,
        burst=args.burst,
        block_interval_s=args.block_interval,
        max_block_bytes=args.max_block_bytes,
        # The loadgen's provisioning/audit identities run as operator
        # traffic, outside the per-client budget.
        unlimited_clients=("setup", "auditor"),
    ))
    server = AsyncGatewayServer(gateway, args.host, args.port)

    async def _serve() -> None:
        await server.start()
        print(f"serving on http://{server.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            print("draining in-flight requests...", flush=True)
            await server.stop()
            print("gateway closed", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_weights(text: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        weights[name.strip()] = float(value)
    return weights


def cmd_loadtest(args) -> int:
    import json as _json

    from repro.serve.loadgen import (
        LoadConfig,
        run_virtual_load,
        write_bench,
    )

    config = LoadConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        mode=args.mode,
        arrival_rate_rps=args.arrival_rate,
        think_time_s=args.think_time,
        block_interval_s=args.block_interval,
        max_block_bytes=args.max_block_bytes,
        mempool_capacity=args.mempool_capacity,
        rate_per_s=args.client_rate,
        burst=args.burst,
        **({"weights": _parse_weights(args.weights)} if args.weights else {}),
    )
    report = run_virtual_load(config)
    if args.verify_determinism:
        second = run_virtual_load(config)
        first_text = _json.dumps(report.summary(), sort_keys=True)
        second_text = _json.dumps(second.summary(), sort_keys=True)
        if first_text != second_text:
            print("DETERMINISM FAILURE: two load runs with seed "
                  f"{config.seed} diverged", file=sys.stderr)
            return 1
        print(f"determinism verified: two load runs of seed "
              f"{config.seed} produced byte-identical summaries")
    if args.out:
        write_bench(args.out, config, report)
        print(f"wrote {args.out}")
    if args.json:
        print(_json.dumps(report.to_dict(include_timing=True), indent=2,
                          sort_keys=True))
    else:
        from repro.bench.reporting import format_serving

        print(format_serving(report.summary()))
    if args.metrics:
        from repro.obs.collect import collect_loadgen
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        collect_loadgen(registry, report)
        print(prometheus_text(registry), end="")
    if args.max_error_rate is not None:
        errors = sum(report.errors_by_kind.values())
        rate = errors / report.submitted if report.submitted else 0.0
        if rate > args.max_error_rate:
            print(f"error rate {rate:.4f} exceeds --max-error-rate "
                  f"{args.max_error_rate}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CONFIDE reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a CWScript contract")
    p.add_argument("file")
    p.add_argument("--target", choices=("wasm", "evm"), default="wasm")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("disasm", help="compile and disassemble")
    p.add_argument("file")
    p.add_argument("--target", choices=("wasm", "evm"), default="wasm")
    p.add_argument("--fuse", action="store_true",
                   help="show the fused (OPT4) instruction stream")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("histogram", help="static opcode frequencies")
    p.add_argument("file")
    p.add_argument("--target", choices=("wasm", "evm"), default="wasm")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser(
        "analyze", help="run the deploy-time static analyses"
    )
    p.add_argument("file", help="CWScript source, or a compiled artifact "
                   "binary with --bytecode")
    p.add_argument("--schema", help="CCLe schema whose confidential "
                   "fields seed the analysis policies")
    p.add_argument("--target", choices=("wasm", "evm"), default="wasm")
    p.add_argument("--bytecode", action="store_true",
                   help="treat FILE as a compiled artifact and run the "
                   "bytecode verifier + confidentiality-flow passes "
                   "(what sourceless deploy admission runs)")
    p.add_argument("--confidential-prefix", action="append", default=[],
                   metavar="PREFIX",
                   help="extra confidential storage-key prefix for "
                   "--bytecode mode (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("demo", help="run the confidential quickstart flow")
    p.add_argument("--trace", metavar="OUT",
                   help="write a Chrome trace of the flow to this file")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("bench", help="print the paper's tables/figures")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--storage", metavar="BACKENDS",
                   help="run the storage-backend bench instead of the "
                        "paper tables: comma-separated list drawn from "
                        "memory, lsm")
    p.add_argument("--storage-out", metavar="FILE",
                   help="write the storage bench result JSON here "
                        "(e.g. BENCH_storage.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "metrics",
        help="run a small confidential flow and print Prometheus metrics",
    )
    p.add_argument("--txs", type=int, default=4,
                   help="confidential calls to execute (default 4)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="run a small confidential flow and write a Chrome trace",
    )
    p.add_argument("-o", "--output", default="trace.json")
    p.add_argument("--txs", type=int, default=4,
                   help="confidential calls to execute (default 4)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sim",
        help="run the deterministic fault-injection simulator",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="the run is a pure function of this seed")
    p.add_argument("--steps", type=int, default=200,
                   help="simulation steps (5 ms of simulated time each)")
    p.add_argument("--faults", default="",
                   help="comma-separated fault kinds: drop, delay, dup, "
                        "partition, crash, torn, slow, enclave, epc "
                        "(or 'all')")
    p.add_argument("--nodes", type=int, default=4,
                   help="consortium size (>= 4; default 4)")
    p.add_argument("--storage", choices=("memory", "lsm"),
                   default="memory",
                   help="node storage backend; lsm writes to a tempdir "
                        "so crash faults exercise real on-disk recovery "
                        "(default memory)")
    p.add_argument("--report", metavar="OUT",
                   help="write the event log + fault schedule to this file")
    p.add_argument("--verify-determinism", action="store_true",
                   help="run twice and require byte-identical event logs")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing of CWScript contracts",
    )
    p.add_argument("--target", action="append", default=[],
                   metavar="NAME|FILE",
                   help="builtin target name or .cws path (repeatable; "
                        "default greeter)")
    p.add_argument("--seed", type=int, default=20260807)
    p.add_argument("--max-execs", type=int, default=200, metavar="N",
                   help="differential executions per target — the "
                        "deterministic budget (default 200)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="optional wall-clock cap in seconds (ending a "
                        "run early sacrifices replay identity)")
    p.add_argument("--corpus", metavar="DIR",
                   help="persistent corpus directory (one subdir per "
                        "target)")
    p.add_argument("--no-solver", action="store_true",
                   help="disable the path-constraint assist (pure "
                        "random mutation)")
    p.add_argument("--replay", metavar="LINE",
                   help="re-execute one sequence line against the "
                        "single --target and print oracle findings")
    p.add_argument("--expect", metavar="KIND",
                   choices=("divergence", "canary", "resource", "crash",
                            "pool"),
                   help="exit 1 unless a finding of this kind is "
                        "detected")
    p.add_argument("--report", metavar="FILE",
                   help="write the deterministic finding report JSON "
                        "here")
    p.add_argument("--json", action="store_true",
                   help="print the full report (with timing) as JSON")
    p.add_argument("--metrics", action="store_true",
                   help="print confide_fuzz_* Prometheus metrics")
    p.add_argument("--verify-determinism", action="store_true",
                   help="run the campaign twice and require "
                        "byte-identical reports")
    p.add_argument("--fail-on-findings", action="store_true",
                   help="exit 1 if any finding was recorded")
    p.add_argument("--list-targets", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the JSON-RPC serving gateway over one node",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8645,
                   help="listen port (0 picks a free one; default 8645)")
    p.add_argument("--storage", choices=("memory", "lsm"),
                   default="memory")
    p.add_argument("--data-dir", help="storage directory for the lsm "
                   "backend")
    p.add_argument("--block-interval", type=float, default=0.030,
                   metavar="S", help="block production cadence "
                   "(default 0.030, the paper's 30 ms)")
    p.add_argument("--max-block-bytes", type=int, default=1 << 14)
    p.add_argument("--mempool-capacity", type=int, default=4096,
                   help="unverified-pool depth before submissions get "
                        "backpressure responses (default 4096)")
    p.add_argument("--rate", type=float, default=0.0, metavar="RPS",
                   help="per-client token-bucket refill; 0 disables "
                        "rate limiting (default 0)")
    p.add_argument("--burst", type=float, default=20.0,
                   help="per-client token-bucket depth (default 20)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="seeded virtual-time mixed-workload load through the gateway",
    )
    p.add_argument("--clients", type=int, default=1000,
                   help="concurrent simulated clients (default 1000)")
    p.add_argument("--requests", type=int, default=3,
                   help="business transactions per client (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="the run is a pure function of this")
    p.add_argument("--mode", choices=("open", "closed"), default="open",
                   help="arrival model: open loop (rate-driven) or "
                        "closed loop (think-time)")
    p.add_argument("--arrival-rate", type=float, default=2500.0,
                   metavar="RPS", help="open-loop aggregate arrival rate")
    p.add_argument("--think-time", type=float, default=0.4, metavar="S",
                   help="closed-loop mean per-client think time")
    p.add_argument("--block-interval", type=float, default=0.030,
                   metavar="S")
    p.add_argument("--max-block-bytes", type=int, default=1 << 14)
    p.add_argument("--mempool-capacity", type=int, default=512,
                   help="small by default so the run demonstrates "
                        "backpressure (default 512)")
    p.add_argument("--client-rate", type=float, default=0.0, metavar="RPS",
                   help="gateway per-client rate limit (0 = off)")
    p.add_argument("--burst", type=float, default=20.0)
    p.add_argument("--weights", metavar="W",
                   help="traffic mix, e.g. scf=0.1,abs=0.3,coldchain=0.6")
    p.add_argument("--out", metavar="FILE",
                   help="write BENCH_serving.json here")
    p.add_argument("--json", action="store_true",
                   help="print the full report (with timing) as JSON")
    p.add_argument("--metrics", action="store_true",
                   help="print confide_serve_load_* Prometheus metrics")
    p.add_argument("--verify-determinism", action="store_true",
                   help="run twice and require byte-identical summaries")
    p.add_argument("--max-error-rate", type=float, default=None,
                   metavar="FRAC",
                   help="exit 1 if (non-backpressure) error responses "
                        "exceed this fraction of submissions")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "db", help="inspect or maintain an LSM storage directory"
    )
    p.add_argument("action", choices=("stats", "verify", "compact"))
    p.add_argument("directory")
    p.add_argument("--seal-key", metavar="HEX",
                   help="AES key (hex) for a sealed store; omit for "
                        "unsealed stores.  Platform-bound stores cannot "
                        "be opened offline — that is the point.")
    p.add_argument("--seal-identity", default="d-protocol",
                   help="identity string bound into the seal AAD "
                        "(default: d-protocol)")
    p.set_defaults(func=cmd_db)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
