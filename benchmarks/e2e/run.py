"""One measured end-to-end ledger: run the workloads, print every metric.

    python benchmarks/e2e/run.py --seed S [--workload W] [--seconds T]
        [--trace [0|1]] [--repeat K] [--out F] [--trace-out F]

A run is ``--seconds`` worth of cycles; a cycle is a saturating burst, a
paced stream of writes and a paced stream of reads, each with a pass of
the speed kernel on either side, and every timing is reported at
reference speed (``calibrate.py``).  ``--trace 0`` (default) takes the
end-to-end metrics with nothing installed in the program.  ``--trace 1`` runs the same workload with
spans recorded at the layer boundaries and reports the per-layer
metrics.  A bare ``--trace`` does both, one after the other, and adds
``trace.overhead_share``.  ``--repeat K`` runs seeds S .. S+K-1 so that
``compare.py`` has a spread to judge by.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) for the last run;
the exit code is non-zero if any output check of any run failed.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("benchmarks/e2e/run.py: the program under test (src/repro) is "
             "not in this checkout")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from repro.crypto.ecc import decode_point  # noqa: E402
from repro.crypto.entropy import install_entropy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import rigs  # noqa: E402
import sut  # noqa: E402
import workloads  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_STARTED

SET_UP_BLOCK_TXS = 200  # provisioning and prepopulation block size
WARM_UP_TXS = 3  # business transactions through the real path, untimed
IDLE_ROUND_TRIPS = 200  # serve.http_overhead calibration requests
TAIL = 0.95  # tail percentile reported (not gated) beside each median


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_average": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (the
    driver's checkout is not a repository: then ``None``)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def pin_to_one_processor() -> int | None:
    """Keep this process, and the child it will start, on one processor
    (the last one allowed, away from where interrupts land).

    The load generator and the server take turns anyway (request, reply),
    the program is bound by the interpreter lock, and on a two-thread core
    the generator's polling on the sibling thread slows the server by an
    amount that varies.  On one processor the speed kernel also runs
    exactly where the work does.  Returns the processor, or ``None``
    where the platform has no affinity call.
    """
    try:
        processor = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {processor})
        return processor
    except (AttributeError, OSError):
        return None


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 traced: bool, trace_out: str | None = None) -> dict:
    """One run of one workload on a fresh rig; returns the run record."""
    set_up_started = time.perf_counter()
    pin_to_one_processor()
    runs_dir = os.path.join(HERE, ".runs")
    os.makedirs(runs_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs_dir)
    # Every random draw of the load generator (and, on the consortium
    # rig, of the replicas) comes from the seed.
    previous_entropy = install_entropy(random.Random(seed))
    rig = None
    try:
        rig_class = (rigs.ServeRig if workload.rig == "serve"
                     else rigs.ConsortiumRig)
        rig = rig_class(run_dir, traced, trace_out)
        return _measure(rig, workload, seed, seconds, traced, set_up_started)
    finally:
        if rig is not None:
            rig.close()
        install_entropy(previous_entropy)
        shutil.rmtree(run_dir, ignore_errors=True)
        if not os.listdir(runs_dir):
            os.rmdir(runs_dir)


def _measure(rig, workload, seed, seconds, traced, set_up_started) -> dict:
    set_up_passes_s = [calibrate.one_pass()]
    load = workloads.Load(workload, decode_point(bytes.fromhex(rig.pk_tx_hex)),
                          seed)
    rig.needles = load.canary_needles
    rig.commit_all(load.provisioning(), SET_UP_BLOCK_TXS)
    set_up_passes_s.append(rig.calibrate())
    if workload.prepopulate:
        rig.commit_all([s.tx for s in load.take(workload.prepopulate)],
                       SET_UP_BLOCK_TXS)
        set_up_passes_s.append(rig.calibrate())
    rig.serve()

    cycles = workload.cycles(seconds)
    write_due = loadgen.spread(workload.paced_writes, workload.write_s)
    read_due = loadgen.spread(workload.paced_reads, workload.read_s)
    seal_started = time.perf_counter()
    warm_up = load.take(WARM_UP_TXS)
    burst_loads, segment_loads = [], []
    for _ in range(cycles):  # in the order they will be submitted (nonces)
        burst_loads.append(load.take(workload.burst_txs, "burst"))
        segment_loads.append(load.take(len(write_due), "paced"))
    sealed_count = WARM_UP_TXS + cycles * (workload.burst_txs + len(write_due))
    seal_s = time.perf_counter() - seal_started

    client = rig.target()
    warm = loadgen.saturate(client, warm_up, workloads.WINDOW, loadgen.Tally())
    if len(warm.committed) != WARM_UP_TXS:
        raise rigs.RigError("warm-up transactions did not all commit")
    keys = rig.state_keys()
    read_rng = random.Random(f"reads-{seed}")  # read keys and burst phases
    idle_rtt_s = _idle_round_trip(rig, client)
    speed = calibrate.Speed(rig.calibrate)
    set_up_passes_s += [calibrate.one_pass(), speed.passes_s[-1]]
    set_up_s = _IMPORT_S + (time.perf_counter() - set_up_started)

    tally = loadgen.Tally()
    generator_cpu = time.process_time()
    timed_started = time.perf_counter()
    bursts: list[dict] = []  # one row per burst, as measured + slow-down
    segments: list[dict] = []  # one row per paced segment, likewise
    burst_moves: list[dict] = []  # counter deltas over each burst
    latencies = {"commit": [], "read": []}  # seconds at reference speed
    latencies_measured = {"commit": [], "read": []}
    lags_s: list[float] = []
    saturated: list = []
    paced_committed: list = []
    first = last = None

    def paced_segment(kind: str, **streams) -> list:
        """One paced stream on its own, a speed pass on either side; its
        latencies join the pool as measured and at reference speed."""
        nonlocal last
        before = rig.mark("paced")
        segment = loadgen.paced(client, tally=tally,
                                started=time.perf_counter(), **streams)
        last = rig.mark("between")
        slow = speed.since_last()
        samples = getattr(segment, f"{kind}_latencies_s")
        # The processor-busy part of one operation's latency: the
        # system's processor time over the segment per operation, capped
        # at the latency.
        busy = (last["cpu_s"] - before["cpu_s"]) / max(1, len(samples))
        segments.append({
            "kind": kind, "slowdown": slow, "operations": len(samples),
            "elapsed_s": segment.elapsed_s, "busy_per_operation_s": busy,
            "p50_ms": _p50_ms(samples)})
        latencies_measured[kind] += samples
        latencies[kind] += [
            calibrate.at_reference(sample, min(sample, busy), slow)
            for sample in samples]
        lags_s.extend(segment.lags_s)
        return segment.committed

    for burst_load, segment_load in zip(burst_loads, segment_loads):
        # A burst that straddles a beat is cut into one block more.  Each
        # piece ends on a commit, so without this the next burst would
        # start at a fixed offset from the beat and a run could straddle
        # every time; a seeded wait of up to one beat makes it chance.
        time.sleep(read_rng.uniform(0.0, sut.BLOCK_INTERVAL_S))
        before = rig.mark("saturate")
        first = first or before
        burst = loadgen.saturate(client, burst_load, workloads.WINDOW, tally)
        moved = sut.delta(rig.mark("between"), before)
        bursts.append({"committed": len(burst.committed),
                       "elapsed_s": burst.elapsed_s,
                       "cpu_s": moved["cpu_s"],
                       "slowdown": speed.since_last()})
        burst_moves.append(moved)
        saturated += burst.committed
        paced_committed += paced_segment(
            "commit", writes=segment_load, write_due=write_due)
        paced_segment("read", read_due=read_due,
                      read_keys=read_rng.choices(keys, k=len(read_due)))
    timed_s = time.perf_counter() - timed_started
    generator_cpu = time.process_time() - generator_cpu

    committed_all = saturated + paced_committed
    blobs = checks.fetch_receipts(client, committed_all, tally)
    status = rig.status(client)
    sample = checks.sample_before_restart(client, blobs, keys, seed)
    problems = []
    restarts = []
    for _ in range(workload.restarts):
        speed.since_last()
        cpu_before = rig.mark("restart")["cpu_s"]
        restart = rig.restart(status["height"])
        restart["cpu_s"] = rig.mark("restart")["cpu_s"] - cpu_before
        restart["slowdown"] = speed.since_last()
        restart["at_reference_s"] = calibrate.at_reference(
            restart["restart_s"], restart["cpu_s"], restart["slowdown"])
        restarts.append(restart)
        problems += checks.after_restart(rig, rig.target(), status, sample)
    restart = sorted(
        restarts, key=lambda r: r["at_reference_s"]
    )[(len(restarts) - 1) // 2]
    if workload.rig == "consortium":
        problems += checks.replicas_agree(rig)
    final = rig.finish()

    open_started = time.perf_counter()
    problems += checks.open_receipts(committed_all, blobs, tally)
    open_s = time.perf_counter() - open_started
    problems += checks.accounting(tally, committed_all, blobs)
    problems += checks.canaries(rig, load.canary_needles)
    storage = last["node"]["storage"]
    if workload.fits_in_cache and (storage.get("cache_evictions") or 0) > 0:
        problems.append(
            f"mis-sized: {storage['cache_evictions']} block-cache evictions "
            "on a workload that must fit in cache")

    disk_bytes = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder in rig.data_dirs for name in os.listdir(folder))
    latency = {name: _latency_summary(samples)
               for name, samples in latencies.items()}
    median = statistics.median
    # Timings at reference speed: the part of each piece of work in which
    # the system's processor ran, divided by how much slower than the
    # reference the machine ran the speed kernel around it (calibrate.py).
    end_to_end = {
        # Set-up is processor work from end to end, in one process or
        # the other.
        "setup_s": set_up_s / calibrate.slowdown(*set_up_passes_s),
        "committed_tps": median(
            b["committed"] / calibrate.at_reference(
                b["elapsed_s"], b["cpu_s"], b["slowdown"]) for b in bursts),
        "cpu_ms_per_tx": median(
            b["cpu_s"] * 1e3 / max(1, b["committed"]) / b["slowdown"]
            for b in bursts),
        "commit_latency_p50_ms": latency["commit"]["p50_ms"],
        "read_latency_p50_ms": latency["read"]["p50_ms"],
        "restart_s": restart["at_reference_s"],
        "peak_rss_mb": final["snapshot"]["peak_rss_mb"],
        "disk_bytes_per_user_byte": disk_bytes / load.user_bytes,
    }
    as_measured = {
        "setup_s": set_up_s,
        "committed_tps": median(
            b["committed"] / b["elapsed_s"] for b in bursts),
        "cpu_ms_per_tx": median(
            b["cpu_s"] * 1e3 / max(1, b["committed"]) for b in bursts),
        "commit_latency_p50_ms":
            _latency_summary(latencies_measured["commit"])["p50_ms"],
        "read_latency_p50_ms":
            _latency_summary(latencies_measured["read"])["p50_ms"],
        "restart_s": restart["restart_s"],
    }
    passes_s = set_up_passes_s + speed.passes_s
    record = {
        "workload": workload.name, "rig": workload.rig, "seed": seed,
        "seconds": seconds, "traced": traced,
        "correct": not problems, "problems": problems,
        "attempted": tally.operations, "failed": tally.failed,
        "failed_share": tally.failed_share,
        "tally": dict(vars(tally)),
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "machine": {
            "reference_pass_s": calibrate.REFERENCE_S,
            "passes": len(passes_s),
            "slowdown_min": min(passes_s) / calibrate.REFERENCE_S,
            "slowdown_median": median(passes_s) / calibrate.REFERENCE_S,
            "slowdown_max": max(passes_s) / calibrate.REFERENCE_S,
        },
        "latency": latency,
        "bursts": bursts,
        "segments": segments,
        "restarts": [{"restart_s": r["restart_s"], "cpu_s": r["cpu_s"],
                      "slowdown": r["slowdown"]} for r in restarts],
        "stated": {
            "injected_message_delay_s": 0.0, "storage_sync": True,
            "window": workloads.WINDOW, "cycles": cycles,
            "burst_txs": workload.burst_txs,
            "paced_writes": workload.paced_writes,
            "write_rate_per_s": workload.paced_writes / workload.write_s,
            "paced_reads": workload.paced_reads,
            "read_rate_per_s": workload.paced_reads / workload.read_s,
            "block_bytes": 4096, "block_interval_s": 0.030,
            "nodes": rig.nodes, "prepopulated": workload.prepopulate,
            "state_keys": len(keys), "timed_s": timed_s,
        },
        "exact": {
            "blocks": last["node"]["height"] // rig.nodes,
            "wal_bytes": storage.get("wal_bytes_written"),
            "state_root": status["head"]["state_root"],
        },
        "responses_scanned": rig.responses_scanned,
    }
    if traced:
        record["per_layer"] = layers.per_layer(
            workload, rig.nodes, sut.total(burst_moves),
            sut.delta(last, first), last, final, restart, {
                "latency": latency,
                "txs": len(saturated),
                "saturate_s": sum(b["elapsed_s"] for b in bursts),
                "paced_txs": len(paced_committed),
                "lags_s": lags_s, "polls": tally.polls,
                "idle_rtt_s": idle_rtt_s, "seal_s": seal_s,
                "sealed": sealed_count, "open_s": open_s,
                "opened": len(committed_all),
                "generator_cpu_s": generator_cpu, "timed_s": timed_s,
                "user_bytes_saturate":
                    sum(s.tx.wire_size for s in saturated),
                "slowdown_median": record["machine"]["slowdown_median"],
            })
    return record


def _p50_ms(samples_s: list[float]) -> float | None:
    return statistics.median(samples_s) * 1e3 if samples_s else None


def _latency_summary(samples_s: list[float]) -> dict:
    """Median, and the highest percentile ≤ TAIL that keeps ten samples
    beyond it (stated, since few samples lower it)."""
    if not samples_s:
        return {"samples": 0, "p50_ms": 0.0, "tail_ms": 0.0,
                "tail_percentile": None, "max_ms": 0.0}
    tail = loadgen.supported_percentile(len(samples_s), TAIL)
    return {
        "samples": len(samples_s),
        "p50_ms": loadgen.percentile(samples_s, 0.5) * 1e3,
        "tail_ms": loadgen.percentile(samples_s, tail) * 1e3,
        "tail_percentile": tail,
        "max_ms": max(samples_s) * 1e3,
    }


def _idle_round_trip(rig, target) -> float | None:
    """Median round trip of ``chain_status`` on an idle serve rig."""
    if not hasattr(target, "call"):
        return None
    rig.mark("round-trip")
    samples = []
    for _ in range(IDLE_ROUND_TRIPS):
        started = time.perf_counter()
        target.call("chain_status", {})
        samples.append(time.perf_counter() - started)
    return loadgen.percentile(samples, 0.5)


def contract_line(record: dict, spec: dict) -> dict:
    """The driver's result object: every end-to-end metric of an untraced
    run, every per-layer metric of a traced one.  A per-layer metric with
    no value on this rig (no gateway on the consortium, a missing wrap
    point) reads 0 here and ``null`` in the ``--out`` document."""
    if record["traced"]:
        values = record["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0,
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} seed={record['seed']} {mode} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_share={record['failed_share']:.4f}")
    section = record["per_layer"] if record["traced"] else record["end_to_end"]
    for name, value in section.items():
        shown = "null" if value is None else (
            f"{value:.4f}" if isinstance(value, float) else value)
        print(f"  {name} = {shown} {units.get(name, '')}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-out",
                        help="write the Chrome trace of a traced run here "
                             "(one workload)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    records = []
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            untraced_tps = None
            for traced in modes:
                record = run_workload(
                    workloads.WORKLOADS[name], seed, args.seconds, traced,
                    args.trace_out if traced else None)
                tps = record["end_to_end"]["committed_tps"]
                if not traced:
                    untraced_tps = tps
                elif untraced_tps:
                    record["per_layer"]["trace.overhead_share"] = (
                        1.0 - tps / untraced_tps)
                print_record(record, spec)
                records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(args.seed),
                       "runs": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(contract_line(records[-1], spec)))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
