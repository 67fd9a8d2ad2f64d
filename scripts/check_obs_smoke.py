"""CI observability smoke check.

Validates the artifacts produced by ``repro demo --trace`` /
``repro trace`` (Chrome trace-event JSON with complete spans carrying
modeled cycles), ``repro metrics`` and ``repro fuzz --metrics``
(scrapeable Prometheus text: every sample's family has a ``# HELP`` and
a ``# TYPE`` line, and every TYPE is ``counter`` or ``gauge``).

A fuzz page must carry ``confide_fuzz_execs_total``; a node page must
carry the operation, EPC and pool families.

Usage: python scripts/check_obs_smoke.py [TRACE.json ...] [PAGE.prom ...]
"""

import json
import sys

from repro.obs.export import parse_prometheus_text


def check_trace(path: str) -> None:
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        raise SystemExit(f"{path}: no complete spans")
    for event in spans:
        if "cycles" not in event["args"] or "modeled_us" not in event["args"]:
            raise SystemExit(f"{path}: span {event['name']} lacks cycle args")
    print(f"{path}: {len(events)} events, {len(spans)} spans OK")


NODE_REQUIRED = (
    "confide_op_seconds_total",
    "confide_epc_",
    "confide_mempool_depth",
)
FUZZ_REQUIRED = ("confide_fuzz_execs_total",)


def check_metrics(path: str) -> None:
    with open(path) as f:
        lines = f.read().splitlines()
    # ``repro fuzz --metrics`` prints its campaign summary first; the
    # exposition page starts at the first HELP line.
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("# HELP ")), None)
    if start is None:
        raise SystemExit(f"{path}: no exposition page")
    page = lines[start:]
    samples = parse_prometheus_text("\n".join(page))
    helps, types = set(), {}
    for line in page:
        if line.startswith("# HELP "):
            helps.add(line.split(" ", 3)[2])
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
    for key in samples:
        family = key.split("{", 1)[0]
        if family not in helps:
            raise SystemExit(f"{path}: family {family} has no HELP line")
        if types.get(family) not in ("counter", "gauge"):
            raise SystemExit(f"{path}: family {family} has TYPE "
                             f"{types.get(family)!r}, not counter or gauge")
    fuzz = any(key.startswith("confide_fuzz_") for key in samples)
    for prefix in FUZZ_REQUIRED if fuzz else NODE_REQUIRED:
        if not any(key.startswith(prefix) for key in samples):
            raise SystemExit(f"{path}: no sample with prefix {prefix}")
    print(f"{path}: {len(samples)} samples in {len(types)} families OK")


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    for path in argv:
        if path.endswith(".json"):
            check_trace(path)
        else:
            check_metrics(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
