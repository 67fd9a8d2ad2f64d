"""Golden Prometheus pages: what ``repro metrics`` and ``repro fuzz
--metrics`` print, pinned.

The fixture ``tests/fixtures/metrics_golden.json`` records three pages:

- ``memory``: ``repro metrics --txs 3`` as shipped — one confidential
  node on the in-memory store, plus the process tracer;
- ``lsm``: the same flow on a node whose store is a sealed LSM tree in a
  temporary directory, which adds the ``confide_storage_*`` families;
- ``fuzz``: a seeded two-target campaign under ``repro fuzz --metrics``.

For each page it pins every family's TYPE and HELP line and every
sample's label set, and every sample value that does not come from a
wall clock (families named ``*_seconds*`` and
``confide_fuzz_execs_per_second`` pin only their label sets).  An
exporter change must leave all of it identical.  Regenerate only when a
family is added, renamed or re-labeled on purpose:

    PYTHONPATH=src python tests/test_obs_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import replace

import pytest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "metrics_golden.json")

FUZZ_ARGS = ["fuzz", "--target", "gates", "--target", "spin",
             "--seed", "99", "--max-execs", "40", "--metrics"]

_SAMPLE = re.compile(r"^(confide_[a-z0-9_]+)(\{.*\})? (\S+)$")


def _wall_clock(family: str) -> bool:
    return "_seconds" in family or family == "confide_fuzz_execs_per_second"


def parse_page(text: str) -> dict:
    """Exposition text → {family: {type, help, samples: {labels: value}}}.

    Lines that are neither comments nor ``confide_*`` samples are
    skipped.  Wall-clock values are replaced by None so only their label
    sets are compared.
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"type": None, "help": None, "samples": {}})

    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family(name)["help"] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family(name)["type"] = kind
        else:
            match = _SAMPLE.match(line)
            if match is None:
                continue
            name, labels, value = match.groups()
            entry = family(name)["samples"]
            assert (labels or "") not in entry, line
            entry[labels or ""] = None if _wall_clock(name) else value
    return families


def _cli_page(argv: list[str]) -> str:
    from repro.cli import main as cli_main
    from repro.obs.ring import RingBuffer
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    saved = tracer.enabled, tracer.ring
    # A private, empty ring and a disabled tracer: the trace families
    # then read the same whatever earlier code left in the process ring.
    tracer.enabled, tracer.ring = False, RingBuffer(tracer.ring.capacity)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli_main(argv) == 0
    finally:
        tracer.enabled, tracer.ring = saved
    return out.getvalue()


def memory_page() -> str:
    return _cli_page(["metrics", "--txs", "3"])


def lsm_page(directory: str) -> str:
    """``repro metrics --txs 3`` with the node's store a sealed LSM tree."""
    from repro.chain import node as node_module
    from repro.core.config import DEFAULT_CONFIG

    built = []
    real_node = node_module.Node
    config = replace(DEFAULT_CONFIG, storage_backend="lsm")

    def lsm_node(node_id, **kwargs):
        node = real_node(node_id, config=config, data_dir=directory,
                         **kwargs)
        built.append(node)
        return node

    node_module.Node = lsm_node
    try:
        return _cli_page(["metrics", "--txs", "3"])
    finally:
        node_module.Node = real_node
        for node in built:
            node.kv.close()


def fuzz_page() -> str:
    return _cli_page(FUZZ_ARGS)


def generate() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        lsm = lsm_page(directory)
    return {
        "memory": parse_page(memory_page()),
        "lsm": parse_page(lsm),
        "fuzz": parse_page(fuzz_page()),
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return json.load(f)


def _assert_page(actual: dict, expected: dict) -> None:
    assert sorted(actual) == sorted(expected)
    for name, entry in expected.items():
        assert actual[name] == entry, name


def test_memory_node_page(golden):
    _assert_page(parse_page(memory_page()), golden["memory"])


def test_lsm_node_page(golden, tmp_path):
    page = parse_page(lsm_page(str(tmp_path)))
    storage = [name for name in page if name.startswith("confide_storage_")]
    assert len(storage) == 16
    _assert_page(page, golden["lsm"])


def test_fuzz_page(golden):
    _assert_page(parse_page(fuzz_page()), golden["fuzz"])


def test_fuzz_metrics_stdout_is_the_page_alone():
    # ``repro fuzz --metrics > page.prom`` must leave a scrapeable page:
    # the campaign summary goes to stderr, so the whole stdout parses.
    from repro.obs.export import parse_prometheus_text

    samples = parse_prometheus_text(fuzz_page())
    assert any(key.startswith("confide_fuzz_execs_total") for key in samples)


def test_every_family_is_a_counter_or_gauge(golden):
    for page in golden.values():
        for name, entry in page.items():
            assert entry["type"] in ("counter", "gauge"), name
            assert entry["help"], name


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_obs_golden.py --regenerate")
    with open(FIXTURE, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
