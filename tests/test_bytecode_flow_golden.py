"""Golden Pass 3 output: the bytecode flow analysis, pinned per case.

The fixture ``tests/fixtures/bytecode_flow_golden.json`` records, for
every case below, the full ``report.to_dict()`` (findings with their
instruction windows, declassifications, sources, resources) and
``constraints.to_list()`` (symbolic trees and input-byte ranges):

- the 14 workload contracts and the shipped example contracts, each
  compiled to both VMs and analyzed under both sink models
  (``public_outputs`` True and False);
- the five original adversarial corpus artifacts of
  ``tests/bytecode_corpus.py``;
- the LEAKY and CLEAN source corpora of ``test_analysis_taint.py``,
  compiled to both VMs and analyzed under both sink models with the
  policy their own directives declare plus ``ccle:``.

Whatever changes how the pass is built must leave every case
byte-identical.  Regenerate only when the analysis changes on purpose:

    PYTHONPATH=src python tests/test_bytecode_flow_golden.py --regenerate
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys

import pytest

from bytecode_corpus import CORPUS, SCHEMA_SOURCE
from repro.analysis import analyze_artifact, build_policy
from repro.ccle import parse_schema
from repro.lang import compile_source
from repro.workloads import all_contract_sources
from test_analysis_taint import CLEAN, LEAKY

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "bytecode_flow_golden.json"
EXAMPLES = pathlib.Path(__file__).parents[1] / "examples" / "contracts"

TARGETS = ("wasm", "evm")
SINK_MODELS = {"public": True, "sealed": False}

#: the corpus artifacts the fixture was generated over; later corpus
#: additions are covered by ``test_bytecode_flow.py``, not re-pinned here
CORPUS_STEMS = (
    "evm_leak_via_jump_table",
    "wasm_leak_via_superinstruction",
    "wasm_secret_to_event",
    "wasm_secret_to_public_storage",
    "wasm_secret_to_revert_payload",
)


@functools.lru_cache(maxsize=None)
def _compiled(source: str, target: str):
    return compile_source(source, target)


def _pin(result) -> dict:
    return {"report": result.report.to_dict(),
            "constraints": result.constraints.to_list()}


def _contract_cases():
    """(case id, source, schema source) for workloads and examples."""
    registry = all_contract_sources()
    for name in sorted(registry):
        source, schema_source = registry[name]
        yield f"workload/{name}", name, source, schema_source
    for path in sorted(EXAMPLES.glob("*.cws")):
        schema_path = path.with_suffix(".ccle")
        schema_source = schema_path.read_text() if schema_path.exists() else ""
        yield f"example/{path.stem}", path.stem, path.read_text(), schema_source


def _cases():
    """Every case id with a thunk that runs the pass for it."""
    cases = {}
    for prefix, name, source, schema_source in _contract_cases():
        schema = parse_schema(schema_source) if schema_source else None
        for target in TARGETS:
            for model, public in SINK_MODELS.items():
                cases[f"{prefix}/{target}/{model}"] = functools.partial(
                    lambda s, t, sc, n, p: analyze_artifact(
                        _compiled(s, t), schema=sc, contract_name=n,
                        public_outputs=p),
                    source, target, schema, name, public)
    vault = parse_schema(SCHEMA_SOURCE)
    for stem in CORPUS_STEMS:
        builder, _kind = CORPUS[stem]
        cases[f"corpus/{stem}"] = functools.partial(
            lambda b: analyze_artifact(b(), schema=vault), builder)
    corpora = [("taint-leaky", name, LEAKY[name][1]) for name in sorted(LEAKY)]
    corpora += [("taint-clean", name, CLEAN[name]) for name in sorted(CLEAN)]
    for prefix, name, source in corpora:
        policy = build_policy(source, extra_confidential=("ccle:",))
        for target in TARGETS:
            for model, public in SINK_MODELS.items():
                cases[f"{prefix}/{name}/{target}/{model}"] = functools.partial(
                    lambda s, t, pol, n, p: analyze_artifact(
                        _compiled(s, t), contract_name=n, policy=pol,
                        public_outputs=p),
                    source, target, policy, name, public)
    return cases


CASES = _cases()


def generate() -> dict:
    return {case: _pin(run()) for case, run in sorted(CASES.items())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) == 181


@pytest.mark.parametrize("case", sorted(CASES))
def test_flow_output_is_pinned(case, golden):
    assert _pin(CASES[case]()) == golden[case]


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_bytecode_flow_golden.py --regenerate")
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
