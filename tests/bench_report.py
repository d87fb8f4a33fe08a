"""Micro-benchmarks on a 256-flow fan-out scan: the whole scan, JSON
report rendering, with the stdlib's indented encoder as the reference, and
check localization (the path's function walk included) over every flow.

The file name does not match ``test_*.py``, so the default test run does
not collect it. Run it with

    PYTHONPATH=src python -m pytest tests/bench_report.py
"""

import json

import pytest

from privflow.crossflow import build_global_graph, match_channels, path_functions, q_globalflow, q_user
from privflow.load import load_program
from privflow.pipeline import ScanBudget, find_privileged_ops, locate_checks, scan
from privflow.reasoner import ScriptedOracle
from privflow.report import render_report

from conftest import write_fanout_corpus


@pytest.fixture(scope="module")
def fanout(tmp_path_factory):
    program = load_program(write_fanout_corpus(tmp_path_factory.mktemp("fanout")))
    oracle = ScriptedOracle()
    budget = ScanBudget(max_tool_calls_per_phase=10**9)
    privops = find_privileged_ops(program, oracle, budget)
    graph = build_global_graph(program, privops, match_channels(program))
    flows = q_globalflow(graph, q_user(program, oracle), privops).paths
    payload = scan(program, oracle, budget)
    assert len(flows) == len(payload["findings"]) == 256
    return program, oracle, flows, payload


def test_scan_every_flow(benchmark, fanout):
    """One scan of all 256 flows, validation and the report payload
    included; the program's service indexes are already built."""
    program, oracle, _, payload = fanout
    budget = ScanBudget(max_tool_calls_per_phase=10**9)
    assert benchmark(scan, program, oracle, budget) == payload


def test_render_json(benchmark, fanout):
    payload = fanout[3]
    text = benchmark(render_report, payload, "json")
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_render_json_stdlib_reference(benchmark, fanout):
    benchmark(json.dumps, fanout[3], indent=2, sort_keys=True)


def test_locate_checks_every_flow(benchmark, fanout):
    program, oracle, flows, _ = fanout
    results = benchmark(lambda: [locate_checks(path_functions(program, flow), oracle) for flow in flows])
    assert len(results) == len(flows)
