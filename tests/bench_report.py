"""Micro-benchmarks on ``bench/gen.py``'s fan-out 8x2, whose 256 flows are
2 path classes of 128: the whole scan, the class search, JSON report
rendering, with the stdlib's indented encoder as the reference, and check
localization (the path's function walk included) of every class witness;
and on ``bench/gen.py``'s 4x12 chain, whose 48 findings name 120 path
segments by id, the report payload built from a finished scan's results,
with its ``hops`` and ``elements`` tables, and rendered.

The file name does not match ``test_*.py``, so the default test run does
not collect it; ``tests/test_tooling.py`` runs it once, untimed, to keep it
passing. Time it with

    PYTHONPATH=src python -m pytest tests/bench_report.py
"""

import json

import pytest

from privflow import pipeline
from privflow.crossflow import build_global_graph, match_channels, q_globalflow, q_user
from privflow.load import load_program
from privflow.pipeline import ScanBudget, Tracer, find_privileged_ops, locate_checks, scan
from privflow.reasoner import ScriptedOracle
from privflow.report import render_report

from conftest import bench_gen
from path_reference import per_element_groups


@pytest.fixture(scope="module")
def fanout(tmp_path_factory):
    root = tmp_path_factory.mktemp("fanout")
    bench_gen().fanout(1, 8, 2, root)
    program = load_program(root)
    oracle = ScriptedOracle()
    budget = ScanBudget(max_tool_calls_per_phase=10**9)
    privops = find_privileged_ops(program, oracle, tracer=Tracer(budget))
    graph = build_global_graph(program, privops, match_channels(program))
    sources = q_user(program, oracle)
    classes = q_globalflow(program, graph, sources, privops)
    payload = scan(program, oracle, budget)
    assert classes.counts == [f["witness_count"] for f in payload["findings"]] == [128, 128]
    return program, oracle, classes, payload, (graph, sources, privops)


@pytest.fixture(scope="module")
def chain_payload_inputs(tmp_path_factory):
    """The keyword arguments that a scan of the 4x12 chain passes to
    ``pipeline._report_payload``, and the payload it returns."""
    root = tmp_path_factory.mktemp("chain")
    bench_gen().chain(1, 4, 12, root)
    calls = []
    real = pipeline._report_payload

    def keep(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_report_payload", keep)
        payload = scan(load_program(root), ScriptedOracle(), ScanBudget(max_tool_calls_per_phase=10**9))
    assert len(payload["findings"]) == 48
    assert len(payload["hops"]) == 120
    assert sum(len(finding["path"]["hops"]) for finding in payload["findings"]) == 192
    return calls[0], payload


def test_scan_every_class(benchmark, fanout):
    """One scan of the 2 classes, validation and the report payload
    included; the program's service indexes are already built."""
    program, oracle, _, payload, _ = fanout
    budget = ScanBudget(max_tool_calls_per_phase=10**9)
    assert benchmark(scan, program, oracle, budget) == payload


def test_search_path_classes(benchmark, fanout):
    """``q_globalflow`` over the fan-out graph: 2 classes of 128 paths,
    each witness with its node ids, id, flow segments and services."""
    program, graph, (sources, privops) = fanout[0], fanout[4][0], fanout[4][1:]
    assert benchmark(q_globalflow, program, graph, sources, privops) == fanout[2]


def test_render_json(benchmark, fanout):
    """The fan-out report, a tree: its 2 findings name 18 hops."""
    payload = fanout[3]
    assert len(payload["hops"]) == 18
    text = benchmark(render_report, payload, "json")
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_render_json_stdlib_reference(benchmark, fanout):
    benchmark(json.dumps, fanout[3], indent=2, sort_keys=True)


def test_locate_checks_every_class(benchmark, fanout):
    program, oracle, classes, _, _ = fanout
    results = benchmark(lambda: [locate_checks(per_element_groups(program, flow), oracle) for flow in classes.paths])
    assert len(results) == len(classes.paths)


def test_chain_payload_and_render(benchmark, chain_payload_inputs):
    """``_report_payload`` from a finished 48-finding chain scan, then its
    JSON text."""
    inputs, payload = chain_payload_inputs
    text = benchmark(lambda: render_report(pipeline._report_payload(**inputs), "json"))
    assert text == render_report(payload, "json")
