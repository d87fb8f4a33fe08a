"""Acceptance suite: every criterion at its stated tolerance, offline,
with the scripted reasoner only. One pass/fail line prints per criterion."""

import json
import random
import time

import pytest

from privflow.constraints import Sat, Unknown, check_sat
from privflow.crossflow import build_global_graph, match_channels, q_globalflow
from privflow.load import load_program
from privflow.pipeline import ScanOptions, scan
from privflow.report import render_report
from privflow.reasoner import ScriptedOracle
from privflow.search import q_flow

from constraint_reference import eval_witness
from conftest import (
    CORPORA,
    build_random_program,
    build_random_service,
    oracle_closure,
    path_hops,
)
from smtlib_check import validate_smtlib
from test_constraints import enumerate_models, random_constraint


def _line(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [criterion {num}] {text}")


@pytest.fixture(scope="module")
def oracle():
    return ScriptedOracle()


def test_criterion_1_motivating_corpus(oracle):
    started = time.monotonic()
    payload = scan(load_program(CORPORA / "role_update"), oracle)
    elapsed = time.monotonic() - started

    findings = payload["findings"]
    ok = (
        len(findings) == 1
        and findings[0]["verdict"] == "insufficient_authz"
        and elapsed < 5.0
    )
    if ok:
        channel_hops = [h for h in path_hops(payload, findings[0]) if h["type"] == "channel"]
        ok = len(channel_hops) == 1 and channel_hops[0]["identifier"] == "/setUserRole"
    _line(1, ok, f"motivating corpus: 1 insufficient_authz finding over /setUserRole in {elapsed:.2f}s")
    assert len(findings) == 1
    assert findings[0]["verdict"] == "insufficient_authz"
    channel_hops = [h for h in path_hops(payload, findings[0]) if h["type"] == "channel"]
    assert len(channel_hops) == 1
    assert channel_hops[0]["identifier"] == "/setUserRole"
    assert elapsed < 5.0


def test_criterion_2_patched_corpus(oracle):
    payload = scan(load_program(CORPORA / "role_update_patched"), oracle)
    ok = (
        payload["findings"] == []
        and payload["funnel"]["protected_dropped"] == 1
        and not payload["budget"]["exhausted"]
    )
    _line(2, ok, "patched corpus: 0 findings, funnel shows 1 protected-dropped flow")
    assert payload["findings"] == []
    assert payload["funnel"]["protected_dropped"] == 1
    assert not payload["budget"]["exhausted"]


def test_criterion_3_case_study_corpus(oracle):
    program = load_program(CORPORA / "order_payment")
    payload = scan(program, oracle)
    findings = payload["findings"]
    elements = payload["elements"]

    def flow_paths(finding):
        return [h for h in path_hops(payload, finding) if h["type"] == "flow"]

    pay_findings = [
        f
        for f in findings
        if any("/paySuccess" in elements[step]["name"] for hop in flow_paths(f) for step in hop["steps"])
    ]
    cancel_findings = [
        f
        for f in findings
        if any("/cancelOrder" in elements[step]["name"] for hop in flow_paths(f) for step in hop["steps"])
    ]
    ok = (
        len(findings) == 1
        and len(pay_findings) == 1
        and "ownership" in pay_findings[0]["rationale"]
        and cancel_findings == []
    )
    _line(3, ok, "case-study corpus: 1 finding on the pay path with a missing-ownership rationale, none on cancel")
    assert len(findings) == 1
    assert len(pay_findings) == 1
    assert "ownership" in pay_findings[0]["rationale"]
    assert cancel_findings == []


def test_criterion_4_infeasible_path_corpus(oracle, tmp_path):
    payload = scan(
        load_program(CORPORA / "infeasible"),
        oracle,
        options=ScanOptions(emit_smt_dir=str(tmp_path)),
    )
    files = sorted(tmp_path.glob("*.smt2"))
    problems = [p for f in files for p in validate_smtlib(f.read_text())]
    ok = (
        payload["funnel"]["constraint_pruned"] == 1
        and payload["findings"] == []
        and len(files) == 1
        and problems == []
    )
    _line(4, ok, "infeasible corpus: 1 constraint-pruned flow, emitted SMT-LIB is well-formed")
    assert payload["funnel"]["constraint_pruned"] == 1
    assert payload["findings"] == []
    assert len(files) == 1
    assert problems == []


def test_criterion_5_mini_ground_truth_benchmark(oracle):
    bench = json.loads((CORPORA / "bench.json").read_text())
    corpora = bench["corpora"]
    vulnerable = [c for c in corpora if c["vulnerable"]]
    safe = [c for c in corpora if not c["vulnerable"]]
    assert len(corpora) >= 12 and len(vulnerable) >= 6 and len(safe) >= 6

    def evaluate(basic_sink: bool):
        tp = fp = fn = 0
        missed = []
        for entry in corpora:
            payload = scan(
                load_program(CORPORA / entry["path"]),
                oracle,
                options=ScanOptions(basic_sink=basic_sink),
            )
            got = [
                (f["privileged_operation"]["service"], f["privileged_operation"]["name"], f["verdict"])
                for f in payload["findings"]
            ]
            expected = [(e["service"], e["sink"], e["verdict"]) for e in entry["expected"]]
            for item in expected:
                if item in got:
                    tp += 1
                    got.remove(item)
                else:
                    fn += 1
                    missed.append((entry["path"], item))
            fp += len(got)
        total_labeled = sum(len(e["expected"]) for e in corpora)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / total_labeled if total_labeled else 1.0
        return precision, recall, missed

    precision, recall, _ = evaluate(basic_sink=False)
    basic_precision, basic_recall, missed = evaluate(basic_sink=True)
    non_baseline_missed = [
        (path, item)
        for path, item in missed
        if not _label_is_baseline(corpora, path, item)
    ]
    ok = (
        precision == 1.0
        and recall == 1.0
        and basic_recall < recall
        and len(non_baseline_missed) >= 2
    )
    _line(
        5,
        ok,
        f"benchmark: precision={precision:.0%} recall={recall:.0%}; "
        f"basic-sink recall drops to {basic_recall:.0%} missing {len(non_baseline_missed)} non-baseline sinks",
    )
    assert precision == 1.0 and recall == 1.0
    assert basic_recall < recall
    assert len(non_baseline_missed) >= 2
    assert basic_precision == 1.0


def _label_is_baseline(corpora, path, item):
    for entry in corpora:
        if entry["path"] != path:
            continue
        for e in entry["expected"]:
            if (e["service"], e["sink"], e["verdict"]) == item:
                return e["baseline"]
    return False


def test_criterion_6_flow_oracle_equivalence(oracle):
    rng = random.Random(61)
    disagreements = 0
    for _ in range(100):
        service = build_random_service(rng, max_nodes=50)
        closure = oracle_closure(service)
        ids = [e.id for e in service.elements]
        for a in ids:
            for b in ids:
                if bool(q_flow(service, a, b)) != (b in closure[a]):
                    disagreements += 1

    global_disagreements = 0
    rng = random.Random(62)
    for i in range(50):
        program, privops = build_random_program(rng, f"acc{i}")
        graph = build_global_graph(program, privops, match_channels(program))
        entry = program.service(program.manifest.entry_service())
        sources = [e for e in entry.elements if e.kind.value == "endpoint"]
        # a search from one source reaches each of its sinks in some class
        got = {(src.id, p.sink) for src in sources for p in q_globalflow(program, graph, [src], privops).paths}
        want = _closure_pairs(graph, sources, {p.element for p in privops})
        if got != want:
            global_disagreements += 1

    ok = disagreements == 0 and global_disagreements == 0
    _line(
        6,
        ok,
        f"flow oracles: 0/100 single-service and 0/50 multi-service disagreements "
        f"(got {disagreements} and {global_disagreements})",
    )
    assert disagreements == 0
    assert global_disagreements == 0


def _closure_pairs(graph, sources, sink_ids):
    adjacency = {src: sorted(e.dst for e in edges) for src, edges in graph.edges.items()}
    pairs = set()
    for src in sources:
        if src.id not in graph.nodes:
            continue
        seen = set()
        stack = [src.id]
        while stack:
            node = stack.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        pairs.update((src.id, sink) for sink in seen & sink_ids)
    return pairs


def test_criterion_7_constraint_checker():
    rng = random.Random(71)
    disagreements = 0
    witness_failures = 0
    unknowns = 0
    for _ in range(200):
        constraint = random_constraint(rng)
        verdict = check_sat(constraint)
        if isinstance(verdict, Unknown):
            unknowns += 1
            continue
        oracle_sat = next(iter(enumerate_models(constraint)), None) is not None
        if isinstance(verdict, Sat) != oracle_sat:
            disagreements += 1
        if isinstance(verdict, Sat) and not eval_witness(constraint, verdict.witness):
            witness_failures += 1
    ok = disagreements == 0 and witness_failures == 0
    _line(
        7,
        ok,
        f"constraint checker: 0 oracle disagreements, all witnesses evaluate true "
        f"(unknown rate {unknowns}/200, informational)",
    )
    assert disagreements == 0
    assert witness_failures == 0


def test_criterion_8_deterministic_reports(oracle):
    unequal = []
    for corpus in sorted(p.name for p in CORPORA.iterdir() if p.is_dir()):
        program = load_program(CORPORA / corpus)
        first = render_report(scan(program, oracle), "json")
        second = render_report(scan(program, oracle), "json")
        if first != second:
            unequal.append(corpus)
    ok = unequal == []
    _line(8, ok, f"determinism: byte-identical JSON reports on all {_corpus_count()} fixtures")
    assert unequal == []


def _corpus_count() -> int:
    return sum(1 for p in CORPORA.iterdir() if p.is_dir())


def test_criterion_9_primitive_coverage(oracle, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    scan(load_program(CORPORA / "role_update"), oracle, options=ScanOptions(trace_path=str(trace_path)))
    tools = {json.loads(line)["tool"] for line in trace_path.read_text().splitlines()}
    required = {"q_name", "q_ast", "q_flow", "q_cg"}
    ok = required <= tools
    _line(9, ok, f"primitive coverage: trace exercises {sorted(required)}")
    assert required <= tools
