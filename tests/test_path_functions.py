"""One walk per flow: ``crossflow.path_functions`` feeds both constraint
extraction and check localization, and the report shares one record per
element. The old per-consumer walks are written out here as the reference."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from privflow.constraints import _guard_var_types, extract_path_constraints
from privflow.crossflow import GlobalPath, build_global_graph, match_channels, path_functions, q_globalflow, q_user
from privflow.load import load_program
from privflow.model import Edge, EdgeKind, ElementKind, GatewayRoute, Manifest, ManifestService, Program, Service
from privflow.pipeline import ScanBudget, find_privileged_ops, locate_checks, scan
from privflow.reasoner import ClassifyCheck, ExtractConstraints, GuardDescriptor, ScriptedOracle
from privflow.search import FlowPath, enclosing_function, guard_chain

from conftest import CORPORA, make_element, scan_decorator_checks, write_fanout_corpus

OPEN = ScanBudget(max_tool_calls_per_phase=10**9)
GEN = Path(__file__).parent.parent / "bench" / "gen.py"
CORPUS_NAMES = sorted(p.name for p in CORPORA.iterdir() if p.is_dir())

# A path that leaves store.handle for relay and comes back into it through
# a topic: the one function is visited twice, with a function between. The
# path meets store's guards, and the files, out of source order.
REENTRY = {
    "store.msv": (
        '@route("POST", "/start")\n'
        "fn handle() {\n"
        '  m = consume("back")\n'
        '  if m != "stop" {\n'
        "    exec(m)\n"
        "  }\n"
        '  v = request.param("v")\n'
        '  if v != "" {\n'
        '    http_post("http://relay:8080/relay", v)\n'
        "  }\n"
        "}\n"
    ),
    "relay.msv": (
        '@route("POST", "/relay")\n'
        "fn relay() {\n"
        '  r = request.param("r")\n'
        '  if r != "x" {\n'
        '    if r != "y" {\n'
        '      publish("back", r)\n'
        "    }\n"
        "  }\n"
        "}\n"
    ),
}


def write_reentry_corpus(root: Path) -> Path:
    for name, text in REENTRY.items():
        (root / name).write_text(text, encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [
            {"name": "store", "entry": True, "base_url": "http://store:8080", "sources": ["store.msv"]},
            {"name": "relay", "base_url": "http://relay:8080", "sources": ["relay.msv"]},
        ],
        "gateway_routes": [{"prefix": "/start", "target": "store"}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


def write_chain_corpus(root: Path) -> Path:
    """``bench/gen.py``'s 4x12 chain, loaded without writing under bench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("privflow_bench_gen", GEN)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = saved
    gen.chain(1, 4, 12, root)
    return root


def load_case(name: str, root: Path) -> Program:
    writers = {"fanout": write_fanout_corpus, "chain": write_chain_corpus, "reentry": write_reentry_corpus}
    return load_program(writers[name](root) if name in writers else CORPORA / name)


def all_flows(program: Program) -> list[GlobalPath]:
    oracle = ScriptedOracle()
    privops = find_privileged_ops(program, oracle, OPEN)
    graph = build_global_graph(program, privops, match_channels(program))
    return q_globalflow(graph, q_user(program, oracle), privops).paths


class Recorder:
    def __init__(self):
        self.inner = ScriptedOracle()
        self.tasks = []

    def reason(self, task):
        self.tasks.append(task)
        return self.inner.reason(task)


def old_extract_task(program: Program, path: GlobalPath) -> ExtractConstraints:
    """The guard walk ``extract_path_constraints`` made of its own."""
    guards, seen = [], set()
    for segment in path.flow_segments:
        service = program.service(segment.service)
        if service is None:
            continue
        for eid in segment.elements:
            for guard in guard_chain(service, eid):
                if guard.id not in seen:
                    seen.add(guard.id)
                    guards.append((service, guard))
    guards.sort(key=lambda pair: (pair[1].location.file, pair[1].location.line, pair[1].location.col))
    return ExtractConstraints(
        guards=tuple(GuardDescriptor(source=g.source, var_types=_guard_var_types(s, g.source)) for s, g in guards)
    )


def old_candidates(program: Program, path: GlobalPath) -> list[tuple[str, str]]:
    """(element, attachment) of each check candidate, in the order the old
    per-function grouping and second guard walk classified them."""
    groups = {}
    for segment in path.flow_segments:
        service = program.service(segment.service)
        if service is None:
            continue
        for eid in segment.elements:
            fn = enclosing_function(service, eid)
            if fn is not None:
                groups.setdefault(fn.id, (service, fn, set()))[2].add(eid)
    order, seen = [], set()
    for service, fn, local_ids in groups.values():
        guards = {el.id: el for eid in local_ids for el in guard_chain(service, eid)}
        candidates = [(c, "decorator") for c in scan_decorator_checks(service, fn.id)]
        candidates += [(g, "inline") for g in sorted(guards.values(), key=lambda e: e.sort_key)]
        for el, attachment in candidates:
            if el.id not in seen:
                seen.add(el.id)
                order.append((el.id, attachment))
    return order


@pytest.mark.parametrize("case", CORPUS_NAMES + ["fanout", "chain", "reentry"])
def test_one_walk_matches_the_old_walks(case, tmp_path):
    program = load_case(case, tmp_path)
    flows = all_flows(program)
    assert len(flows) == {"fanout": 256, "chain": 48, "reentry": 1}.get(case, len(flows))
    for flow in flows:
        groups = path_functions(program, flow)
        extracting = Recorder()
        extract_path_constraints(groups, extracting)
        assert extracting.tasks == [old_extract_task(program, flow)]
        locating = Recorder()
        locate_checks(groups, locating)
        classified = [(t.element, t.attachment) for t in locating.tasks if isinstance(t, ClassifyCheck)]
        assert classified == old_candidates(program, flow)


def test_reentered_function_is_one_group(tmp_path):
    program = load_case("reentry", tmp_path)
    [flow] = all_flows(program)
    assert [segment.service for segment in flow.flow_segments] == ["store", "relay", "store"]
    groups = path_functions(program, flow)
    assert [(service.name, fn.name, [g.source for g in guards]) for service, fn, guards in groups] == [
        ("store", "handle", ['v != ""', 'm != "stop"']),
        ("relay", "relay", ['r != "x"', 'r != "y"']),
    ]
    task = Recorder()
    extract_path_constraints(groups, task)
    assert [g.source for g in task.tasks[0].guards] == ['r != "x"', 'r != "y"', 'm != "stop"', 'v != ""']
    checks = Recorder()
    locate_checks(groups, checks)
    assert [t.source for t in checks.tasks] == ['m != "stop"', 'v != ""', 'r != "x"', 'r != "y"']


def test_guard_over_functionless_and_function_elements():
    """A guard whose block holds an element outside any function and one
    inside a function is listed in both groups and classified once, in the
    function's group."""
    guard = make_element("svc", ElementKind.CONDITIONAL, line=1, source="ok")
    loose = make_element("svc", ElementKind.VARIABLE, name="x", line=2)
    fn = make_element("svc", ElementKind.FUNCTION, name="f", line=3)
    inner = make_element("svc", ElementKind.VARIABLE, name="y", line=4)
    contains = [(guard, loose), (guard, fn), (fn, inner)]
    service = Service.build(
        "svc",
        [guard, loose, fn, inner],
        [Edge(EdgeKind.CONTAINS, a.id, b.id) for a, b in contains] + [Edge(EdgeKind.DATAFLOW, loose.id, inner.id)],
        entry=True,
    )
    manifest = Manifest(1, (ManifestService("svc", entry=True),), (GatewayRoute("/", "svc"),))
    program = Program((service,), manifest)
    flow = GlobalPath((FlowPath("svc", (loose.id, inner.id)),))
    groups = path_functions(program, flow)
    assert [(s.name, f.id if f else None, guards) for s, f, guards in groups] == [
        ("svc", None, (guard,)),
        ("svc", fn.id, (guard,)),
    ]
    recorder = Recorder()
    locate_checks(groups, recorder)
    assert [(t.element, t.attachment) for t in recorder.tasks] == [(guard.id, "inline")] == old_candidates(program, flow)


def test_fanout_findings_share_one_record_per_element(tmp_path):
    program = load_program(write_fanout_corpus(tmp_path))
    payload = scan(program, ScriptedOracle(), OPEN)
    findings = payload["findings"]
    assert len(findings) == 256
    entries = [entry for f in findings for entry in f["evidence"]]
    assert len(entries) == 10_240
    distinct = {id(entry): entry for entry in entries}
    assert len(distinct) == 94
    for entry in distinct.values():
        el = program.service(entry["service"]).element(entry["element"])
        assert entry == {
            "element": el.id,
            "service": el.service,
            "kind": el.kind.value,
            "name": el.name,
            "file": el.location.file,
            "line": el.location.line,
            "source": el.source,
        }
    steps = [s for f in findings for hop in f["path"]["hops"] if hop["type"] == "flow" for s in hop["steps"]]
    assert len({id(step) for step in steps}) == len({step["element"] for step in steps}) == 94
    ops = {id(op) for op in payload["privileged_operations"]}
    assert len(ops) == 2
    assert {id(f["privileged_operation"]) for f in findings} == ops
