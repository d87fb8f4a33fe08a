"""One walk per segment: a path class's check summary, merged from its
segments' ``crossflow.check_summary``, feeds both constraint extraction
and check localization, and the report shares one record per element.
The old per-consumer walks, and the per-element path walk
(``path_reference.per_element_groups``) that the class's summary stands
for, are written out here as the reference."""

import json
from pathlib import Path

import pytest

from privflow import crossflow, pipeline
from privflow.crossflow import GlobalPath, build_global_graph, match_channels, q_globalflow, q_user
from privflow.load import load_program
from privflow.model import (
    Edge,
    EdgeKind,
    ElementKind,
    GatewayRoute,
    Manifest,
    ManifestService,
    Program,
    Service,
    call_callee,
    element_order,
)
from privflow.pipeline import ScanBudget, Tracer, extract_path_constraints, find_privileged_ops, locate_checks, scan
from privflow.reasoner import ClassifyCheck, ScriptedOracle
from privflow import search
from privflow.search import FlowPath, identifiers, service_index

from path_reference import all_simple_paths, flow_segments, per_element_groups
from conftest import (
    CORPORA,
    bench_gen,
    flow_steps,
    make_element,
    scan_decorator_checks,
    scan_guard_var_types,
    write_fanout_corpus,
)

OPEN = ScanBudget(max_tool_calls_per_phase=10**9)
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
    """``bench/gen.py``'s 4x12 chain."""
    bench_gen().chain(1, 4, 12, root)
    return root


def load_case(name: str, root: Path) -> Program:
    writers = {
        "fanout": write_fanout_corpus,
        "fanout4x2": lambda root: write_fanout_corpus(root, 4, 2),
        "chain": write_chain_corpus,
        "reentry": write_reentry_corpus,
    }
    return load_program(writers[name](root) if name in writers else CORPORA / name)


def search_inputs(program: Program) -> tuple:
    """The user sources, the privileged operations and the global graph a
    scan searches."""
    oracle = ScriptedOracle()
    privops = find_privileged_ops(program, oracle, tracer=Tracer(OPEN))
    graph = build_global_graph(program, privops, match_channels(program))
    return q_user(program, oracle), privops, graph


def all_flows(program: Program) -> list[GlobalPath]:
    sources, privops, graph = search_inputs(program)
    return all_simple_paths(graph, sources, privops)


def summary_groups(program: Program, summary) -> list[tuple]:
    """The function groups validation reads from a check summary."""
    return [pipeline._function_group(program, entry) for entry in summary]


class Recorder:
    def __init__(self):
        self.inner = ScriptedOracle()
        self.tasks = []

    def reason(self, task):
        self.tasks.append(task)
        return self.inner.reason(task)


@pytest.mark.parametrize("case", CORPUS_NAMES + ["chain", "fanout", "fanout4x2", "reentry"])
def test_segment_groups_merge_to_the_per_element_walk(case, tmp_path):
    """For every class ``q_globalflow`` finds, the function groups
    validation builds from the class's check summary, its segments'
    ``check_summary`` merged, are the witness's per-element walk restricted
    to the check-relevant functions, guards in ``element_order``; and
    constraint extraction translates one and the same guard list, and
    check location asks and returns the same, on both. ``reentry`` meets
    one function in two segments with another service's segment
    between."""
    program = load_case(case, tmp_path)
    sources, privops, graph = search_inputs(program)
    classes = q_globalflow(program, graph, sources, privops)
    assert len(classes.paths) == {"chain": 48, "fanout": 256, "fanout4x2": 16, "reentry": 1}.get(case, len(classes.paths))
    assert len(classes.summaries) == len(classes.paths)
    for witness, summary in zip(classes.paths, classes.summaries):
        walked = per_element_groups(program, witness)
        groups = summary_groups(program, summary)
        assert groups == [
            (service, fn, tuple(sorted(guards, key=element_order)))
            for service, fn, guards in walked
            if (fn.id if fn else None) in service_index(service).check_relevant
        ]
        located = [locate_checks(g, ScriptedOracle()) for g in (groups, walked)]
        assert located[0] == located[1]
        translated = [], []
        for g, read in zip((groups, walked), translated):
            extract_path_constraints(g, read.append)
        assert translated[0] == translated[1]
        assert len(translated[0]) == 1


def test_scan_walks_each_segment_and_decides_each_constraint_once(tmp_path, monkeypatch):
    """256 fan-out flows visit 2,048 segments, 30 of them distinct, and
    share one constraint: a scan walks each distinct segment once and
    calls ``check_sat`` once."""
    walked, decided = [], []
    real_check_summary = crossflow.check_summary
    real_check_sat = pipeline.check_sat

    def counting_check_summary(program, segment):
        walked.append(segment)
        return real_check_summary(program, segment)

    def counting_check_sat(constraint):
        decided.append(constraint)
        return real_check_sat(constraint)

    monkeypatch.setattr(crossflow, "check_summary", counting_check_summary)
    monkeypatch.setattr(pipeline, "check_sat", counting_check_sat)
    program = load_program(write_fanout_corpus(tmp_path))
    payload = scan(program, ScriptedOracle(), OPEN)
    assert payload["funnel"]["findings"] == 256
    assert len(walked) == len(set(walked)) == 30
    assert len(decided) == 1


def old_guard_list(program: Program, path: GlobalPath) -> tuple[tuple[str, tuple], ...]:
    """The guard walk ``extract_path_constraints`` made of its own, as the
    ``(source, var_types)`` pairs it translates."""
    guards, seen = [], set()
    for segment in flow_segments(path):
        service = program.service(segment.service)
        if service is None:
            continue
        for eid in segment.elements:
            for guard in service_index(service).place(eid)[1]:
                if guard.id not in seen:
                    seen.add(guard.id)
                    guards.append((service, guard))
    guards.sort(key=lambda pair: (pair[1].location.file, pair[1].location.line, pair[1].location.col))
    return tuple((g.source, scan_guard_var_types(s, g.source)) for s, g in guards)


def old_candidates(program: Program, path: GlobalPath) -> list[tuple[str, str]]:
    """(element, attachment) of each check candidate, in the order the old
    per-function grouping and second guard walk classified them."""
    groups = {}
    for segment in flow_segments(path):
        service = program.service(segment.service)
        if service is None:
            continue
        for eid in segment.elements:
            fn = service_index(service).place(eid)[0]
            if fn is not None:
                groups.setdefault(fn.id, (service, fn, set()))[2].add(eid)
    order, seen = [], set()
    for service, fn, local_ids in groups.values():
        guards = {el.id: el for eid in local_ids for el in service_index(service).place(eid)[1]}
        candidates = [(c, "decorator") for c in scan_decorator_checks(service, fn.id)]
        candidates += [(g, "inline") for g in sorted(guards.values(), key=element_order)]
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
        groups = per_element_groups(program, flow)
        translated = []
        extract_path_constraints(groups, translated.append)
        assert translated == [old_guard_list(program, flow)]
        locating = Recorder()
        locate_checks(groups, locating)
        classified = [(t.element, t.attachment) for t in locating.tasks if isinstance(t, ClassifyCheck)]
        assert classified == old_candidates(program, flow)


def test_reentered_function_is_one_group(tmp_path):
    """The reentry path's class summary has one group for ``store.handle``,
    met in its first and last segments, which holds both its guards."""
    program = load_case("reentry", tmp_path)
    sources, privops, graph = search_inputs(program)
    classes = q_globalflow(program, graph, sources, privops)
    [flow], [summary] = classes.paths, classes.summaries
    assert [flow] == all_flows(program)
    assert [segment.service for segment in flow_segments(flow)] == ["store", "relay", "store"]
    groups = summary_groups(program, summary)
    assert [(service.name, fn.name, [g.source for g in guards]) for service, fn, guards in groups] == [
        ("store", "handle", ['m != "stop"', 'v != ""']),
        ("relay", "relay", ['r != "x"', 'r != "y"']),
    ]
    translated = []
    extract_path_constraints(groups, translated.append)
    assert [source for source, _ in translated[0]] == ['r != "x"', 'r != "y"', 'm != "stop"', 'v != ""']
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
    )
    manifest = Manifest(1, (ManifestService("svc", entry=True),), (GatewayRoute("/", "svc"),))
    program = Program((service,), manifest)
    segment = FlowPath("svc", (loose.id, inner.id))
    flow = GlobalPath((segment,))
    groups = summary_groups(program, crossflow.check_summary(program, segment))
    assert groups == per_element_groups(program, flow)
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
    # a fan-out finding names no check, so its elements are its flow steps
    steps = [eid for f in findings for eid in flow_steps(payload, f)]
    assert len(steps) == 10_240 and not any(f["checks"] for f in findings)
    elements = payload["elements"]
    assert set(steps) == set(elements) and len(elements) == 94
    for eid, entry in elements.items():
        el = program.service(entry["service"]).element(eid)
        assert entry == {
            "service": el.service,
            "kind": el.kind.value,
            "name": el.name or call_callee(el),
            "file": el.location.file,
            "line": el.location.line,
            "source": el.source,
        }
    ops = payload["privileged_operations"]
    assert len(ops) == 2
    assert all(f["privileged_operation"] in ops for f in findings)
    assert {f["privileged_operation"]["element"] for f in findings} == {op["element"] for op in ops}


def test_guard_types_computed_once_per_guard(tmp_path, monkeypatch):
    """256 flows meet the fan-out's 16 guards 2,048 times; each guard's
    identifiers are typed once."""
    texts = []

    def counting_identifiers(text):
        texts.append(text)
        return identifiers(text)

    monkeypatch.setattr(search, "identifiers", counting_identifiers)
    program = load_program(write_fanout_corpus(tmp_path))
    payload = scan(program, ScriptedOracle(), OPEN)
    assert len(payload["findings"]) == 256
    guards = [e for s in program.services for e in s.elements if e.kind is ElementKind.CONDITIONAL]
    assert len(guards) == 16
    assert sorted(texts) == sorted(g.source for g in guards)
    assert {eid for s in program.services for eid in search.service_index(s).guard_types} == {g.id for g in guards}
