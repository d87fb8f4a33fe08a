"""Path classes: a scan validates each class of flows (one sink, one
check summary) once, through its witness. Each flow's outcome, found by
the reference enumeration of every simple path, is checked here against
the validation functions run for that flow alone."""

import json
from pathlib import Path

import pytest

from privflow.constraints import Sat, Unsat, check_sat
from privflow.crossflow import build_global_graph, match_channels, q_globalflow, q_user
from privflow.load import load_program
from privflow.model import Program, Service
from privflow.pipeline import (
    ScanBudget,
    ScanOptions,
    Tracer,
    assess_flow,
    extract_path_constraints,
    find_privileged_ops,
    locate_checks,
    scan,
)
from privflow.reasoner import ScriptedOracle

from path_reference import all_simple_paths, per_element_groups, reference_classes
from conftest import CORPORA, bench_gen, path_hops, write_fanout_corpus

OPEN = ScanBudget(max_tool_calls_per_phase=10**9)
CORPUS_NAMES = sorted(p.name for p in CORPORA.iterdir() if p.is_dir())

# One path meets store.tidy twice: first outside its guard (the outbound
# call), then, after relay's guarded function, inside it (the consumer).
# The flow from /alt meets tidy only the second time. Both flows reach the
# one exec, and their checks come in opposite orders.
TWO_MEETINGS = {
    "store.msv": (
        "fn tidy(s) {\n"
        '  http_post("http://relay:8080/relay", s)\n'
        "  if has_session(s) {\n"
        '    m = consume("back")\n'
        "    exec(m)\n"
        "  }\n"
        "}\n"
        "\n"
        '@route("POST", "/start")\n'
        "fn start() {\n"
        '  v = request.param("v")\n'
        "  tidy(v)\n"
        "}\n"
        "\n"
        '@route("POST", "/alt")\n'
        "fn alt() {\n"
        '  v = request.param("v")\n'
        '  http_post("http://relay:8080/relay", v)\n'
        "}\n"
    ),
    "relay.msv": (
        '@route("POST", "/relay")\n'
        "fn relay() {\n"
        '  r = request.param("r")\n'
        "  if login_ok(r) {\n"
        '    publish("back", r)\n'
        "  }\n"
        "}\n"
    ),
}


def write_two_meetings_corpus(root: Path) -> Path:
    for name, text in TWO_MEETINGS.items():
        (root / name).write_text(text, encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [
            {"name": "store", "entry": True, "base_url": "http://store:8080", "sources": ["store.msv"]},
            {"name": "relay", "base_url": "http://relay:8080", "sources": ["relay.msv"]},
        ],
        "gateway_routes": [{"prefix": "/", "target": "store"}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


# /ping runs exec and posts its input to /pong, whose session-guarded block
# posts it back to /ping: the global graph has a cycle through both
# services, and only /ping is a user source.
PING_PONG = {
    "a.msv": (
        '@route("POST", "/ping")\n'
        "fn ping() {\n"
        '  v = request.param("v")\n'
        '  http_post("http://b:8080/pong", v)\n'
        "  exec(v)\n"
        "}\n"
    ),
    "b.msv": (
        '@route("POST", "/pong")\n'
        "fn pong() {\n"
        '  w = request.param("w")\n'
        "  if has_session(w) {\n"
        '    http_post("http://a:8080/ping", w)\n'
        "  }\n"
        "}\n"
    ),
}


def write_ping_pong_corpus(root: Path) -> Path:
    for name, text in PING_PONG.items():
        (root / name).write_text(text, encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [
            {"name": "a", "entry": True, "base_url": "http://a:8080", "sources": ["a.msv"]},
            {"name": "b", "base_url": "http://b:8080", "sources": ["b.msv"]},
        ],
        "gateway_routes": [{"prefix": "/", "target": "a"}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


# case name -> (``bench/gen.py`` generator, its shape arguments)
GENERATED = {"chain4x12": ("chain", (4, 12)), "fanout8x2": ("fanout", (8, 2)), "fanout7x3": ("fanout", (7, 3))}


def load_case(name: str, root: Path) -> Program:
    """A labelled corpus, a ``GENERATED`` corpus with seed 1, ``conftest``'s
    guarded fan-out 8x2 or ``TWO_MEETINGS``."""
    if name in GENERATED:
        generator, shape = GENERATED[name]
        getattr(bench_gen(), generator)(1, *shape, root)
    elif name == "guarded_fanout":
        write_fanout_corpus(root)
    elif name == "two_meetings":
        write_two_meetings_corpus(root)
    else:
        root = CORPORA / name
    return load_program(root)


def search_inputs(program: Program, privops) -> tuple:
    """The global graph and the user sources a scan searches."""
    oracle = ScriptedOracle()
    return build_global_graph(program, privops, match_channels(program)), q_user(program, oracle)


def reference_outcome(program: Program, flow, privop, max_hops: int) -> tuple:
    """The flow's funnel exit computed for it alone: ("pruned",),
    ("protected",) or ("finding", verdict, checks, constraint status)."""
    oracle = ScriptedOracle()
    groups = per_element_groups(program, flow)
    constraint = extract_path_constraints(groups)
    status = "skipped"
    if constraint is not None:
        verdict = check_sat(constraint)
        if isinstance(verdict, Unsat):
            return ("pruned",)
        status = "sat" if isinstance(verdict, Sat) else "unknown"
    checks, contexts, _ = locate_checks(groups, oracle, max_hops=max_hops)
    sufficiency = assess_flow(program, privop, checks, contexts, oracle)
    if sufficiency.verdict == "protected":
        return ("protected",)
    listed = [(c.element, c.service, c.classification, c.attachment, c.rationale) for c in checks]
    return ("finding", sufficiency.verdict, sufficiency.rationale, listed, status)


def report_outcomes(payload: dict) -> dict[str, tuple]:
    outcomes = {fid: ("pruned",) for fid in payload["pruned_flows"]}
    outcomes.update((fid, ("protected",)) for fid in payload["protected_flows"])
    for f in payload["findings"]:
        listed = [(c["element"], c["service"], c["classification"], c["attachment"], c["rationale"]) for c in f["checks"]]
        outcomes[f["id"]] = ("finding", f["verdict"], f["rationale"], listed, f["constraint"]["status"])
    return outcomes


@pytest.mark.parametrize("on_demand_context", [True, False])
@pytest.mark.parametrize("case", CORPUS_NAMES + [*GENERATED, "guarded_fanout", "two_meetings"])
def test_each_flow_gets_its_own_outcome(case, on_demand_context, tmp_path):
    """Every simple path's own outcome is its class's, each class's
    ``witness_count`` is its number of paths, and its witness is its first
    path in the reference order."""
    program = load_case(case, tmp_path)
    payload = scan(program, ScriptedOracle(), OPEN, ScanOptions(on_demand_context=on_demand_context))
    assert not payload["budget"]["exhausted"]
    privops = find_privileged_ops(program, ScriptedOracle(), tracer=Tracer(OPEN))
    ops = {op.element: op for op in privops}
    graph, sources = search_inputs(program, privops)
    flows = all_simple_paths(graph, sources, privops)
    sizes = {"chain4x12": 48, "fanout8x2": 256, "fanout7x3": 2187, "guarded_fanout": 256, "two_meetings": 2}
    assert len(flows) == sizes.get(case, len(flows))
    classes = reference_classes(program, flows)
    result = q_globalflow(program, graph, sources, privops)
    assert result.paths == [members[0] for members in classes.values()]
    assert result.counts == [len(members) for members in classes.values()]
    assert payload["funnel"]["initial_flows"] == len(classes)

    max_hops = 4 if on_demand_context else 1
    outcomes = report_outcomes(payload)
    assert set(outcomes) == {members[0].id for members in classes.values()}
    counts = {f["id"]: f["witness_count"] for f in payload["findings"]}
    for members in classes.values():
        witness = members[0]
        assert counts.get(witness.id, len(members)) == len(members)
        for flow in members:
            assert reference_outcome(program, flow, ops[flow.sink], max_hops) == outcomes[witness.id]


def test_two_meetings_flows_are_two_classes(tmp_path):
    """The two flows differ only in /start's unguarded first meeting with
    tidy, which puts tidy's check before relay's. A class key that dropped
    that meeting would give both flows one check order."""
    program = load_case("two_meetings", tmp_path)
    payload = scan(program, ScriptedOracle(), OPEN)
    orders = {
        payload["elements"][path_hops(payload, f)[0]["steps"][0]]["name"]: [c["service"] for c in f["checks"]]
        for f in payload["findings"]
    }
    assert orders == {"/start": ["store", "relay"], "/alt": ["relay", "store"]}


@pytest.mark.parametrize("case", CORPUS_NAMES + [*GENERATED])
def test_scan_never_hashes_or_compares_a_service(case, tmp_path, monkeypatch):
    """A Service's hash and equality walk all of its elements,
    so no scan table is keyed by one."""
    program = load_case(case, tmp_path)
    used = []

    def fail(name):
        def method(self, *args):
            used.append(name)
            raise AssertionError(f"Service.{name} called during a scan")

        return method

    monkeypatch.setattr(Service, "__hash__", fail("__hash__"))
    monkeypatch.setattr(Service, "__eq__", fail("__eq__"))
    payload = scan(program, ScriptedOracle(), OPEN)
    monkeypatch.undo()
    assert used == []
    assert not payload["budget"]["exhausted"]


def test_a_cyclic_graph_has_a_class_per_summary_around_the_cycle(tmp_path):
    """On a cyclic graph the scan ends with one class per check summary
    that reaches the sink. The direct flow /ping -> exec is one class. The
    flow that goes round the cycle once comes back to /ping with pong's
    guard in its summary, a second class, whose witness visits /ping
    twice. Going round again adds nothing to the summary, so it reaches a
    state on the search's own path and is not counted: each class counts
    one flow."""
    program = load_program(write_ping_pong_corpus(tmp_path))
    privops = find_privileged_ops(program, ScriptedOracle(), tracer=Tracer(OPEN))
    graph, sources = search_inputs(program, privops)
    result = q_globalflow(program, graph, sources, privops)
    assert [len(witness.flow_segments) for witness in result.paths] == [3, 1]
    assert result.counts == [1, 1] and not result.truncated
    around = result.paths[0]
    assert around.node_ids.count(around.source) == 2
    assert all_simple_paths(graph, sources, privops) == [result.paths[1]]

    payload = scan(program, ScriptedOracle(), OPEN)
    findings = [
        (f["verdict"], f["witness_count"], [hop.get("service", "=>") for hop in path_hops(payload, f)], f["id"])
        for f in payload["findings"]
    ]
    assert sorted(findings) == [
        ("missing_authz", 1, ["a", "=>", "b", "=>", "a"], around.id),
        ("unprotected", 1, ["a"], result.paths[1].id),
    ]
    assert payload["funnel"]["initial_flows"] == 2 and not payload["flows_truncated_at_cap"]


def test_a_capped_search_counts_the_flows_it_explored(tmp_path):
    """Fan-out 8x2 has 2 classes of 128 flows each. Capped at 1 class, the
    search stops when it reaches the second sink, after one flow of the
    first class."""
    program = load_case("fanout8x2", tmp_path)
    privops = find_privileged_ops(program, ScriptedOracle(), tracer=Tracer(OPEN))
    graph, sources = search_inputs(program, privops)
    full = q_globalflow(program, graph, sources, privops)
    assert full.counts == [128, 128] and not full.truncated
    capped = q_globalflow(program, graph, sources, privops, cap=1)
    assert capped.paths == full.paths[:1]
    assert capped.counts == [1] and capped.truncated


def test_generated_fanout_8x3_scans_to_three_classes(tmp_path):
    """``bench/gen.py``'s fan-out 8x3 has 6,561 flows to 3 ``exec`` sinks,
    one class per sink."""
    bench_gen().fanout(1, 8, 3, tmp_path)
    payload = scan(load_program(tmp_path), ScriptedOracle(), OPEN)
    counts = [f["witness_count"] for f in payload["findings"]]
    assert len(counts) == 3 and sum(counts) == 3**8
    assert payload["funnel"]["initial_flows"] == 3
