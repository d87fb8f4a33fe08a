"""Path classes: a scan validates each class of flows (one sink, one
check-relevant summary per segment) once and replays the class's outcome
for its other flows. Each flow's outcome is checked here against the
validation functions run for that flow alone."""

import json
from pathlib import Path

import pytest

from privflow.constraints import Sat, Unsat, check_sat
from privflow.crossflow import build_global_graph, match_channels, path_functions, q_globalflow, q_user
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

from conftest import CORPORA, bench_gen, write_fanout_corpus

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


# case name -> (``bench/gen.py`` generator, its shape arguments)
GENERATED = {"chain4x12": ("chain", (4, 12)), "fanout8x2": ("fanout", (8, 2))}


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


def all_flows(program: Program, privops) -> list:
    oracle = ScriptedOracle()
    graph = build_global_graph(program, privops, match_channels(program))
    return q_globalflow(graph, q_user(program, oracle), privops).paths


def reference_outcome(program: Program, flow, privop, max_hops: int) -> tuple:
    """The flow's funnel exit computed for it alone: ("pruned",),
    ("protected",) or ("finding", verdict, checks, constraint status)."""
    oracle = ScriptedOracle()
    groups = path_functions(program, flow)
    constraint = extract_path_constraints(groups, oracle)
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
    program = load_case(case, tmp_path)
    payload = scan(program, ScriptedOracle(), OPEN, ScanOptions(on_demand_context=on_demand_context))
    assert not payload["budget"]["exhausted"]
    privops = find_privileged_ops(program, ScriptedOracle(), tracer=Tracer(OPEN))
    ops = {op.element: op for op in privops}
    flows = all_flows(program, privops)
    assert len(flows) == {"chain4x12": 48, "fanout8x2": 256, "guarded_fanout": 256, "two_meetings": 2}.get(case, len(flows))
    max_hops = 4 if on_demand_context else 1
    expected = {flow.id: reference_outcome(program, flow, ops[flow.sink], max_hops) for flow in flows}
    assert report_outcomes(payload) == expected


def test_two_meetings_flows_are_two_classes(tmp_path):
    """The two flows differ only in /start's unguarded first meeting with
    tidy, which puts tidy's check before relay's. A class key that dropped
    that meeting would give both flows one check order."""
    program = load_case("two_meetings", tmp_path)
    payload = scan(program, ScriptedOracle(), OPEN)
    orders = {
        f["path"]["hops"][0]["steps"][0]["name"]: [c["service"] for c in f["checks"]] for f in payload["findings"]
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
