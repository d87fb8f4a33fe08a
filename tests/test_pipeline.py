import collections
import hashlib
import itertools
import json
import math
import re
from types import SimpleNamespace

import pytest

from privflow.crossflow import (
    PATH_CAP,
    GlobalPath,
    build_global_graph,
    match_channels,
    q_globalflow,
    q_inter,
    q_source,
    q_user,
)
from privflow import pipeline
from privflow.load import load_program
from privflow.model import Edge, EdgeKind, ElementKind, GatewayRoute, Manifest, ManifestService, Program, Service, call_callee
from privflow.reasoner import (
    PRIVILEGED_CATEGORIES,
    Action,
    CheckClass,
    ClassifyPrivileged,
    NextSearchAction,
    PrivilegedClass,
    ScriptedOracle,
    task_digest,
)
from privflow.remote import RemoteConfig, RemoteReasoner
from privflow.pipeline import (
    BudgetExhausted,
    ProgramInvalid,
    ScanBudget,
    ScanOptions,
    Tracer,
    assess_flow,
    find_privileged_ops,
    locate_checks,
    scan,
)
from privflow.search import FlowPath, call_sites_of, get_source, q_ast, q_cg, q_flow, q_name

from conftest import CORPORA, bench_gen, flow_steps, make_element, path_hops, write_fanout_corpus
from path_reference import per_element_groups
from privops_reference import ask_every_candidate


class CountingOracle(ScriptedOracle):
    """The scripted oracle, keeping the tasks it is asked and counting them
    by task name."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()
        self.tasks = []

    def reason(self, task):
        self.calls[type(task).__name__] += 1
        self.tasks.append(task)
        return super().reason(task)


def _service_corpus(root, source: str):
    """A one-service corpus under ``root``: service ``ops``, routed at
    ``/``, whose one file holds ``source``."""
    manifest = {
        "version": 1,
        "services": [{"name": "ops", "entry": True, "sources": ["ops.msv"]}],
        "gateway_routes": [{"prefix": "/", "target": "ops"}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (root / "ops.msv").write_text(source, encoding="utf-8")
    return load_program(root)


def _ops_corpus(root, body: str, params: str = ""):
    """A one-service corpus (``_service_corpus``) whose handler ``run(params)``
    of ``POST /run`` holds ``body``."""
    return _service_corpus(root, f'@route("POST", "/run")\nfn run({params}) {{\n  {body}\n}}\n')


def first_flow(program, oracle, basic_sink=False):
    privops = find_privileged_ops(program, oracle, basic_sink=basic_sink)
    graph = build_global_graph(program, privops, match_channels(program))
    flows = q_globalflow(program, graph, q_user(program, oracle), privops).paths
    return privops, flows


OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)


def _malformed_queries(service: str) -> tuple[Action, ...]:
    """An invalid regex, an unknown name mode, an unknown service, an empty
    pattern and an off-vocabulary tool."""
    return tuple(
        Action(tool, args, "malformed query")
        for tool, args in (
            ("q_name", {"service": service, "pattern": "(", "mode": "regex"}),
            ("q_name", {"service": service, "pattern": "update", "mode": "glob"}),
            ("q_name", {"service": "ghost", "pattern": "update", "mode": "regex"}),
            ("q_name", {"service": service, "pattern": "", "mode": "regex"}),
            ("teleport", {}),
        )
    )


def _assert_steps_burnt(payload, expected):
    """``payload`` has ``expected``'s findings and budget: a malformed query
    runs no tool, so it leaves no record and asks the backend nothing."""
    assert payload["findings"] == expected["findings"] != []
    assert payload["budget"] == expected["budget"]


class RemotePlanner(ScriptedOracle):
    """Plans each round through a ``RemoteReasoner`` whose backend always
    sends ``reply``; the scripted oracle answers every other task."""

    def __init__(self, reply: str):
        super().__init__()
        self.rounds = []
        completion = {"choices": [{"message": {"content": reply}}]}
        self.planner = RemoteReasoner(
            RemoteConfig("http://fake/v1/chat/completions", "m"),
            transport=lambda url, headers, payload, timeout: (200, completion),
        )

    def reason(self, task):
        if isinstance(task, NextSearchAction):
            self.rounds.append(task.round)
            return self.planner.reason(task)
        return super().reason(task)


class SeededClassifier(ScriptedOracle):
    """Keeps every task it is asked. With a ``seed`` it answers
    ``ClassifyPrivileged`` from a hash of the task and the seed, one of the
    categories or None; it plans, and without a seed classifies, as the
    scripted oracle does."""

    def __init__(self, seed=None):
        super().__init__()
        self.seed = seed
        self.tasks = []

    def reason(self, task):
        self.tasks.append(task)
        if isinstance(task, ClassifyPrivileged) and self.seed is not None:
            choices = PRIVILEGED_CATEGORIES + (None,)
            draw = hashlib.sha256(f"{self.seed}:{task_digest(task)}".encode()).digest()[0]
            return PrivilegedClass(choices[draw % len(choices)], f"seed {self.seed}")
        return super().reason(task)

    def of_kind(self, kind) -> list:
        return [task for task in self.tasks if isinstance(task, kind)]


PRIVOPS_PROGRAMS = sorted(p.name for p in CORPORA.iterdir() if p.is_dir()) + ["gen-chain4x12", "gen-fanout8x2"]


def _privops_program(name: str, tmp_path) -> Program:
    if name == "gen-chain4x12":
        bench_gen().chain(1, 4, 12, tmp_path)
    elif name == "gen-fanout8x2":
        bench_gen().fanout(1, 8, 2, tmp_path)
    else:
        return load_program(CORPORA / name)
    return load_program(tmp_path)


class TestFindPrivilegedOps:
    def test_role_update_discovers_update_role(self, role_update_program, oracle):
        ops = find_privileged_ops(role_update_program, oracle)
        assert len(ops) == 1
        op = ops[0]
        assert op.category == "protected-state"
        placed = role_update_program.find_element(op.element)
        assert call_callee(placed[1]) == "update_role"

    @pytest.mark.parametrize("name", PRIVOPS_PROGRAMS)
    def test_same_operations_as_asking_every_candidate(self, name, tmp_path):
        """Asking only about a function with a call site that is not yet an
        operation finds the operations, and plans the rounds, that asking
        about every candidate does: under the scripted oracle and under
        backends that classify at random. Each candidate it leaves out has
        no call site outside the operations found."""
        program = _privops_program(name, tmp_path)
        for seed in (None, 1, 2, 3, 4, 5):
            asked, every = SeededClassifier(seed), SeededClassifier(seed)
            ops = find_privileged_ops(program, asked, tracer=Tracer(OPEN_BUDGET))
            assert ops == ask_every_candidate(program, every), seed
            assert asked.of_kind(NextSearchAction) == every.of_kind(NextSearchAction), seed
            classified = asked.of_kind(ClassifyPrivileged)
            assert set(classified) <= set(every.of_kind(ClassifyPrivileged)), seed
            for task in classified:
                assert call_sites_of(program.find_element(task.element)[0], task.element), (seed, task.name)
            op_ids = {op.element for op in ops}
            for task in set(every.of_kind(ClassifyPrivileged)) - set(classified):
                sites = call_sites_of(program.find_element(task.element)[0], task.element)
                assert {site.id for site in sites} <= op_ids, (seed, task.name)

    def test_baseline_sinks_always_included(self, order_payment_program, oracle):
        ops = find_privileged_ops(order_payment_program, oracle)
        callees = {call_callee(order_payment_program.find_element(op.element)[1]) for op in ops}
        assert "db.write" in callees

    def test_basic_sink_mode_stops_at_baseline(self, role_update_program, oracle):
        assert find_privileged_ops(role_update_program, oracle, basic_sink=True) == []

    def test_logging_corpus_has_no_ops(self, oracle):
        program = load_program(CORPORA / "logging_only")
        assert find_privileged_ops(program, oracle) == []

    def test_dedup_by_element(self, role_update_program, oracle):
        ops = find_privileged_ops(role_update_program, oracle)
        assert len({op.element for op in ops}) == len(ops)

    def test_malformed_proposals_do_not_derail_the_scan(self, role_update_program, oracle):
        """An invalid regex, an unknown name mode, an unknown service, an
        empty pattern or an off-vocabulary tool burns one step of the
        round's plan; the scan goes on to the same findings."""

        class Malformed(ScriptedOracle):
            def reason(self, task):
                verdict = super().reason(task)
                if isinstance(task, NextSearchAction) and task.round == 1:
                    return _malformed_queries(task.services[0]) + verdict
                return verdict

        stub = Malformed()
        assert find_privileged_ops(role_update_program, stub) == find_privileged_ops(role_update_program, oracle)
        expected = scan(role_update_program, oracle, OPEN_BUDGET)
        _assert_steps_burnt(scan(role_update_program, stub, OPEN_BUDGET), expected)

    def test_malformed_remote_proposals_do_not_derail_the_scan(self, role_update_program, oracle):
        """The same plan as a remote reply in both rounds: each entry
        parses, a malformed one burns its step, and the scan reaches the
        scripted findings."""
        services = tuple(sorted(s.name for s in role_update_program.services))
        plan = _malformed_queries(services[0]) + oracle.reason(NextSearchAction(1, services, (), (), ("q_name",)))
        reply = json.dumps({"queries": [{"tool": a.tool, "args": a.args} for a in plan], "rationale": "fabricated"})
        backend = RemotePlanner(reply)
        expected = scan(role_update_program, oracle, OPEN_BUDGET)
        _assert_steps_burnt(scan(role_update_program, backend, OPEN_BUDGET), expected)
        assert backend.rounds == [1, 2]

    @pytest.mark.parametrize("budget", [ScanBudget(), OPEN_BUDGET], ids=["default_budget", "open_budget"])
    def test_a_backend_that_never_finishes_stops_the_round_after(self, role_update_program, oracle, budget):
        """A backend that answers every round with the same non-empty plan
        cannot keep the search going: round 1 finds ``update_role``, round
        2 adds nothing, and the search ends there, within the budget."""
        query = {"tool": "q_name", "args": {"service": "usermgmt", "pattern": "update_role"}}
        backend = RemotePlanner(json.dumps({"queries": [query], "rationale": "search again"}))
        payload = scan(role_update_program, backend, budget)
        assert backend.rounds == [1, 2]
        assert not payload["budget"]["exhausted"]
        assert payload["findings"] == scan(role_update_program, oracle, budget)["findings"] != []

    def test_budget_exhaustion_carries_partial(self, role_update_program, oracle):
        """The tracer meters a bare backend's tasks: the fourth backend call
        exhausts a budget of three, and the raised ``BudgetExhausted``
        carries the operations found before it."""
        tiny = Tracer(ScanBudget(max_tool_calls_per_phase=3), keep=True)
        with pytest.raises(BudgetExhausted) as err:
            find_privileged_ops(role_update_program, oracle, tracer=tiny)
        assert err.value.partial == find_privileged_ops(role_update_program, oracle)
        assert tiny.reasoner_calls == {"privileged_ops": 4}
        assert tiny.calls[-1][1] == "reason"


class TestLocateChecks:
    def test_role_update_decorator_chain(self, role_update_program, oracle):
        _, flows = first_flow(role_update_program, oracle)
        checks, contexts, context_ids = locate_checks(per_element_groups(role_update_program, flows[0]), oracle)
        by_class = {(c.name, c.classification) for c in checks}
        assert ("authn_session", "authn") in by_class
        assert ("authz", "authz") in by_class
        assert all(c.attachment == "decorator" for c in checks)
        # on-demand retrieval followed the helper chain
        assert any("can_switch_roles" in ctx for ctx in contexts)

    def test_order_payment_inline_ownership(self, order_payment_program, oracle):
        _, flows = first_flow(order_payment_program, oracle)
        inline = []
        for flow in flows:
            checks, _, _ = locate_checks(per_element_groups(order_payment_program, flow), oracle)
            inline += [
                c for c in checks if c.attachment == "inline" and c.authz_subtype == "ownership"
            ]
        assert inline, "ownership conditional should be discovered on the cancel path"

    def test_plain_handler_has_no_checks(self, oracle):
        program = load_program(CORPORA / "exec_open")
        _, flows = first_flow(program, oracle)
        checks, _, _ = locate_checks(per_element_groups(program, flows[0]), oracle)
        assert checks == []

    def test_check_finding_invariants(self):
        """A CheckFinding takes its classification and subtype from a
        CheckClass verdict, which rejects an authz check without a subtype,
        a subtype on any other check, and values outside its vocabulary."""
        bad = [("authn", "role"), ("none", "ownership"), ("authz", "none"), ("authz", "bogus"), ("admin", "none")]
        for classification, subtype in bad:
            with pytest.raises(ValueError):
                CheckClass(classification, subtype, "r")

    def test_check_on_two_functions_of_a_path_is_classified_once(self, tmp_path):
        """A check that decorates two functions of one path is one
        candidate: it is fetched and classified in the first function's
        group only."""
        program = _service_corpus(
            tmp_path,
            'fn has_session() {\n  return session.get("token") != ""\n}\n\n'
            "@auth(has_session)\nfn stage(x) {\n  exec(x)\n}\n\n"
            '@route("POST", "/run")\n@auth(has_session)\nfn run() {\n  stage(request.param("x"))\n}\n',
        )
        _, [flow] = first_flow(program, ScriptedOracle())
        groups = per_element_groups(program, flow)
        assert [fn.name for _, fn, _ in groups] == ["run", "stage"]
        oracle, calls = CountingOracle(), []
        checks, _, context_ids = locate_checks(groups, oracle, lambda tool, args, count: calls.append(tool))
        assert [(c.name, c.attachment) for c in checks] == [("has_session", "decorator")]
        assert oracle.calls == {"ClassifyCheck": 1}
        assert calls.count("get_source") == 1 and len(context_ids) == 1

    def test_a_scan_builds_each_check_candidate_once(self, tmp_path):
        """Two path classes, one per sink, pass one decorator check with a
        helper. The first class records the calls that locate the check, as
        ``locate_checks`` records them without the scan's cache: its
        source, one ``q_cg`` walk and its helper's source, then its one
        ``ClassifyCheck``. The second class records nothing before its
        ``AssessSufficiency`` lookup."""
        program = _service_corpus(
            tmp_path,
            'fn token_of(u) {\n  return session.get("token")\n}\n\n'
            'fn has_session(u) {\n  t = token_of(u)\n  return t != ""\n}\n\n'
            "@auth(has_session)\nfn run(cmd) {\n  exec(cmd)\n  db.write(cmd)\n}\n\n"
            '@route("POST", "/a")\nfn a() {\n  run(request.param("cmd"))\n}\n',
        )
        trace = tmp_path / "trace.jsonl"
        payload = scan(program, ScriptedOracle(), OPEN_BUDGET, ScanOptions(trace_path=str(trace)))
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        # each class's records end at its AssessSufficiency lookup
        located: list[list] = [[]]
        for r in records:
            if r["phase"] != "validation":
                continue
            if r["args"].get("task") == "AssessSufficiency":
                located.append([])
            else:
                located[-1].append((r["tool"], r["args"].get("task", r["args"])))
        located.pop()

        privops, _ = first_flow(program, ScriptedOracle())
        graph = build_global_graph(program, privops, match_channels(program))
        witnesses = q_globalflow(program, graph, q_user(program, ScriptedOracle()), privops).paths
        assert len(witnesses) == len(payload["findings"]) == len(located) == 2
        calls = []
        locate_checks(per_element_groups(program, witnesses[0]), ScriptedOracle(), lambda *call: calls.append(call[:2]))
        assert [tool for tool, _ in calls] == ["get_source", "q_cg", "get_source"]
        assert calls[1][1]["depth"] == 3
        assert located == [[*calls, ("reason", "ClassifyCheck")], []]

    def test_guard_over_two_functions_is_classified_once(self):
        """A conditional whose block holds two functions of the path (a
        facts file can write one) is in both functions' groups and is
        classified once."""
        guard = make_element("svc", ElementKind.CONDITIONAL, line=1, source="admin")
        f = make_element("svc", ElementKind.FUNCTION, name="f", line=2)
        x = make_element("svc", ElementKind.VARIABLE, name="x", line=3)
        g = make_element("svc", ElementKind.FUNCTION, name="g", line=4)
        y = make_element("svc", ElementKind.VARIABLE, name="y", line=5)
        contains = [(guard, f), (guard, g), (f, x), (g, y)]
        edges = [Edge(EdgeKind.CONTAINS, a.id, b.id) for a, b in contains] + [Edge(EdgeKind.DATAFLOW, x.id, y.id)]
        service = Service.build("svc", [guard, f, x, g, y], edges)
        program = Program((service,), Manifest(1, (ManifestService("svc", entry=True),), (GatewayRoute("/", "svc"),)))
        groups = per_element_groups(program, GlobalPath((FlowPath("svc", (x.id, y.id)),)))
        assert [(fn.name, guards) for _, fn, guards in groups] == [("f", (guard,)), ("g", (guard,))]
        oracle = CountingOracle()
        _, _, context_ids = locate_checks(groups, oracle)
        assert [(task.element, task.attachment) for task in oracle.tasks] == [(guard.id, "inline")]
        assert context_ids == {guard.id}

    def test_helper_reached_twice_is_one_context(self, tmp_path):
        """A check whose helpers form a diamond (``check`` calls ``left``
        and ``right``, both call ``token``) retrieves the shared helper's
        source once."""
        program = _service_corpus(
            tmp_path,
            'fn token() {\n  return session.get("token")\n}\n\n'
            "fn left() {\n  return token()\n}\n\n"
            "fn right() {\n  return token()\n}\n\n"
            'fn check() {\n  return left() == right()\n}\n\n'
            '@route("POST", "/run")\n@auth(check)\nfn run() {\n  exec(request.param("x"))\n}\n',
        )
        _, [flow] = first_flow(program, ScriptedOracle())
        oracle = CountingOracle()
        _, contexts, context_ids = locate_checks(per_element_groups(program, flow), oracle)
        names = [re.match(r"fn (\w+)", source).group(1) for source in contexts]
        assert sorted(names) == ["left", "right", "token"]
        assert len(context_ids) == 4
        [task] = oracle.tasks
        assert task.context == tuple(contexts)


class TestAssessFlow:
    def test_role_update_insufficient(self, role_update_program, oracle):
        privops, flows = first_flow(role_update_program, oracle)
        checks, contexts, _ = locate_checks(per_element_groups(role_update_program, flows[0]), oracle)
        verdict = assess_flow(role_update_program, privops[0], checks, contexts, oracle)
        assert verdict.verdict == "insufficient_authz"

    def test_patched_protected(self, oracle):
        program = load_program(CORPORA / "role_update_patched")
        privops, flows = first_flow(program, oracle)
        checks, contexts, _ = locate_checks(per_element_groups(program, flows[0]), oracle)
        verdict = assess_flow(program, privops[0], checks, contexts, oracle)
        assert verdict.verdict == "protected"


class TestScan:
    def test_role_update_single_finding(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle)
        assert payload["funnel"] == {
            "initial_flows": 1,
            "constraint_pruned": 0,
            "protected_dropped": 0,
            "budget_truncated": 0,
            "findings": 1,
        }
        [finding] = payload["findings"]
        assert finding["verdict"] == "insufficient_authz"

    def test_patched_drops_protected(self, oracle):
        program = load_program(CORPORA / "role_update_patched")
        payload = scan(program, oracle)
        assert payload["findings"] == []
        assert payload["funnel"]["protected_dropped"] == 1

    def test_check_in_another_service_is_assessed(self, oracle, tmp_path):
        """role_update_patched with its authz check moved to the entry
        service: the check is assessed with its own source, which reads the
        role argument, so the flow is protected."""
        (tmp_path / "privflow.manifest.json").write_text(
            (CORPORA / "role_update_patched" / "privflow.manifest.json").read_text()
        )
        (tmp_path / "usermgmt.msv").write_text(
            '@route("POST", "/setUserRole")\n'
            "fn set_user_role() {\n"
            '  username = request.param("username")\n'
            '  role = request.param("role")\n'
            "  update_role(username, role)\n"
            "}\n\n"
            "fn update_role(u, r) {\n"
            "  userstore.save(u, r)\n"
            "}\n"
        )
        (tmp_path / "userprofile.msv").write_text(
            'const BASE = "http://localhost:5000"\n\n'
            '@route("POST", "/updateProfile")\n'
            "@auth(authn_session)\n"
            "@auth(authz)\n"
            "fn update_profile() {\n"
            '  username = session.get("username")\n'
            '  role = request.param("role")\n'
            '  body = "username=" + username + "&role=" + role\n'
            '  http_post(BASE + "/setUserRole", body)\n'
            "}\n\n"
            "fn authn_session() {\n"
            '  ok = session.get("token")\n'
            "  return ok\n"
            "}\n\n"
            "fn authz() {\n"
            '  token = session.get("token")\n'
            '  role = request.param("role")\n'
            "  allowed = can_assume_role(token, role)\n"
            "  return allowed\n"
            "}\n"
        )
        program = load_program(tmp_path)
        privops, [flow] = first_flow(program, oracle)
        checks, _, _ = locate_checks(per_element_groups(program, flow), oracle)
        assert {(c.name, c.service) for c in checks if c.classification == "authz"} == {("authz", "userprofile")}
        payload = scan(program, oracle)
        assert payload["findings"] == []
        assert payload["funnel"]["protected_dropped"] == 1

    def test_funnel_conservation_everywhere(self, oracle, bench_spec):
        for entry in bench_spec["corpora"]:
            payload = scan(load_program(CORPORA / entry["path"]), oracle)
            funnel = payload["funnel"]
            assert funnel["initial_flows"] == (
                funnel["constraint_pruned"]
                + funnel["protected_dropped"]
                + funnel["budget_truncated"]
                + funnel["findings"]
            ), entry["path"]

    def test_scan_is_deterministic(self, role_update_program, oracle):
        assert scan(role_update_program, oracle) == scan(role_update_program, oracle)

    def test_evidence_is_verbatim_source(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle)
        for finding in payload["findings"]:
            for eid in flow_steps(payload, finding) + [check["element"] for check in finding["checks"]]:
                snippet = payload["elements"][eid]
                service = role_update_program.service(snippet["service"])
                element = service.element(eid)
                assert element is not None
                assert snippet["source"] == element.source

    def test_no_odctx_context_strict_subset(self, role_update_program, oracle):
        full = scan(role_update_program, oracle, options=ScanOptions(on_demand_context=True))
        oneshot = scan(role_update_program, oracle, options=ScanOptions(on_demand_context=False))
        full_ctx = set(full["context_elements"])
        oneshot_ctx = set(oneshot["context_elements"])
        assert oneshot_ctx < full_ctx
        # the helper implementations are exactly what one-shot retrieval misses
        missed_names = {
            role_update_program.find_element(eid)[1].name for eid in full_ctx - oneshot_ctx
        }
        assert "can_switch_roles" in missed_names
        # verdicts unchanged on this corpus
        assert [f["verdict"] for f in oneshot["findings"]] == [f["verdict"] for f in full["findings"]]

    def test_basic_sink_findings_subset_of_full(self, oracle, bench_spec):
        for entry in bench_spec["corpora"]:
            program = load_program(CORPORA / entry["path"])
            full = {
                (f["privileged_operation"]["element"], f["verdict"])
                for f in scan(program, oracle)["findings"]
            }
            basic = {
                (f["privileged_operation"]["element"], f["verdict"])
                for f in scan(program, oracle, options=ScanOptions(basic_sink=True))["findings"]
            }
            assert basic <= full, entry["path"]

    def test_budget_exhaustion_yields_partial_report(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle, budget=ScanBudget(max_tool_calls_per_phase=3))
        assert payload["budget"]["exhausted"]
        assert payload["budget"]["exhausted_reason"]

    def test_validation_budget_truncates(self, order_payment_program, oracle):
        """A budget that runs out while validating truncates the flows
        not yet validated, and the funnel still adds up."""
        payload = scan(order_payment_program, oracle, budget=ScanBudget(max_tool_calls_per_phase=3))
        funnel = payload["funnel"]
        assert payload["budget"]["exhausted_reason"] == "validation: exceeded 3 reasoner calls"
        assert payload["budget"]["reasoner_calls"]["validation"] == 4
        assert payload["budget"]["max_flows"] == PATH_CAP
        assert funnel["initial_flows"] == 2
        assert funnel["budget_truncated"] == 1
        assert funnel["initial_flows"] == (
            funnel["constraint_pruned"] + funnel["protected_dropped"] + funnel["budget_truncated"] + funnel["findings"]
        )

    def test_exhausting_reason_record_asks_no_task(
        self, order_payment_program, role_update_program, monkeypatch, tmp_path
    ):
        """Each reasoner lookup is recorded before it is answered, and each
        distinct task is asked once per scan. So the backend is asked only
        right after that task's ``reason`` record, never twice for one
        task, and never after the record that exhausts the budget. A
        ``decided`` or ``memo_hit`` record asks nothing: the guarded
        fan-out 2x2's four path classes look up one ``decided``
        ``AssessSufficiency``, three times from the memo. A small budget
        runs out at each kind of task: at ``ClassifyPrivileged`` in
        ``role_update``, whose ``update_role`` has a call site, and, with
        ``basic_sink``, which asks nothing in the privileged-operation
        phase, in ``order_payment``'s validation."""
        timeline = []
        record = Tracer.record

        def logged_record(self, tool, args, result_count):
            timeline.append(("record", tool, args))
            record(self, tool, args, result_count)

        class LoggingOracle(ScriptedOracle):
            def reason(self, task):
                timeline.append(("ask", task))
                return super().reason(task)

        monkeypatch.setattr(Tracer, "record", logged_record)
        exhausted_on = set()
        memo_hits = 0
        programs = (order_payment_program, role_update_program, load_program(write_fanout_corpus(tmp_path, 2, 2)))
        for program, basic_sink, calls in itertools.product(programs, (False, True), range(1, 8)):
            timeline.clear()
            options = ScanOptions(basic_sink=basic_sink)
            payload = scan(program, LoggingOracle(), ScanBudget(max_tool_calls_per_phase=calls), options)
            asked = [e[1] for e in timeline if e[0] == "ask"]
            assert len(asked) == len(set(asked)), calls
            for before, entry in zip(timeline, timeline[1:]):
                if entry[0] == "ask":
                    assert before == ("record", "reason", entry[1]), calls
            records = [e for e in timeline if e[0] == "record"]
            reasons = [args for _, tool, args in records if tool == "reason"]
            if payload["budget"]["exhausted"]:
                assert timeline[-1] is records[-1], calls
                _, tool, task = records[-1]
                assert tool == "reason", calls
                exhausted_on.add(type(task).__name__)
                reasons.pop()
            assert asked == reasons, calls
            memo_hits += sum(tool == "memo_hit" for _, tool, _ in records)
        assert exhausted_on >= {"ClassifyPrivileged", "ClassifyCheck", "AssessSufficiency"}
        assert memo_hits > 0

    def test_unwritable_outputs_fail_before_any_work(self, role_update_program, tmp_path):
        """A trace path in a missing directory and an SMT directory under a
        regular file fail the scan before the reasoner is asked anything."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        for options in (
            ScanOptions(trace_path=str(tmp_path / "missing" / "t.jsonl")),
            ScanOptions(emit_smt_dir=str(blocker / "smt")),
        ):
            reasoner = CountingOracle()
            with pytest.raises(OSError):
                scan(role_update_program, reasoner, options=options)
            assert sum(reasoner.calls.values()) == 0

    def test_wall_clock_budget(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle, budget=ScanBudget(max_seconds=1e-9))
        assert payload["budget"]["exhausted"]
        assert "wall clock" in payload["budget"]["exhausted_reason"]

    @pytest.mark.parametrize(
        "limits", [{"max_seconds": math.nan}, {"max_seconds": 0}, {"max_seconds": -1.0}, {"max_tool_calls_per_phase": 0}]
    )
    def test_non_positive_limits_rejected(self, limits):
        with pytest.raises(ValueError, match="budget limits must be positive"):
            ScanBudget(**limits)

    @pytest.mark.parametrize(
        "limit, shown", [(0.4, "0.4"), (2.5, "2.5"), (3, "3"), (600.0, "600"), (1e9, "1000000000")]
    )
    def test_wall_clock_limit_named_as_given(self, monkeypatch, limit, shown):
        now = [0.0]
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: now[0]))
        tracer = Tracer(ScanBudget(max_seconds=limit))
        tracer.phase = "flow"
        now[0] = limit
        tracer.record("q_flow", {}, 0)  # at the limit, not over it
        now[0] = 2 * limit
        with pytest.raises(BudgetExhausted) as exc:
            tracer.record("q_flow", {}, 0)
        assert (exc.value.phase, exc.value.reason) == ("flow", f"exceeded {shown}s wall clock")

    def test_budget_meters_backend_calls_only(self):
        """The per-phase limit counts ``reason`` records, each phase its own:
        any number of other records of a phase, a ``decided`` or a
        ``memo_hit`` lookup among them, spends nothing of it."""
        tracer = Tracer(ScanBudget(max_tool_calls_per_phase=2))
        task = ClassifyPrivileged("e1", "update_role", "fn update_role() { }")
        for tool in ("q_ast", "reason", "memo_hit", "decided", "q_name", "reason", "get_source"):
            tracer.record(tool, task if tool in ("reason", "memo_hit", "decided") else {}, 1)
        tracer.phase = "flow"
        tracer.record("reason", task, 1)
        tracer.record("q_flow", {}, 1)
        with pytest.raises(BudgetExhausted) as exc:
            tracer.record("reason", task, 1)
            tracer.record("reason", task, 1)
        assert str(exc.value) == "flow: exceeded 2 reasoner calls"
        assert tracer.per_phase == {"privileged_ops": 7, "flow": 4}
        assert tracer.reasoner_calls == {"privileged_ops": 2, "flow": 3}

    def test_a_scan_keeps_records_only_for_its_trace(self, order_payment_program, tmp_path, monkeypatch):
        """Without a trace path the scan's tracer keeps no record, only the
        per-phase counters, and they and the budget read as with one."""
        tracers = []

        class KeptTracer(Tracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracers.append(self)

        monkeypatch.setattr(pipeline, "Tracer", KeptTracer)
        trace = tmp_path / "trace.jsonl"
        untraced = scan(order_payment_program, ScriptedOracle())
        traced = scan(order_payment_program, ScriptedOracle(), options=ScanOptions(trace_path=str(trace)))
        bare, kept = tracers
        assert bare.calls is None
        assert len(kept.calls) == len(trace.read_text().splitlines()) > 0
        assert (bare.per_phase, bare.reasoner_calls) == (kept.per_phase, kept.reasoner_calls)
        assert untraced["budget"] == traced["budget"]

    def test_bare_boolean_guard_is_feasible(self, oracle, tmp_path):
        body = 'cmd = request.param("cmd")\n  on = true\n  if on {\n    exec(cmd)\n  }'
        [finding] = scan(_ops_corpus(tmp_path, body), oracle)["findings"]
        assert (finding["verdict"], finding["constraint"]["status"]) == ("unprotected", "sat")

    def test_false_guard_prunes(self, oracle, tmp_path):
        body = 'c = request.param("c")\n  if false {\n    exec(c)\n  }'
        funnel = scan(_ops_corpus(tmp_path, body), oracle)["funnel"]
        assert funnel["initial_flows"] == funnel["constraint_pruned"] == 1

    def test_route_handler_parameters_carry_the_request(self, oracle, tmp_path):
        """A route's endpoint flows into its handler's parameters."""
        payload = scan(_ops_corpus(tmp_path, "exec(cmd)", params="cmd"), oracle)
        [finding] = payload["findings"]
        assert finding["verdict"] == "unprotected"
        steps = path_hops(payload, finding)[0]["steps"]
        assert [payload["elements"][step]["name"] for step in steps] == ["/run", "cmd", "exec"]

    def test_invalid_program_rejected(self, role_update_program, oracle):
        from privflow.model import Manifest, Program

        manifest = Manifest(1, tuple(s._replace(entry=False) for s in role_update_program.manifest.services), ())
        broken = Program(role_update_program.services, manifest)
        with pytest.raises(ProgramInvalid):
            scan(broken, oracle)

    def test_trace_written_and_replayable(self, tmp_path):
        """Every primitive record of a scan's trace, run again through its
        primitive, gives its ``result_count``: on each corpus, with and
        without on-demand context. A ``q_flow`` record runs again with one
        sink selector per target; the reasoner lookups and the
        whole-program ``q_user`` and ``q_globalflow`` records are not
        primitive calls."""
        replay = {
            "q_ast": lambda service, args: q_ast(service, args["kind"]),
            "q_name": lambda service, args: q_name(service, args["pattern"], args["mode"]),
            "get_source": lambda service, args: [get_source(service, args["element"])],
            "q_cg": lambda service, args: q_cg(service, args["function"], args["direction"], args["depth"]),
            "q_source": lambda service, args: q_source(service),
            "q_inter": lambda service, args: q_inter(service).channels,
            "q_flow": lambda service, args: q_flow(service, args["from"], *args["to"]),
        }
        replayed = collections.Counter()
        phases = set()
        trace_path = tmp_path / "trace.jsonl"
        for corpus in sorted(p for p in CORPORA.iterdir() if p.is_dir()):
            program = load_program(corpus)
            for on_demand_context in (True, False):
                options = ScanOptions(on_demand_context=on_demand_context, trace_path=str(trace_path))
                scan(program, ScriptedOracle(), options=options)
                records = [json.loads(line) for line in trace_path.read_text().splitlines()]
                assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
                phases |= {r["phase"] for r in records}
                for r in records:
                    if r["tool"] not in replay:
                        assert r["tool"] in ("reason", "decided", "memo_hit", "q_user", "q_globalflow"), r
                        continue
                    service = program.service(r["args"]["service"])
                    assert len(replay[r["tool"]](service, r["args"])) == r["result_count"], (corpus.name, r)
                    replayed[r["tool"]] += 1
        assert set(replayed) == set(replay)
        assert phases == {"privileged_ops", "flow", "validation"}

    def test_a_scan_asks_each_check_candidate_once(self, tmp_path):
        """No ``ClassifyCheck`` is looked up twice in a scan, on any corpus
        under any option set. The guarded fan-out 4x2's 16 path classes
        pass its 8 guards, each an inline candidate whose one record is its
        ``ClassifyCheck``: validation records those 8, then one
        ``AssessSufficiency`` lookup per class."""
        trace_path = tmp_path / "trace.jsonl"
        fanout = load_program(write_fanout_corpus(tmp_path, 4, 2))
        programs = [load_program(corpus) for corpus in sorted(p for p in CORPORA.iterdir() if p.is_dir())]
        variants = ({}, {"basic_sink": True}, {"on_demand_context": False})
        for program, options in itertools.product([*programs, fanout], variants):
            scan(program, ScriptedOracle(), OPEN_BUDGET, ScanOptions(trace_path=str(trace_path), **options))
            records = [json.loads(line) for line in trace_path.read_text().splitlines()]
            digests = [r["args"]["digest"] for r in records if r["args"].get("task") == "ClassifyCheck"]
            assert len(digests) == len(set(digests))
        payload = scan(fanout, ScriptedOracle(), OPEN_BUDGET)
        guards = [e for service in fanout.services for e in service.elements if e.kind is ElementKind.CONDITIONAL]
        assert (len(guards), payload["funnel"]["findings"]) == (8, 16)
        assert payload["budget"]["tool_calls"]["validation"] == len(guards) + 16 == 24

    def test_smt_emission_for_infeasible_flow(self, oracle, tmp_path):
        program = load_program(CORPORA / "infeasible")
        payload = scan(program, oracle, options=ScanOptions(emit_smt_dir=str(tmp_path)))
        assert payload["funnel"]["constraint_pruned"] == 1
        files = list(tmp_path.glob("*.smt2"))
        assert len(files) == 1
        text = files[0].read_text()
        assert text == '(declare-const mode String)\n(assert (= mode "A"))\n(assert (= mode "B"))\n(check-sat)\n'

    def test_contradiction_beside_a_call_guard_is_pruned(self, oracle, tmp_path):
        """``guard_call_neighbour`` runs ``exec`` under ``well_formed(cmd)``,
        ``mode == "A"`` and ``mode == "B"``: the call is a fresh atom, so
        it no longer hides the contradiction beside it."""
        program = load_program(CORPORA / "guard_call_neighbour")
        payload = scan(program, oracle, options=ScanOptions(emit_smt_dir=str(tmp_path)))
        assert payload["funnel"] == {
            "initial_flows": 1, "constraint_pruned": 1, "protected_dropped": 0, "budget_truncated": 0, "findings": 0
        }
        [smt] = tmp_path.glob("*.smt2")
        assert smt.read_text() == (
            '(declare-const g0@0 Bool)\n(declare-const mode String)\n'
            '(assert g0@0)\n(assert (= mode "A"))\n(assert (= mode "B"))\n(check-sat)\n'
        )

    def test_smt_files_of_order_payment(self, oracle, tmp_path):
        """``order_payment``'s ``status == "PRE_PAY"`` class keeps its SMT
        file, and its ownership guard's class, whose member path
        ``order.user_id`` is a variable, gains one."""
        program = load_program(CORPORA / "order_payment")
        scan(program, oracle, options=ScanOptions(emit_smt_dir=str(tmp_path)))
        assert sorted(path.read_text() for path in tmp_path.glob("*.smt2")) == [
            "(declare-const current String)\n(declare-const order.user_id String)\n"
            "(assert (= order.user_id current))\n(check-sat)\n",
            '(declare-const status String)\n(assert (= status "PRE_PAY"))\n(check-sat)\n',
        ]

    def test_finding_shape_invariants(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle)
        for finding in payload["findings"]:
            assert finding["verdict"] != "protected"
            assert finding["feasibility"] in ("feasible", "unknown")

