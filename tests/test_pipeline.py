import collections
import json

import pytest

from privflow.crossflow import PATH_CAP, build_global_graph, match_channels, path_functions, q_globalflow, q_user
from privflow.load import load_program
from privflow.model import call_callee
from privflow.reasoner import Action, ConfirmUserSource, NextSearchAction, ScriptedOracle, _query_key
from privflow.pipeline import (
    BudgetExhausted,
    CheckFinding,
    Finding,
    ProgramInvalid,
    ScanBudget,
    ScanOptions,
    Tracer,
    assess_flow,
    find_privileged_ops,
    locate_checks,
    scan,
)

from conftest import CORPORA


class CountingOracle(ScriptedOracle):
    """The scripted oracle, counting the tasks it is asked by task name."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def reason(self, task):
        self.calls[type(task).__name__] += 1
        return super().reason(task)


def first_flow(program, oracle, basic_sink=False):
    privops = find_privileged_ops(program, oracle, basic_sink=basic_sink)
    graph = build_global_graph(program, privops, match_channels(program))
    flows = q_globalflow(graph, q_user(program, oracle), privops).paths
    return privops, flows


class TestFindPrivilegedOps:
    def test_role_update_discovers_update_role(self, role_update_program, oracle):
        ops = find_privileged_ops(role_update_program, oracle)
        assert len(ops) == 1
        op = ops[0]
        assert op.category == "protected-state"
        placed = role_update_program.find_element(op.element)
        assert call_callee(placed[1]) == "update_role"

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
        """An invalid regex or an unknown name mode burns a proposal, as an
        unknown service does; the scan goes on to the same findings."""

        class Malformed(ScriptedOracle):
            def reason(self, task):
                if isinstance(task, NextSearchAction) and task.round == 1:
                    for args in (
                        {"service": task.services[0], "pattern": "(", "mode": "regex"},
                        {"service": task.services[0], "pattern": "update", "mode": "glob"},
                    ):
                        if _query_key("q_name", args) not in task.executed:
                            return Action("q_name", args, "malformed proposal")
                return super().reason(task)

        stub = Malformed()
        assert find_privileged_ops(role_update_program, stub) == find_privileged_ops(role_update_program, oracle)
        assert scan(role_update_program, stub)["findings"] == scan(role_update_program, oracle)["findings"]

    def test_budget_exhaustion_carries_partial(self, role_update_program, oracle):
        tiny = Tracer(ScanBudget(max_tool_calls_per_phase=3))
        with pytest.raises(BudgetExhausted) as err:
            find_privileged_ops(role_update_program, oracle, tracer=tiny)
        assert err.value.partial is not None


class TestLocateChecks:
    def test_role_update_decorator_chain(self, role_update_program, oracle):
        _, flows = first_flow(role_update_program, oracle)
        checks, contexts, context_ids = locate_checks(path_functions(role_update_program, flows[0]), oracle)
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
            checks, _, _ = locate_checks(path_functions(order_payment_program, flow), oracle)
            inline += [
                c for c in checks if c.attachment == "inline" and c.authz_subtype == "ownership"
            ]
        assert inline, "ownership conditional should be discovered on the cancel path"

    def test_plain_handler_has_no_checks(self, oracle):
        program = load_program(CORPORA / "exec_open")
        _, flows = first_flow(program, oracle)
        checks, _, _ = locate_checks(path_functions(program, flows[0]), oracle)
        assert checks == []

    def test_check_finding_invariants(self):
        with pytest.raises(ValueError):
            CheckFinding("e", "s", "n", "authn", "role", "decorator", "r", "src")
        with pytest.raises(ValueError):
            CheckFinding("e", "s", "n", "authz", "none", "decorator", "r", "src")


class TestAssessFlow:
    def test_role_update_insufficient(self, role_update_program, oracle):
        privops, flows = first_flow(role_update_program, oracle)
        checks, contexts, _ = locate_checks(path_functions(role_update_program, flows[0]), oracle)
        verdict = assess_flow(role_update_program, privops[0], checks, contexts, oracle)
        assert verdict.verdict == "insufficient_authz"

    def test_patched_protected(self, oracle):
        program = load_program(CORPORA / "role_update_patched")
        privops, flows = first_flow(program, oracle)
        checks, contexts, _ = locate_checks(path_functions(program, flows[0]), oracle)
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
        checks, _, _ = locate_checks(path_functions(program, flow), oracle)
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
            for snippet in finding["evidence"]:
                service = role_update_program.service(snippet["service"])
                element = service.element(snippet["element"])
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
        payload = scan(order_payment_program, oracle, budget=ScanBudget(max_tool_calls_per_phase=10))
        funnel = payload["funnel"]
        assert payload["budget"]["exhausted_reason"] == "validation: exceeded 10 tool calls"
        assert payload["budget"]["max_flows"] == PATH_CAP
        assert funnel["initial_flows"] == 2
        assert funnel["budget_truncated"] == 1
        assert funnel["initial_flows"] == (
            funnel["constraint_pruned"] + funnel["protected_dropped"] + funnel["budget_truncated"] + funnel["findings"]
        )

    def test_exhausting_reason_record_asks_no_task(self, order_payment_program, monkeypatch):
        """Each reasoner task is recorded before it is asked, and each
        distinct task is asked once per scan. So the backend is asked only
        right after a task's record, never twice for one task, and never
        after the record that exhausts the budget (an equal task asked
        before it is answered without asking). ConfirmUserSource tasks are
        covered by one q_user record and left out."""
        timeline = []
        record = Tracer.record

        def logged_record(self, phase, tool, args, result_count):
            timeline.append(("record", tool, args))
            record(self, phase, tool, args, result_count)

        class LoggingOracle(ScriptedOracle):
            def reason(self, task):
                if not isinstance(task, ConfirmUserSource):
                    timeline.append(("ask", task))
                return super().reason(task)

        monkeypatch.setattr(Tracer, "record", logged_record)
        exhausted_on = set()
        memo_hits = 0
        for calls in range(1, 16):
            timeline.clear()
            payload = scan(order_payment_program, LoggingOracle(), ScanBudget(max_tool_calls_per_phase=calls))
            asked = [e[1] for e in timeline if e[0] == "ask"]
            assert len(asked) == len(set(asked)), calls
            for before, entry in zip(timeline, timeline[1:]):
                if entry[0] == "ask":
                    assert before[:2] == ("record", "reason"), calls
                    assert before[2]["task"] == type(entry[1]).__name__, calls
            records = [e for e in timeline if e[0] == "record"]
            recorded = collections.Counter(args["task"] for _, tool, args in records if tool == "reason")
            if payload["budget"]["exhausted"]:
                assert timeline[-1] is records[-1], calls
                _, tool, args = records[-1]
                if tool == "reason":
                    exhausted_on.add(args["task"])
                    recorded[args["task"]] -= 1
            backend_calls = collections.Counter(type(task).__name__ for task in asked)
            assert backend_calls <= recorded, calls
            memo_hits += recorded.total() - backend_calls.total()
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

    def test_invalid_program_rejected(self, role_update_program, oracle):
        from privflow.model import Manifest, Program

        manifest = Manifest(1, role_update_program.manifest.services, ())
        broken = Program(tuple(s.with_entry(False) for s in role_update_program.services), manifest)
        with pytest.raises(ProgramInvalid):
            scan(broken, oracle)

    def test_trace_written_and_replayable(self, role_update_program, oracle, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        scan(role_update_program, oracle, options=ScanOptions(trace_path=str(trace_path)))
        lines = trace_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        assert {r["phase"] for r in records} == {"privileged_ops", "flow", "validation"}

    def test_smt_emission_for_infeasible_flow(self, oracle, tmp_path):
        program = load_program(CORPORA / "infeasible")
        payload = scan(program, oracle, options=ScanOptions(emit_smt_dir=str(tmp_path)))
        assert payload["funnel"]["constraint_pruned"] == 1
        files = list(tmp_path.glob("*.smt2"))
        assert len(files) == 1
        text = files[0].read_text()
        assert "(check-sat)" in text

    def test_finding_shape_invariants(self, role_update_program, oracle):
        payload = scan(role_update_program, oracle)
        for finding in payload["findings"]:
            assert finding["verdict"] != "protected"
            assert finding["feasibility"] in ("feasible", "unknown")

    def test_finding_type_invariants(self):
        with pytest.raises(ValueError):
            Finding(
                path=None,
                privop=None,
                checks=(),
                verdict="protected",
                feasibility="feasible",
                rationale="r",
                constraint_status="sat",
            )

