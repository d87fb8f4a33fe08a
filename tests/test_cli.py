import json
import re

import pytest
from click.testing import CliRunner

from privflow import reasoner
from privflow.cli import main
from privflow.report import ExitStatus, exit_status, render_report

from conftest import CORPORA, write_fanout_corpus


@pytest.fixture()
def runner():
    return CliRunner()


def corpus(name: str) -> str:
    return str(CORPORA / name)


def element_record(eid: str, service: str, kind: str, file: str, line: int, source: str, name: str = "") -> dict:
    return {
        "rec": "element", "id": eid, "service": service, "kind": kind, "name": name,
        "file": file, "line": line, "col": 1, "source": source, "type": "unknown",
    }


def write_facts_corpus(root, services: dict[str, list[dict]], edit=None) -> str:
    """A corpus of facts-file services, the first the entry; each service's
    records follow a version-1 header. ``edit`` may change the manifest
    dict before it is written."""
    names = list(services)
    for name, records in services.items():
        lines = [{"rec": "header", "version": 1}, *records]
        (root / f"{name}.facts.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [{"name": n, "entry": n == names[0], "facts": [f"{n}.facts.jsonl"]} for n in names],
        "gateway_routes": [{"prefix": "/", "target": names[0]}],
    }
    if edit is not None:
        edit(manifest)
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return str(root)


def endpoint_to_call(service: str, call: str) -> list[dict]:
    """Endpoint ``e1`` whose input flows into call ``e2``."""
    file = f"{service}.py"
    return [
        element_record("e1", service, "endpoint", file, 1, f'@route("POST", "/{service}")', name=f"/{service}"),
        element_record("e2", service, "call", file, 3, call),
        {"rec": "edge", "kind": "dataflow", "from": "e1", "to": "e2"},
    ]


class TestScanCommand:
    def test_role_update_reports_one_finding(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--reasoner", "scripted"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert len(payload["findings"]) == 1
        assert payload["findings"][0]["verdict"] == "insufficient_authz"

    def test_patched_corpus_exits_clean(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update_patched"), "--reasoner", "scripted"])
        assert result.exit_code == 0

    def test_missing_manifest_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["scan", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output.count("\n") <= 1
        assert "privflow:" in result.output
        assert "Traceback" not in result.output

    def test_parse_error_is_config_error(self, runner, tmp_path):
        (tmp_path / "privflow.manifest.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "services": [{"name": "bad", "entry": True, "sources": ["bad.msv"]}],
                    "gateway_routes": [],
                }
            )
        )
        (tmp_path / "bad.msv").write_text("fn broken( {")
        result = runner.invoke(main, ["scan", str(tmp_path)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_element_id_declared_by_two_services_is_config_error(self, runner, tmp_path):
        """Ids are unique across the program: service a's ``e2`` is a harmless
        ``log`` call, b's is ``exec``; neither may stand in for the other."""
        root = write_facts_corpus(tmp_path, {"a": endpoint_to_call("a", "log(v)"), "b": endpoint_to_call("b", "exec(v)")})
        result = runner.invoke(main, ["scan", root])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert "element id e1 is declared by services a and b" in result.output
        assert "element id e2 is declared by services a and b" in result.output
        graph = runner.invoke(main, ["graph", root])
        assert (graph.exit_code, graph.output) == (2, result.output)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m["services"][0].update(entry="false"), "services[0].entry"),
            (lambda m: m.update(version=True), "version"),
            (lambda m: m["services"][0].update(base_url=["x"]), "services[0].base_url"),
        ],
        ids=["entry-string", "version-bool", "base_url-list"],
    )
    def test_manifest_field_of_wrong_type_is_config_error(self, runner, tmp_path, edit, field):
        root = write_facts_corpus(tmp_path, {"a": endpoint_to_call("a", "exec(v)")}, edit)
        result = runner.invoke(main, ["scan", root])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert f"privflow: {field}: " in result.output

    @pytest.mark.parametrize(
        "index, record, reason",
        [
            (0, {"rec": "header", "version": True}, "unsupported version True"),
            (1, element_record("e1", "a", "endpoint", "a.py", True, "@route", name="/a"), "field 'line' must be an integer"),
        ],
        ids=["header-version-bool", "element-line-bool"],
    )
    def test_facts_field_of_wrong_type_is_config_error(self, runner, tmp_path, index, record, reason):
        """The record at ``index`` of a valid facts file is replaced."""
        root = write_facts_corpus(tmp_path, {"a": endpoint_to_call("a", "exec(v)")})
        facts = tmp_path / "a.facts.jsonl"
        lines = facts.read_text(encoding="utf-8").splitlines()
        lines[index] = json.dumps(record)
        facts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["scan", root])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert reason in result.output

    def test_md_format_shows_channel_identifier(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--format", "md"])
        assert result.exit_code == 1
        hop_lines = [line for line in result.output.splitlines() if "channel" in line]
        assert any("/setUserRole" in line for line in hop_lines)

    def test_budget_exhaustion_exit_code(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--budget-calls", "3"])
        assert result.exit_code == 3

    def test_same_scan_renders_byte_identically(self, runner):
        first = runner.invoke(main, ["scan", corpus("role_update"), "--format", "json"])
        second = runner.invoke(main, ["scan", corpus("role_update"), "--format", "json"])
        assert first.output == second.output

    def test_trace_and_smt_flags(self, runner, tmp_path):
        trace = tmp_path / "trace.jsonl"
        smt = tmp_path / "smt"
        result = runner.invoke(
            main,
            ["scan", corpus("infeasible"), "--trace", str(trace), "--emit-smt", str(smt)],
        )
        assert result.exit_code == 0
        assert trace.exists()
        assert list(smt.glob("*.smt2"))

    def test_basic_sink_flag(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--basic-sink"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["findings"] == []
        assert payload["options"]["basic_sink"] is True

    def test_unwritable_trace_is_config_error(self, runner, tmp_path):
        """A trace path in a missing directory is a user error, not findings
        (exit 1) with a traceback."""
        trace = tmp_path / "missing" / "t.jsonl"
        result = runner.invoke(main, ["scan", corpus("role_update"), "--trace", str(trace)])
        assert result.exit_code == 2
        assert result.output.startswith("privflow: ")
        assert result.output.count("\n") == 1
        assert not trace.exists()


    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "no text content"),
            ("not json at all", "NextSearchAction: reply contains no JSON object"),
        ],
    )
    def test_remote_backend_failure_is_config_error(self, runner, monkeypatch, content, message):
        """A reply without text content and a reply that never fits the
        schema (retries exhausted) each print one line and exit 2."""
        monkeypatch.setenv("PRIVFLOW_ENDPOINT", "http://backend.invalid/v1/chat/completions")
        monkeypatch.setenv("PRIVFLOW_MODEL", "test-model")
        monkeypatch.setattr(reasoner.time, "sleep", lambda seconds: None)
        monkeypatch.setattr(
            reasoner,
            "_requests_transport",
            lambda url, headers, payload, timeout: (200, {"choices": [{"message": {"content": content}}]}),
        )
        result = runner.invoke(main, ["scan", corpus("role_update"), "--reasoner", "remote"])
        assert result.exit_code == 2
        assert result.output.startswith("privflow: ")
        assert message in result.output
        assert result.output.count("\n") == 1

    def test_remote_backend_gets_each_distinct_prompt_once(self, runner, monkeypatch, tmp_path):
        """The fan-out repeats its constraint and sufficiency tasks on all
        256 paths; the remote backend receives each distinct prompt once."""
        replies = {
            "ClassifyPrivileged": {"category": "none"},
            "ClassifyCheck": {"classification": "none", "subtype": "none"},
            "AssessSufficiency": {"verdict": "unprotected"},
            "ExtractConstraints": {"skip": True},
            "ConfirmUserSource": {"is_user_source": True},
            "NextSearchAction": {"tool": "finish", "args": {}},
        }
        prompts = []

        def transport(url, headers, payload, timeout):
            prompt = payload["messages"][1]["content"]
            prompts.append(prompt)
            task_name = re.search(r'"task": "(\w+)"', prompt).group(1)
            reply = dict(replies[task_name], rationale=f"fake {task_name}")
            return 200, {"choices": [{"message": {"content": json.dumps(reply)}}]}

        monkeypatch.setenv("PRIVFLOW_ENDPOINT", "http://backend.invalid/v1/chat/completions")
        monkeypatch.setenv("PRIVFLOW_MODEL", "test-model")
        monkeypatch.setattr(reasoner, "_requests_transport", transport)
        result = runner.invoke(
            main, ["scan", str(write_fanout_corpus(tmp_path)), "--reasoner", "remote", "--budget-calls", "100000"]
        )
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert payload["reasoner"] == "remote"
        assert payload["funnel"]["findings"] == 256
        assert len(prompts) == len(set(prompts)) > 0
        assert payload["budget"]["tool_calls"]["validation"] > len(prompts)

    def test_rules_file_of_wrong_shape_is_config_error(self, runner, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text("[]")
        result = runner.invoke(main, ["scan", corpus("role_update"), "--rules", str(rules)])
        assert result.exit_code == 2
        assert result.output == "privflow: file: top level must be a JSON object\n"


class TestQueryCommand:
    def test_name_query(self, runner):
        result = runner.invoke(
            main,
            ["query", corpus("role_update"), "--service", "usermgmt", "--op", "name", "--pattern", "update_role"],
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert [r["name"] for r in rows] == ["update_role"]

    def test_ast_query(self, runner):
        result = runner.invoke(
            main, ["query", corpus("role_update"), "--service", "usermgmt", "--op", "ast", "--kind", "endpoint"]
        )
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert [r["name"] for r in rows] == ["/setUserRole"]

    def test_flow_query(self, runner):
        result = runner.invoke(
            main,
            [
                "query", corpus("role_update"), "--service", "usermgmt", "--op", "flow",
                "--from", "request", "--to", "update_role",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip()

    def test_cg_query(self, runner):
        result = runner.invoke(
            main,
            [
                "query", corpus("role_update"), "--service", "usermgmt", "--op", "cg",
                "--function", "update_role", "--direction", "callers",
            ],
        )
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert [r["name"] for r in rows] == ["set_user_role"]

    def test_unknown_service_is_config_error(self, runner):
        result = runner.invoke(
            main, ["query", corpus("role_update"), "--service", "ghost", "--op", "ast", "--kind", "call"]
        )
        assert result.exit_code == 2

    def test_missing_pattern_is_config_error(self, runner):
        result = runner.invoke(main, ["query", corpus("role_update"), "--service", "usermgmt", "--op", "name"])
        assert result.exit_code == 2


class TestGraphCommand:
    def test_dot_output(self, runner):
        result = runner.invoke(main, ["graph", corpus("role_update")])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert "/setUserRole" in result.output
        assert "style=dashed" in result.output

    def test_exhausted_privops_budget_prints_partial_graph(self, runner, tmp_path):
        # the 8x2 fan-out outruns the default privileged-operation budget
        result = runner.invoke(main, ["graph", str(write_fanout_corpus(tmp_path))])
        assert result.exit_code == int(ExitStatus.BUDGET_EXHAUSTED)
        assert result.stdout.startswith("digraph")
        assert ":exec" in result.stdout and "style=dashed" in result.stdout
        assert result.stderr.startswith("privflow: budget exhausted: privileged_ops: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.output


class TestFactsCommand:
    def test_export_and_reimport(self, runner, tmp_path):
        result = runner.invoke(main, ["facts", corpus("role_update"), "--out", str(tmp_path)])
        assert result.exit_code == 0
        files = sorted(p.name for p in tmp_path.glob("*.facts.jsonl"))
        assert files == ["usermgmt.facts.jsonl", "userprofile.facts.jsonl"]

        from privflow.facts import read_facts
        from privflow.load import load_program

        program = load_program(CORPORA / "role_update")
        for service in program.services:
            text = (tmp_path / f"{service.name}.facts.jsonl").read_text()
            bare = service.with_entry(False)
            assert read_facts(text, service.name) == bare

    def test_out_under_a_file_is_config_error(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = runner.invoke(main, ["facts", corpus("role_update"), "--out", str(blocker / "out")])
        assert result.exit_code == 2
        assert result.output.startswith("privflow: ")
        assert result.output.count("\n") == 1

    def test_facts_feed_a_scan(self, runner, tmp_path):
        # export role_update to facts, rebuild a corpus that consumes only facts files
        export = runner.invoke(main, ["facts", corpus("role_update"), "--out", str(tmp_path)])
        assert export.exit_code == 0
        (tmp_path / "privflow.manifest.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "services": [
                        {"name": "userprofile", "entry": True, "facts": ["userprofile.facts.jsonl"]},
                        {"name": "usermgmt", "facts": ["usermgmt.facts.jsonl"]},
                    ],
                    "gateway_routes": [{"prefix": "/updateProfile", "target": "userprofile"}],
                }
            )
        )
        result = runner.invoke(main, ["scan", str(tmp_path)])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert [f["verdict"] for f in payload["findings"]] == ["insufficient_authz"]


class TestReportHelpers:
    def test_json_render_parse_render_fixpoint(self, oracle, role_update_program):
        from privflow.pipeline import scan

        payload = scan(role_update_program, oracle)
        rendered = render_report(payload, "json")
        assert render_report(json.loads(rendered), "json") == rendered

    def test_exit_status_pure_function(self):
        assert exit_status({"findings": [], "budget": {"exhausted": False}}) is ExitStatus.CLEAN
        assert exit_status({"findings": [{}], "budget": {"exhausted": False}}) is ExitStatus.FINDINGS
        assert exit_status({"findings": [{}], "budget": {"exhausted": True}}) is ExitStatus.BUDGET_EXHAUSTED

    def test_md_derived_from_json(self, oracle, role_update_program):
        from privflow.pipeline import scan

        payload = scan(role_update_program, oracle)
        md = render_report(payload, "md")
        assert md == render_report(json.loads(render_report(payload, "json")), "md")
