import itertools
import json
import re
import shutil
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from privflow import pipeline, remote
from privflow.cli import main
from privflow.minisrv.parser import MAX_DEPTH
from privflow.report import ExitStatus, exit_status, render_report

from conftest import CORPORA, bench_gen, write_fanout_corpus
from smtlib_check import validate_smtlib


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


def deep_corpus(root, shape: str, levels: int) -> str:
    """A one-service corpus whose handler writes its request input to
    ``db.write`` through an assignment nested ``levels`` deep: inside that
    many parentheses, inside that many ``if`` branches, or at the bottom
    of a ``+`` chain of that many operators."""
    if shape == "parens":
        body = "  x = " + "(" * levels + "v" + ")" * levels + "\n"
    elif shape == "ifs":
        body = 'if v == "a" {\n' * levels + "  x = v\n" + "}\n" * levels
    else:
        body = "  x = " + " + ".join(["v"] * (levels + 1)) + "\n"
    source = '@route("POST", "/p")\nfn h() {\n  v = request.param("v")\n' + body + "  db.write(x)\n}\n"
    (root / "a.msv").write_text(source, encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [{"name": "a", "entry": True, "sources": ["a.msv"]}],
        "gateway_routes": [{"prefix": "/", "target": "a"}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return str(root)


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

    def test_non_ascii_digit_is_one_located_parse_error(self, runner, tmp_path):
        (tmp_path / "privflow.manifest.json").write_text(
            json.dumps({"version": 1, "services": [{"name": "a", "entry": True, "sources": ["a.msv"]}], "gateway_routes": []})
        )
        (tmp_path / "a.msv").write_text("fn f() {\n  x = \u00b2\n}\n", encoding="utf-8")
        result = runner.invoke(main, ["scan", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == "privflow: a.msv:2:7: unexpected character '\u00b2'\n"

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
        "key, entry",
        [
            ("sources", lambda outside: "../ops.msv"),
            ("sources", lambda outside: "sub/../../ops.msv"),
            ("sources", lambda outside: str(outside / "ops.msv")),
            ("facts", lambda outside: str(outside / "ops.facts.jsonl")),
        ],
        ids=["sources-parent", "sources-nested-parent", "sources-absolute", "facts-absolute"],
    )
    def test_manifest_file_outside_the_corpus_is_config_error(self, runner, tmp_path, key, entry):
        """A manifest lists files inside its corpus: an absolute entry or one
        with a '..' part is rejected before anything is read."""
        (tmp_path / "ops.msv").write_text((CORPORA / "exec_open" / "ops.msv").read_text(), encoding="utf-8")
        (tmp_path / "ops.facts.jsonl").write_text('{"rec": "header", "version": 1}\n', encoding="utf-8")
        entry = entry(tmp_path)
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "inside.msv").write_text("fn ping() { x = 1 }\n", encoding="utf-8")
        service = {"name": "ops", "entry": True, "sources": ["inside.msv"], "facts": []}
        service[key] = [entry]
        manifest = {"version": 1, "services": [service], "gateway_routes": [{"prefix": "/run", "target": "ops"}]}
        (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        result = runner.invoke(main, ["scan", str(root)])
        assert result.exit_code == 2
        assert result.output.startswith(f"privflow: services[0].{key}: {entry!r} ")
        assert result.output.count("\n") == 1

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

    def test_function_defined_twice_is_config_error(self, runner, tmp_path):
        """A second ``fn handle`` would replace the first one's body, and the
        routed ``exec`` of the first would go unseen; renamed, it is found."""

        def scan_with_second(name):
            root = tmp_path / name
            root.mkdir()
            (root / "svc.msv").write_text(
                '@route("POST", "/run")\nfn handle() {\n  exec(request.param("cmd"))\n}\n'
                f'@route("POST", "/ping")\nfn {name}() {{\n  x = 1\n}}\n',
                encoding="utf-8",
            )
            manifest = {
                "version": 1,
                "services": [{"name": "svc", "entry": True, "sources": ["svc.msv"]}],
                "gateway_routes": [{"prefix": "/run", "target": "svc"}],
            }
            (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            return runner.invoke(main, ["scan", str(root)])

        duplicate, renamed = scan_with_second("handle"), scan_with_second("ping")
        assert duplicate.exit_code == 2
        assert duplicate.output == "privflow: svc.msv:6:1: function 'handle' is already defined\n"
        assert renamed.exit_code == 1
        assert [f["verdict"] for f in json.loads(renamed.output)["findings"]] == ["unprotected"]

    def test_md_format_shows_channel_identifier(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--format", "md"])
        assert result.exit_code == 1
        hop_lines = [line for line in result.output.splitlines() if "channel" in line]
        assert any("/setUserRole" in line for line in hop_lines)

    def test_budget_exhaustion_exit_code(self, runner):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--budget-calls", "3"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("shape, size", [("chain", (3, 4)), ("chain", (6, 10)), ("fanout", (8, 2))])
    def test_default_budget_finishes_generated_corpora(self, runner, tmp_path, shape, size):
        """The default budget meters backend calls, one per scan on these
        corpora, so it no longer runs out on their deterministic tool
        calls: each scan reports its generated sink set and exits 1."""
        gen = bench_gen()
        truth = getattr(gen, shape)(1, *size, tmp_path)
        result = runner.invoke(main, ["scan", str(tmp_path)])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert gen.sink_set(payload) == truth
        assert payload["budget"]["reasoner_calls"] == {"flow": 0, "privileged_ops": 1, "validation": 0}

    @pytest.mark.parametrize("seconds", ["nan", "0", "-1"])
    def test_non_positive_wall_clock_budget_is_config_error(self, runner, seconds):
        result = runner.invoke(main, ["scan", corpus("role_update"), "--budget-seconds", seconds])
        assert result.exit_code == 2
        assert result.output == "privflow: budget limits must be positive\n"

    def test_fractional_wall_clock_budget_named_as_given(self, runner, monkeypatch):
        """A clock that moves 0.25 s per reading exhausts a 0.4 s budget,
        and the report names the limit as it was given."""
        ticks = itertools.count()
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: next(ticks) * 0.25))
        result = runner.invoke(main, ["scan", corpus("role_update"), "--budget-seconds", "0.4"])
        assert result.exit_code == 3
        assert json.loads(result.output)["budget"]["exhausted_reason"].endswith(": exceeded 0.4s wall clock")

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

    def test_smt_files_quote_names_smtlib_takes(self, runner, tmp_path):
        """Guard variables named ``let``, ``not`` and ``mod`` are legal
        MiniSrv identifiers but SMT-LIB words; the emitted file declares
        them quoted and stays well-formed."""
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "svc.msv").write_text(
            '@route("POST", "/run")\n'
            "fn run() {\n"
            '  let = request.param("mode")\n'
            '  not = request.param("flag")\n'
            '  mod = request.param("m")\n'
            '  cmd = request.param("cmd")\n'
            '  if let == "A" {\n'
            '    if not != mod {\n'
            "      exec(cmd)\n"
            "    }\n"
            "  }\n"
            "}\n",
            encoding="utf-8",
        )
        manifest = {
            "version": 1,
            "services": [{"name": "svc", "entry": True, "sources": ["svc.msv"]}],
            "gateway_routes": [{"prefix": "/run", "target": "svc"}],
        }
        (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        smt = tmp_path / "smt"
        result = runner.invoke(main, ["scan", str(root), "--emit-smt", str(smt)])
        assert result.exit_code == 1, result.output
        [path] = smt.glob("*.smt2")
        assert path.read_text(encoding="utf-8") == (
            "(declare-const |v:let| String)\n"
            "(declare-const |v:mod| String)\n"
            "(declare-const |v:not| String)\n"
            '(assert (= |v:let| "A"))\n'
            "(assert (distinct |v:not| |v:mod|))\n"
            "(check-sat)\n"
        )
        assert validate_smtlib(path.read_text(encoding="utf-8")) == []

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
        monkeypatch.setattr(remote.time, "sleep", lambda seconds: None)
        monkeypatch.setattr(
            remote,
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
        256 paths; the remote backend receives each distinct prompt once,
        and none for an entry endpoint a route prefix covers."""
        replies = {
            "ClassifyPrivileged": {"category": "none"},
            "ClassifyCheck": {"classification": "none", "subtype": "none"},
            "AssessSufficiency": {"verdict": "unprotected"},
            "ExtractConstraints": {"skip": True},
            "ConfirmUserSource": {"is_user_source": True},
            "NextSearchAction": {"queries": []},
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
        monkeypatch.setattr(remote, "_requests_transport", transport)
        result = runner.invoke(
            main, ["scan", str(write_fanout_corpus(tmp_path)), "--reasoner", "remote", "--budget-calls", "100000"]
        )
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert payload["reasoner"] == "remote"
        assert payload["funnel"]["findings"] == 256
        assert len(prompts) == len(set(prompts)) > 0
        assert not [p for p in prompts if '"task": "ConfirmUserSource"' in p]
        assert payload["budget"]["tool_calls"]["validation"] > len(prompts)

    def test_remote_no_cannot_drop_a_routed_endpoint(self, runner, monkeypatch):
        """A remote reply of "not a user source" never reaches a covered
        endpoint: ``exec_open``'s ``/run`` stays a user source and its
        finding stands."""
        replies = {
            "ClassifyPrivileged": {"category": "security-critical-action"},
            "ConfirmUserSource": {"is_user_source": False},
            "NextSearchAction": {"queries": []},
        }
        tasks = []

        def transport(url, headers, payload, timeout):
            task_name = re.search(r'"task": "(\w+)"', payload["messages"][1]["content"]).group(1)
            tasks.append(task_name)
            reply = dict(replies[task_name], rationale=f"fake {task_name}")
            return 200, {"choices": [{"message": {"content": json.dumps(reply)}}]}

        monkeypatch.setenv("PRIVFLOW_ENDPOINT", "http://backend.invalid/v1/chat/completions")
        monkeypatch.setenv("PRIVFLOW_MODEL", "test-model")
        monkeypatch.setattr(remote, "_requests_transport", transport)
        result = runner.invoke(main, ["scan", corpus("exec_open"), "--reasoner", "remote"])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert "ConfirmUserSource" not in tasks
        assert [s["name"] for s in payload["user_sources"]] == ["/run"]
        assert payload["funnel"]["findings"] == 1

    def test_rules_file_of_wrong_shape_is_config_error(self, runner, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text("[]")
        result = runner.invoke(main, ["scan", corpus("role_update"), "--rules", str(rules)])
        assert result.exit_code == 2
        assert result.output == "privflow: file: top level must be a JSON object\n"

    @pytest.mark.parametrize("shape", ["parens", "ifs", "chain"])
    def test_nesting_at_the_bound_scans(self, runner, tmp_path, shape):
        result = runner.invoke(main, ["scan", deep_corpus(tmp_path, shape, MAX_DEPTH), "--budget-calls", "1000"])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert payload["funnel"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["privileged_operation"]["source"] == "db.write(x)"
        assert finding["constraint"]["status"] == "sat"

    @pytest.mark.parametrize(
        "shape, levels, where",
        [
            ("parens", MAX_DEPTH + 1, "a.msv:4:71"),  # the 65th "("
            ("ifs", MAX_DEPTH + 1, "a.msv:68:6"),  # the "==" of the 65th "if", inside 64 branches
            ("chain", MAX_DEPTH + 1, "a.msv:4:265"),  # the 65th "+"
            ("parens", 200, "a.msv:4:71"),
            ("ifs", 330, "a.msv:68:6"),
            ("chain", 599, "a.msv:4:265"),
        ],
    )
    def test_nesting_past_the_bound_is_one_located_parse_error(self, runner, tmp_path, shape, levels, where):
        result = runner.invoke(main, ["scan", deep_corpus(tmp_path, shape, levels)])
        assert result.exit_code == 2
        assert result.output == f"privflow: {where}: nesting deeper than {MAX_DEPTH} levels\n"


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

    def test_flow_query_replays_a_trace_record(self, runner, tmp_path):
        """A scan's ``q_flow`` record names one search, from one source to
        every target it sought; ``--to`` once per target replays it to its
        recorded count, the paths in target order."""
        root = tmp_path / "corpus"
        root.mkdir()
        write_fanout_corpus(root)
        trace = tmp_path / "trace.jsonl"
        assert runner.invoke(main, ["scan", str(root), "--trace", str(trace)]).exit_code == 1
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        args, count = next((r["args"], r["result_count"]) for r in records if r["tool"] == "q_flow" and r["result_count"] > 1)
        assert len(args["to"]) > count
        command = ["query", str(root), "--service", args["service"], "--op", "flow", "--from", args["from"]]
        result = runner.invoke(main, command + [option for dst in args["to"] for option in ("--to", dst)])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert len(rows) == count
        assert all(row["service"] == args["service"] and row["elements"][0] == args["from"] for row in rows)
        ends = [row["elements"][-1] for row in rows]
        assert ends == [dst for dst in args["to"] if dst in ends]

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

    def test_empty_route_rejected_by_scan_and_query_alike(self, runner, tmp_path):
        """An empty route path is a parse error naming its decorator, for
        ``scan`` and for every ``query`` operation."""
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "svc.msv").write_text('@route("GET", "")\nfn ping() { x = 1 }\n', encoding="utf-8")
        manifest = {"version": 1, "services": [{"name": "svc", "entry": True, "sources": ["svc.msv"]}]}
        (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        query = ["query", str(root), "--service", "svc"]
        for args in (
            ["scan", str(root)],
            query + ["--op", "name", "--pattern", "ping"],
            query + ["--op", "cg", "--function", "ping"],
            query + ["--op", "flow", "--from", "ping", "--to", "ping"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args
            assert "svc.msv:1:1: @route path must be non-empty" in result.output, args

    def test_relative_route_is_a_located_parse_error(self, runner, tmp_path):
        """A route path must start with '/', as a route prefix does: a
        relative ``"run"`` no prefix covers would scan to 0 flows and exit 0."""
        root = tmp_path / "exec_open"
        shutil.copytree(CORPORA / "exec_open", root)
        source = root / "ops.msv"
        source.write_text(source.read_text().replace('"/run"', '"run"'))
        result = runner.invoke(main, ["scan", str(root)])
        assert result.exit_code == 2
        assert result.output == (
            "privflow: ops.msv:2:1: @route path must start with '/', got 'run' (expected @route(\"METHOD\", \"/path\"))\n"
        )


class TestGraphCommand:
    def test_dot_output(self, runner):
        result = runner.invoke(main, ["graph", corpus("role_update")])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert "/setUserRole" in result.output
        assert "style=dashed" in result.output

    def test_quotes_in_names_stay_inside_dot_strings(self, runner, tmp_path):
        """An endpoint name and a topic identifier holding quotes and a
        backslash are escaped; every line stays one DOT statement."""
        topic = 't"opic\\x'
        a = [
            element_record("a1", "a", "endpoint", "a.py", 1, '@route("POST", "/a")', name='/a"] ; x [label="y'),
            element_record("a2", "a", "call", "a.py", 3, "publish(v)"),
            {"rec": "edge", "kind": "dataflow", "from": "a1", "to": "a2"},
            {"rec": "channel", "element": "a2", "direction": "out", "protocol": "topic", "identifier": topic},
        ]
        b = [
            element_record("b1", "b", "call", "b.py", 1, "consume()"),
            element_record("b2", "b", "call", "b.py", 3, "exec(v)"),
            {"rec": "edge", "kind": "dataflow", "from": "b1", "to": "b2"},
            {"rec": "channel", "element": "b1", "direction": "in", "protocol": "topic", "identifier": topic},
        ]
        result = runner.invoke(main, ["graph", write_facts_corpus(tmp_path, {"a": a, "b": b})])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert '  "a1" [label="a:/a\\"] ; x [label=\\"y"];' in lines
        assert '  "a2" -> "b1" [style=dashed, label="t\\"opic\\\\x"];' in lines
        string = r'"(?:[^"\\\n]|\\.)*"'
        statement = rf"  {string}(?: -> {string})?(?: \[(?:style=dashed, )?label={string}\])?;"
        assert lines[0] == "digraph privflow {" and lines[-1] == "}"
        assert all(re.fullmatch(statement, line) for line in lines[1:-1]), lines

    def test_exhausted_privops_budget_prints_partial_graph(self, runner, tmp_path):
        """Forty helper functions whose names read as privileged are forty
        ``ClassifyPrivileged`` backend calls after the round's plan: the
        default budget runs out on the last, and the graph of the
        operations found before it is printed."""
        helpers = "".join(f"fn update_role_{n}(u) {{\n  x = u\n}}\n" for n in range(40))
        (tmp_path / "ops.msv").write_text(
            '@route("POST", "/run")\nfn run() {\n  cmd = request.param("cmd")\n  exec(cmd)\n  '
            'http_post("/internal/run", cmd)\n}\n' + helpers,
            encoding="utf-8",
        )
        (tmp_path / "back.msv").write_text(
            '@route("POST", "/internal/run")\nfn work() {\n  db.write(request.param("cmd"))\n}\n', encoding="utf-8"
        )
        manifest = {
            "version": 1,
            "services": [
                {"name": "ops", "entry": True, "sources": ["ops.msv"]},
                {"name": "back", "sources": ["back.msv"]},
            ],
            "gateway_routes": [{"prefix": "/", "target": "ops"}],
        }
        (tmp_path / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        result = runner.invoke(main, ["graph", str(tmp_path)])
        assert result.exit_code == int(ExitStatus.BUDGET_EXHAUSTED)
        assert result.stdout.startswith("digraph")
        assert ":exec" in result.stdout and ":db.write" in result.stdout and "style=dashed" in result.stdout
        assert result.stderr == "privflow: budget exhausted: privileged_ops: exceeded 40 reasoner calls\n"
        assert "Traceback" not in result.output

    def test_default_budget_graphs_the_generated_fanout(self, runner, tmp_path):
        """The 8x2 fan-out's privileged-operation search asks the backend
        for one plan, well inside the default budget."""
        result = runner.invoke(main, ["graph", str(write_fanout_corpus(tmp_path))])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("digraph") and ":exec" in result.stdout


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
            assert read_facts(text, service.name) == service

    def test_out_under_a_file_is_config_error(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = runner.invoke(main, ["facts", corpus("role_update"), "--out", str(blocker / "out")])
        assert result.exit_code == 2
        assert result.output.startswith("privflow: ")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", ".."])
    def test_service_name_that_is_no_file_name_is_config_error(self, runner, tmp_path, name):
        """``facts`` writes ``NAME.facts.jsonl`` under ``--out``; a service
        name that is a path would write outside it."""
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "svc.msv").write_text("fn ping() { x = 1 }\n", encoding="utf-8")
        manifest = {"version": 1, "services": [{"name": name, "entry": True, "sources": ["svc.msv"]}]}
        (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out" / "inner"
        result = runner.invoke(main, ["facts", str(root), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("privflow: services[0].name: ")
        assert result.output.count("\n") == 1
        assert not list((tmp_path / "out").rglob("*.facts.jsonl"))

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
