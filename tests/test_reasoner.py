import collections
import hashlib
import json

import pytest

from privflow.constraints import PathConstraint, ConstCmp, And, BoolVar, Not
from privflow.load import load_program
from privflow.pipeline import ScanBudget, ScanOptions, Tracer, scan
from privflow.reasoner import (
    Action,
    AssessSufficiency,
    BackendUnavailable,
    CheckClass,
    CheckDescriptor,
    ClassifyCheck,
    ClassifyPrivileged,
    ConfirmUserSource,
    ConstraintExtraction,
    ExtractConstraints,
    GuardDescriptor,
    Memo,
    NextSearchAction,
    PrivilegedClass,
    RulesError,
    SchemaViolation,
    ScriptedOracle,
    Sufficiency,
    TASKS,
    UserSource,
    covering_prefix,
    load_rules,
    make_reasoner,
    split_identifier,
    task_digest,
    task_fields,
)
from privflow.remote import ATTEMPTS, PROMPTS_DIR, RETRY_BACKOFF_S, RemoteConfig, RemoteReasoner, _parse_verdict

from conftest import CORPORA, bench_gen, write_fanout_corpus

UPDATE_ROLE_SRC = 'fn update_role(u, r) {\n  userstore.save(u, r)\n}'
CAN_SWITCH_SRC = 'fn can_switch_roles(u) {\n  r = db.read("select allowed")\n  return r\n}'
AUTHN_SRC = 'fn authn_session() {\n  ok = session.get("token")\n  return ok\n}'


class TestRules:
    def test_default_rules_load(self):
        rules = load_rules()
        assert rules.action_verbs and rules.authn_patterns

    def test_empty_list_rejected(self, tmp_path):
        raw = json.loads((__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE).read_text())
        raw["privileged"]["action_verbs"] = []
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(RulesError) as err:
            load_rules(path)
        assert "action_verbs" in str(err.value)

    def test_bad_pattern_rejected(self, tmp_path):
        raw = json.loads((__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE).read_text())
        raw["privileged"]["critical_action_patterns"] = ["("]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(RulesError):
            load_rules(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RulesError):
            load_rules(tmp_path / "none.json")

    @pytest.mark.parametrize(
        "edit, rules_field",
        [
            (lambda raw: [], "file"),
            (lambda raw: {**raw, "privileged": []}, "privileged"),
            (lambda raw: {**raw, "checks": "authz"}, "checks"),
            (lambda raw: {**raw, "sufficiency": {"ownership_nouns": {"order": 1}}}, "sufficiency.ownership_nouns"),
        ],
    )
    def test_non_object_shapes_rejected(self, tmp_path, edit, rules_field):
        """A top level, section or key of the wrong JSON type is a
        RulesError naming it, not an AttributeError."""
        raw = json.loads(__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE.read_text())
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(edit(raw)))
        with pytest.raises(RulesError) as err:
            load_rules(path)
        assert err.value.field == rules_field

    def test_custom_verb_flips_classification(self, tmp_path):
        oracle = ScriptedOracle()
        task = ClassifyPrivileged(element="e1", name="paySuccess", source="fn paySuccess() { }")
        assert oracle.reason(task).category is None

        raw = json.loads((__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE).read_text())
        raw["privileged"]["critical_action_patterns"].append("(?i)paysuccess")
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(raw))
        custom = ScriptedOracle(load_rules(path))
        assert custom.reason(task).category == "security-critical-action"


class TestClassifyPrivileged:
    def test_update_role_is_protected_state(self, oracle):
        verdict = oracle.reason(ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC))
        assert verdict.category == "protected-state"
        assert verdict.rationale

    def test_logging_is_not_privileged(self, oracle):
        verdict = oracle.reason(ClassifyPrivileged("e1", "", 'log("hello")'))
        assert verdict.category is None

    def test_exec_matches_critical_pattern(self, oracle):
        verdict = oracle.reason(ClassifyPrivileged("e1", "exec", "exec(cmd)"))
        assert verdict.category == "security-critical-action"

    def test_update_account_is_sensitive_resource(self, oracle):
        verdict = oracle.reason(ClassifyPrivileged("e1", "update_account", "fn update_account(a, d) { }"))
        assert verdict.category == "sensitive-resource"

    @pytest.mark.parametrize("name", ["resetPassword", "resetACLPassword", "reset_acl_password"])
    def test_acronym_does_not_hide_the_next_word(self, oracle, name):
        verdict = oracle.reason(ClassifyPrivileged("e1", name, "x"))
        assert verdict.category == "protected-state"


@pytest.mark.parametrize(
    "name, parts",
    [
        ("update_role", ["update", "role"]),
        ("cancelOrder", ["cancel", "order"]),
        ("cancelHTTPOrder", ["cancel", "http", "order"]),
        ("resetACLPassword", ["reset", "acl", "password"]),
        ("HTTPServer", ["http", "server"]),
        ("getHTTP", ["get", "http"]),
        ("sha1Digest", ["sha1", "digest"]),
        ("PRE_PAY", ["pre", "pay"]),
        ("CANCELED", ["canceled"]),
        ("_private__name_", ["private", "name"]),
    ],
)
def test_split_identifier(name, parts):
    """Words break at ``_``, before an uppercase letter after a lowercase
    letter or digit, and before the last letter of an uppercase run that a
    lowercase letter follows; an all-caps word stays whole."""
    assert split_identifier(name) == parts


class TestClassifyCheck:
    def test_authz_function_with_role_helper(self, oracle):
        source = "fn authz() {\n  allowed = can_switch_roles(token)\n  return allowed\n}"
        verdict = oracle.reason(ClassifyCheck("e1", "authz", source, "decorator"))
        assert (verdict.classification, verdict.authz_subtype) == ("authz", "role")

    def test_authn_by_name(self, oracle):
        verdict = oracle.reason(ClassifyCheck("e1", "authn_session", AUTHN_SRC, "decorator"))
        assert (verdict.classification, verdict.authz_subtype) == ("authn", "none")

    def test_ownership_comparison(self, oracle):
        verdict = oracle.reason(ClassifyCheck("e1", "", "order.user_id == current", "inline"))
        assert (verdict.classification, verdict.authz_subtype) == ("authz", "ownership")

    def test_status_guard_is_not_a_check(self, oracle):
        verdict = oracle.reason(ClassifyCheck("e1", "", 'status == "PRE_PAY"', "inline"))
        assert verdict.classification == "none"

    def test_can_prefix_is_role_authz(self, oracle):
        source = 'fn can_manage() {\n  p = session.get("perms")\n  return p\n}'
        verdict = oracle.reason(ClassifyCheck("e1", "can_manage", source, "decorator"))
        assert verdict.classification == "authz"


class TestAssessSufficiency:
    def _task(self, checks, contexts=()):
        return AssessSufficiency(
            privop_name="update_role",
            privop_source="update_role(username, role)",
            privop_category="protected-state",
            checks=tuple(checks),
            contexts=tuple(contexts),
        )

    def test_general_permission_is_insufficient(self, oracle):
        checks = [CheckDescriptor("authz", "role", "can_switch_roles", CAN_SWITCH_SRC)]
        verdict = oracle.reason(self._task(checks))
        assert verdict.verdict == "insufficient_authz"

    def test_authn_only_is_missing_authz(self, oracle):
        checks = [CheckDescriptor("authn", "none", "authn_session", AUTHN_SRC)]
        verdict = oracle.reason(self._task(checks))
        assert verdict.verdict == "missing_authz"

    def test_argument_reference_protects(self, oracle):
        source = 'fn authz() {\n  role = request.param("role")\n  return can_assume_role(role)\n}'
        checks = [CheckDescriptor("authz", "role", "authz", source)]
        verdict = oracle.reason(self._task(checks))
        assert verdict.verdict == "protected"

    def test_no_checks_is_unprotected(self, oracle):
        verdict = oracle.reason(self._task([]))
        assert verdict.verdict == "unprotected"

    def test_ownership_note_for_owned_resources(self, oracle):
        task = AssessSufficiency(
            privop_name="db.write",
            privop_source='db.write("update orders set status=paid where no=" + no)',
            privop_category="security-critical-action",
            checks=(CheckDescriptor("authn", "none", "authn_token", AUTHN_SRC),),
        )
        verdict = oracle.reason(task)
        assert verdict.verdict == "missing_authz"
        assert "ownership" in verdict.rationale

    @pytest.mark.parametrize("source", ["cancel_order(no)", "cancelOrder(no)", "cancelHTTPOrder(no)"])
    def test_ownership_note_splits_snake_and_camel_case(self, oracle, source):
        task = AssessSufficiency("cancel", source, "sensitive-resource", ())
        verdict = oracle.reason(task)
        assert verdict == Sufficiency(
            "unprotected",
            "no authentication or authorization checks guard 'cancel'; missing ownership check for resource 'order'",
        )

    def test_ownership_protects_unreferenced_sensitive_args(self, oracle):
        """An ownership check protects an operation on a sensitive argument
        it never names."""
        checks = [CheckDescriptor("authz", "ownership", "", "order.user_id == current")]
        verdict = oracle.reason(self._task(checks))
        assert verdict == Sufficiency("protected", "authorization establishes resource ownership for 'update_role'")

    def test_ownership_check_protects_unnamed_args(self, oracle):
        task = AssessSufficiency(
            privop_name="db.write",
            privop_source='db.write("update orders where no=" + no)',
            privop_category="security-critical-action",
            checks=(CheckDescriptor("authz", "ownership", "", "order.user_id == current"),),
        )
        assert oracle.reason(task).verdict == "protected"


class TestConstraintsAndSources:
    def test_guard_translation(self, oracle):
        guards = (GuardDescriptor('mode == "A"', (("mode", "string"),)),)
        verdict = oracle.reason(ExtractConstraints(guards))
        assert verdict.constraint is not None
        assert verdict.constraint.variables == (("mode", "string"),)

    def test_helper_call_skips(self, oracle):
        verdict = oracle.reason(ExtractConstraints((GuardDescriptor("is_admin(u)", ()),)))
        assert verdict.constraint is None

    def test_confirm_user_source(self, oracle):
        yes = oracle.reason(ConfirmUserSource("/api/updateProfile", ("/api",)))
        no = oracle.reason(ConfirmUserSource("/internal/health", ("/api",)))
        assert yes.is_user_source and not no.is_user_source

    def test_prefix_is_segment_aware(self, oracle):
        assert not oracle.reason(ConfirmUserSource("/apix/thing", ("/api",))).is_user_source

    @pytest.mark.parametrize(
        "identifier, prefixes, covering",
        [
            ("/{kind}/run", ("/jobs",), "/jobs"),
            ("/:kind/run", ("/jobs",), "/jobs"),
            ("/api/{id}", ("/api/users",), "/api/users"),
            ("/{kind}", ("/jobs/run",), None),
            ("/{kind/run", ("/jobs",), None),
            ("/api/{id}", ("/admin/users", "/api"), "/api"),
        ],
    )
    def test_wildcard_endpoint_segment_covers_any_prefix_segment(self, oracle, identifier, prefixes, covering):
        """An endpoint segment written ``{x}`` or ``:x`` matches any one
        segment of a route prefix, as it matches a channel's segment; a
        prefix longer than the path still covers nothing."""
        task = ConfirmUserSource(identifier, prefixes)
        assert covering_prefix(task) == covering
        assert oracle.reason(task).is_user_source is (covering is not None)


class TestNextSearchAction:
    def test_plan_is_a_verb_and_a_noun_query_per_service(self, oracle):
        plan = oracle.reason(NextSearchAction(1, ("a", "b"), (), (), ("q_name",)))
        assert [(a.tool, a.args["service"]) for a in plan] == [("q_name", "a")] * 2 + [("q_name", "b")] * 2
        assert {action.args["mode"] for action in plan} == {"regex"}
        assert len({_key(action) for action in plan}) == 4
        assert plan[0].rationale == f"round 1: propose {_key(plan[0])}"

    def test_every_round_gets_the_same_plan(self, oracle):
        """The scripted plan reads only the services: the loop, not the
        plan, ends the search."""
        first = oracle.reason(NextSearchAction(1, ("svc",), (), (), ("q_name",)))
        later = oracle.reason(NextSearchAction(2, ("svc",), tuple(map(_key, first)), ("svc:update_role",), ("q_name",)))
        assert [(a.tool, a.args) for a in later] == [(a.tool, a.args) for a in first]

    def test_no_service_is_the_empty_plan(self, oracle):
        assert oracle.reason(NextSearchAction(1, (), (), (), ("q_name",))) == ()


class TestScriptedDeterminism:
    def test_identical_tasks_identical_verdicts(self, oracle):
        task = ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC)
        assert oracle.reason(task) == oracle.reason(task)

    def test_every_verdict_variant_producible(self, oracle):
        produced = {
            type(oracle.reason(ClassifyPrivileged("e", "update_role", UPDATE_ROLE_SRC))),
            type(oracle.reason(ClassifyCheck("e", "authz", "fn authz() { }", "decorator"))),
            type(oracle.reason(AssessSufficiency("f", "f(x)", "protected-state", ()))),
            type(oracle.reason(ExtractConstraints(()))),
            type(oracle.reason(ConfirmUserSource("/x", ("/x",)))),
            type(oracle.reason(NextSearchAction(1, (), (), (), ("q_name",)))),
        }
        assert produced == {PrivilegedClass, CheckClass, Sufficiency, ConstraintExtraction, UserSource, tuple}

    def test_unknown_task_rejected(self, oracle):
        with pytest.raises(TypeError):
            oracle.reason(object())


class TestVerdictVocabulary:
    @pytest.mark.parametrize("category", ["none", "mega", ""])
    def test_privileged_class_rejects_unknown_category(self, category):
        with pytest.raises(ValueError):
            PrivilegedClass(category, "r")

    @pytest.mark.parametrize("verdict", ["none", "denied", "Protected"])
    def test_sufficiency_rejects_unknown_verdict(self, verdict):
        with pytest.raises(ValueError):
            Sufficiency(verdict, "r")


def _key(action):
    return "q_name:" + ",".join(f"{k}={action.args[k]}" for k in sorted(action.args))


# --- remote backend (stubbed transport, no network) --------------------------


def _fake_transport(replies, calls):
    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload, "timeout": timeout})
        status, body = replies.pop(0)
        return status, body

    return transport


def _chat(content):
    return 200, {"choices": [{"message": {"content": content}}]}


def remote(replies, calls):
    config = RemoteConfig(endpoint="http://fake/v1/chat/completions", model="test-model")
    return RemoteReasoner(config, transport=_fake_transport(replies, calls))


class TestRemoteReasoner:
    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """The backoff waits, recorded instead of slept."""
        waits = []
        monkeypatch.setattr("privflow.remote.time.sleep", waits.append)
        return waits

    def test_valid_classification_parsed(self):
        calls = []
        backend = remote([_chat('{"category": "protected-state", "rationale": "changes roles"}')], calls)
        verdict = backend.reason(ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC))
        assert verdict == PrivilegedClass("protected-state", "changes roles")
        payload = calls[0]["payload"]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.2
        assert payload["messages"][0]["role"] == "system"

    def test_malformed_reply_retried_then_schema_violation(self, sleeps):
        calls = []
        bad = _chat("not json at all")
        backend = remote([bad, bad, bad], calls)
        with pytest.raises(SchemaViolation):
            backend.reason(ClassifyPrivileged("e1", "f", "fn f() { }"))
        assert len(calls) == 3
        assert sleeps == [RETRY_BACKOFF_S, 2 * RETRY_BACKOFF_S]

    def test_retry_recovers_on_second_attempt(self):
        calls = []
        backend = remote(
            [_chat("oops"), _chat('{"category": "none", "rationale": "plain helper"}')], calls
        )
        verdict = backend.reason(ClassifyPrivileged("e1", "f", "fn f() { }"))
        assert verdict.category is None
        assert len(calls) == 2

    def test_http_error_is_backend_unavailable(self):
        backend = remote([(503, {})], [])
        with pytest.raises(BackendUnavailable):
            backend.reason(ClassifyPrivileged("e1", "f", "fn f() { }"))

    @pytest.mark.parametrize("content", [None, 42, ["{}"]])
    def test_non_text_content_is_backend_unavailable(self, content):
        backend = remote([_chat(content)], [])
        with pytest.raises(BackendUnavailable):
            backend.reason(ClassifyPrivileged("e1", "f", "fn f() { }"))

    def test_api_key_sent_only_when_set(self, monkeypatch):
        calls = []
        reply = _chat('{"category": "none", "rationale": "plain helper"}')
        backend = remote([reply, reply], calls)
        task = ClassifyPrivileged("e1", "f", "fn f() { }")
        monkeypatch.delenv("PRIVFLOW_API_KEY", raising=False)
        backend.reason(task)
        monkeypatch.setenv("PRIVFLOW_API_KEY", "sk-test")
        backend.reason(task)
        assert [c["headers"] for c in calls] == [
            {"Content-Type": "application/json"},
            {"Content-Type": "application/json", "Authorization": "Bearer sk-test"},
        ]
        assert [c["timeout"] for c in calls] == [60, 60]
        assert {c["url"] for c in calls} == {"http://fake/v1/chat/completions"}

    @pytest.mark.parametrize(
        "task, reply",
        [
            (ClassifyPrivileged("e1", "f", "fn f() { }"), {"category": "mega"}),
            (ClassifyCheck("e1", "g", "g()", "inline"), {"classification": "admin", "subtype": "none"}),
            (ClassifyCheck("e1", "g", "g()", "inline"), {"classification": "authz", "subtype": "none"}),
            (ClassifyCheck("e1", "g", "g()", "inline"), {"classification": "authn", "subtype": "bogus"}),
            (AssessSufficiency("f", "f(x)", "protected-state", ()), {"verdict": "fine"}),
        ],
        ids=["category", "classification", "authz_without_subtype", "authn_bogus_subtype", "verdict"],
    )
    def test_bad_category_rejected_by_schema(self, task, reply):
        calls = []
        backend = remote([_chat(json.dumps({**reply, "rationale": "?"}))] * 3, calls)
        with pytest.raises(SchemaViolation):
            backend.reason(task)
        assert len(calls) == 3

    def test_check_subtype_schema(self):
        backend = remote(
            [_chat('{"classification": "authz", "subtype": "ownership", "rationale": "compares owner"}')], []
        )
        verdict = backend.reason(ClassifyCheck("e1", "guard", "x.owner == me", "inline"))
        assert verdict == CheckClass("authz", "ownership", "compares owner")

    def test_constraint_payload_parsed(self):
        content = json.dumps(
            {
                "skip": False,
                "variables": [{"name": "mode", "type": "string"}],
                "formula": ["and", ["str_lit_cmp", "mode", "==", "A"]],
                "rationale": "one guard",
            }
        )
        backend = remote([_chat(content)], [])
        verdict = backend.reason(ExtractConstraints((GuardDescriptor('mode == "A"', ()),)))
        assert verdict.constraint == PathConstraint(
            (("mode", "string"),), And((ConstCmp("mode", "==", "A"),))
        )

    @pytest.mark.parametrize(
        "task, reply, message",
        [
            (ClassifyPrivileged("e1", "f", "fn f() { }"), "[1, 2]", "reply contains no JSON object"),
            (
                ClassifyPrivileged("e1", "f", "fn f() { }"),
                '{"category": "none"}',
                "field 'rationale' must be a non-empty string",
            ),
            (
                ConfirmUserSource("/x", ("/x",)),
                '{"is_user_source": "yes", "rationale": "r"}',
                "field 'is_user_source' must be a boolean",
            ),
            (
                NextSearchAction(1, (), (), (), ("q_name",)),
                '{"tool": "finish", "args": {}, "rationale": "r"}',
                "field 'queries' must be a list",
            ),
            (
                NextSearchAction(1, (), (), (), ("q_name",)),
                '{"queries": ["q_name"], "rationale": "r"}',
                "each entry of 'queries' must be an object",
            ),
            (
                NextSearchAction(1, (), (), (), ("q_name",)),
                '{"queries": [{"args": {}}], "rationale": "r"}',
                "field 'tool' must be a non-empty string",
            ),
            (
                NextSearchAction(1, (), (), (), ("q_name",)),
                '{"queries": [{"tool": "q_name", "args": []}], "rationale": "r"}',
                "field 'args' must be an object",
            ),
        ],
        ids=[
            "not_an_object",
            "no_rationale",
            "non_boolean_source",
            "non_list_queries",
            "non_object_entry",
            "entry_without_tool",
            "non_object_args",
        ],
    )
    def test_reply_errors(self, task, reply, message):
        """Each way a reply breaks its task's schema raises one
        ``ValueError`` that says why, which ``reason`` asks again for."""
        with pytest.raises(ValueError) as err:
            _parse_verdict(task, reply)
        assert str(err.value) == message

    def test_plan_parsed_in_order(self):
        """Each entry of ``queries`` is one ``Action`` with the reply's
        rationale; an off-vocabulary tool parses, and the scan burns its
        step."""
        args = {"service": "svc", "pattern": "update", "mode": "exact"}
        content = json.dumps({"queries": [{"tool": "q_name", "args": args}, {"tool": "teleport"}], "rationale": "r"})
        plan = remote([_chat(content)], []).reason(NextSearchAction(1, ("svc",), (), (), ("q_name",)))
        assert plan == (Action("q_name", args, "r"), Action("teleport", {}, "r"))
        assert remote([_chat('{"queries": [], "rationale": "done"}')], []).reason(
            NextSearchAction(2, ("svc",), (), (), ("q_name",))
        ) == ()

    @pytest.mark.parametrize(
        "queries", [{"tool": "q_name", "args": {}}, ["q_name"]], ids=["not_a_list", "entry_not_an_object"]
    )
    def test_malformed_plan_is_a_schema_violation(self, queries):
        calls = []
        backend = remote([_chat(json.dumps({"queries": queries, "rationale": "r"}))] * ATTEMPTS, calls)
        with pytest.raises(SchemaViolation):
            backend.reason(NextSearchAction(1, ("svc",), (), (), ("q_name",)))
        assert len(calls) == ATTEMPTS

    def test_unknown_task_rejected(self):
        calls = []
        with pytest.raises(TypeError):
            remote([], calls).reason(object())
        assert calls == []

    def test_make_reasoner_kinds(self):
        assert isinstance(make_reasoner("scripted"), ScriptedOracle)
        with pytest.raises(ValueError):
            make_reasoner("psychic")
        with pytest.raises(BackendUnavailable):
            make_reasoner("remote")  # no endpoint configured

    def test_make_reasoner_remote_from_environment(self, monkeypatch):
        monkeypatch.setenv("PRIVFLOW_ENDPOINT", "http://fake/v1/chat/completions")
        monkeypatch.setenv("PRIVFLOW_MODEL", "test-model")
        backend = make_reasoner("remote")
        assert isinstance(backend, RemoteReasoner)
        assert backend.config == RemoteConfig("http://fake/v1/chat/completions", "test-model")


# One sample of each task, with every field set; each descriptor tuple holds
# two descriptors, and one source holds a non-ASCII character.
PROMPT_SAMPLES = {
    "ClassifyPrivileged": (
        ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC, context=("fn audit() {\n  log(\"café\")\n}",)),
        {"category": "protected-state"},
    ),
    "ClassifyCheck": (
        ClassifyCheck("e2", "can_switch_roles", CAN_SWITCH_SRC, attachment="decorator", context=(AUTHN_SRC,)),
        {"classification": "authz", "subtype": "role"},
    ),
    "AssessSufficiency": (
        AssessSufficiency(
            "userstore.save",
            "userstore.save(u, r)",
            "protected-state",
            checks=(
                CheckDescriptor("authz", "role", "can_switch_roles", CAN_SWITCH_SRC),
                CheckDescriptor("authn", "none", "authn_session", AUTHN_SRC),
            ),
            contexts=(AUTHN_SRC,),
        ),
        {"verdict": "insufficient_authz"},
    ),
    "ExtractConstraints": (
        ExtractConstraints(
            (
                GuardDescriptor('role == "admin" && n > 2', (("n", "int"), ("role", "string"))),
                GuardDescriptor("ok", (("ok", "bool"),)),
            )
        ),
        {"skip": True},
    ),
    "ConfirmUserSource": (ConfirmUserSource("/api/users", ("/api", "/admin")), {"is_user_source": True}),
    "NextSearchAction": (
        NextSearchAction(
            2,
            ("gateway", "usermgmt"),
            ("q_name:mode=regex,pattern=(?i)(update).*,service=usermgmt",),
            ("usermgmt:update_role",),
            ("q_name",),
        ),
        {"queries": []},
    ),
}

# sha256 of each sample's user message, taken from the code before the
# remote backend left ``reasoner`` (``NextSearchAction``'s from the code that
# made it a per-round plan); a task field that stops serialising as a JSON
# object (say, a descriptor turned into a tuple) changes its digest.
PROMPT_DIGESTS = {
    "AssessSufficiency": "6c1786903e36af51af9962eb879f8c859459a9bbeabdd9e6948a0079e8d86cbe",
    "ClassifyCheck": "bc295b7359b625159a95bd9a233283dc933d04032187b5275abc0104896ee580",
    "ClassifyPrivileged": "b6cdc52f57021e8898fb01bec54993b1dc7c55c9b2e9d3df30f571abd9f56265",
    "ConfirmUserSource": "196fd1809b4e127cc98c0edad257afb474f1f473f7c4c0d917595c56ff75427d",
    "ExtractConstraints": "ca56aa676268b42c9e4387a4815775c60a09edb9806d143568a47524b2314139",
    "NextSearchAction": "db7390b8a678863debe0847658827051a5bb3f7af6b5ae7c65faa2ff65843878",
}


def _user_message(task, reply) -> str:
    calls = []
    backend = remote([_chat(json.dumps({**reply, "rationale": "r"}))], calls)
    backend.reason(task)
    assert len(calls) == 1
    return calls[0]["payload"]["messages"][1]["content"]


class TestRemotePrompts:
    def test_samples_cover_every_task(self):
        assert {type(task) for task, _ in PROMPT_SAMPLES.values()} == set(TASKS)
        assert set(PROMPT_SAMPLES) == {t.__name__ for t in TASKS} == set(PROMPT_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PROMPT_SAMPLES))
    def test_user_message_is_byte_identical(self, name):
        message = _user_message(*PROMPT_SAMPLES[name])
        assert hashlib.sha256(message.encode("utf-8")).hexdigest() == PROMPT_DIGESTS[name]

    def test_descriptors_are_json_objects(self):
        """The nested descriptors reach the prompt as objects with named
        fields, not as arrays."""
        for name, key, fields in (
            ("AssessSufficiency", "checks", ["classification", "name", "source", "subtype"]),
            ("ExtractConstraints", "guards", ["source", "var_types"]),
        ):
            message = _user_message(*PROMPT_SAMPLES[name])
            template = (PROMPTS_DIR / ("_".join(split_identifier(name)) + ".md")).read_text(encoding="utf-8")
            before, after = template.split("{task_json}")
            assert message.startswith(before) and message.endswith(after)
            task_json = json.loads(message[len(before) : len(message) - len(after)])
            assert task_json["task"] == name
            assert [sorted(d) for d in task_json[key]] == [fields, fields]


# --- per-scan verdict memo -------------------------------------------------------


def _authz_checks(task: AssessSufficiency) -> list[CheckDescriptor]:
    return [c for c in task.checks if c.classification == "authz"]


CORPUS_NAMES = [p.name for p in sorted(CORPORA.iterdir()) if p.is_dir()] + ["gen-chain4x12", "gen-fanout8x2"]


def _corpus_root(corpus: str, tmp_path):
    """A corpus under ``tests/corpora``, or ``bench/gen.py``'s chain 4x12
    or fan-out 8x2 (seed 1) written to ``tmp_path``."""
    if corpus == "gen-chain4x12":
        bench_gen().chain(1, 4, 12, tmp_path)
    elif corpus == "gen-fanout8x2":
        bench_gen().fanout(1, 8, 2, tmp_path)
    else:
        return CORPORA / corpus
    return tmp_path


class TaskLog:
    """A backend that logs every task it is asked and answers with the
    scripted oracle, after raising the given failures on its first asks."""

    def __init__(self, failures=()):
        self.oracle = ScriptedOracle()
        self.tasks = []
        self.failures = list(failures)

    def reason(self, task):
        self.tasks.append(task)
        if self.failures:
            raise self.failures.pop(0)
        return self.oracle.reason(task)


class TestMemo:
    def test_equal_task_asked_once(self):
        backend = TaskLog()
        memo = Memo(backend)
        first = memo.reason(ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC))
        again = memo.reason(ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC))
        other = memo.reason(ClassifyPrivileged("e2", "update_role", UPDATE_ROLE_SRC))
        assert again is first
        assert other == first and other is not first
        assert [t.element for t in backend.tasks] == ["e1", "e2"]

    @pytest.mark.parametrize("error", [BackendUnavailable("HTTP 503"), SchemaViolation("ClassifyCheck: bad")])
    def test_failure_is_not_stored(self, error):
        backend = TaskLog(failures=[error, error])
        memo = Memo(backend)
        task = ClassifyCheck("e1", "authz", "fn authz() { }", "decorator")
        for _ in range(2):
            with pytest.raises(type(error)):
                memo.reason(task)
        verdict = memo.reason(task)
        assert memo.reason(task) is verdict
        assert backend.tasks == [task] * 3

    def test_each_lookup_is_one_record(self):
        """A ``Memo`` bound to a tracer records each lookup before it
        answers: ``reason`` for a backend call, ``decided`` for a task the
        program answers, ``memo_hit`` for a stored verdict."""
        backend, tracer = TaskLog(), Tracer(OPEN_BUDGET)
        memo = Memo(backend, tracer)
        asked = ClassifyPrivileged("e1", "update_role", UPDATE_ROLE_SRC)
        decided = ExtractConstraints(())
        for task in (asked, decided, asked, decided):
            memo.reason(task)
        assert [(tool, args) for _, tool, args, _, _ in tracer.calls] == [
            ("reason", asked), ("decided", decided), ("memo_hit", asked), ("memo_hit", decided)
        ]
        assert backend.tasks == [asked]
        assert tracer.reasoner_calls == {"privileged_ops": 1}

    def test_task_digest_is_the_canonical_task_json(self):
        task = PROMPT_SAMPLES["ExtractConstraints"][0]
        text = json.dumps({**task_fields(task), "task": "ExtractConstraints"}, sort_keys=True, separators=(",", ":"))
        assert task_digest(task) == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert task_digest(ConfirmUserSource("/a", ("/",))) != task_digest(ConfirmUserSource("/a", ("/b",)))

    def test_name_forwarded(self):
        assert Memo(ScriptedOracle()).name == "scripted"
        assert Memo(remote([], [])).name == "remote"
        assert Memo(TaskLog()).name == "TaskLog"

    @pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.iterdir() if p.is_dir()))
    @pytest.mark.parametrize(
        "options",
        [ScanOptions(), ScanOptions(basic_sink=True), ScanOptions(on_demand_context=False)],
        ids=["default", "basic_sink", "no_odctx"],
    )
    def test_scan_never_repeats_a_task(self, corpus, options):
        backend = TaskLog()
        payload = scan(load_program(CORPORA / corpus), backend, options=options)
        assert payload["reasoner"] == "TaskLog"
        assert len(backend.tasks) == len(set(backend.tasks))

    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_one_backend_plan_per_round(self, corpus, tmp_path):
        """The privileged-operation loop asks the backend for one plan per
        round, rounds 1, 2, ... in order, and the trace holds one
        ``NextSearchAction`` record per round, each a backend call."""
        backend = TaskLog()
        trace = tmp_path / "trace.jsonl"
        program = load_program(_corpus_root(corpus, tmp_path / "corpus"))
        scan(program, backend, OPEN_BUDGET, ScanOptions(trace_path=str(trace)))
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        plans = [record["tool"] for record in records if record["args"].get("task") == "NextSearchAction"]
        rounds = [task.round for task in backend.tasks if isinstance(task, NextSearchAction)]
        assert rounds == list(range(1, len(plans) + 1))
        assert set(plans) == {"reason"}

    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_reason_records_are_the_backend_tasks(self, corpus, tmp_path):
        """A scan's ``reason`` records are the tasks its backend is asked,
        in order, each named by its kind and ``task_digest``, and the
        report's ``budget.reasoner_calls`` counts them. Every other lookup
        is a ``decided`` or ``memo_hit`` record."""
        backend = TaskLog()
        trace = tmp_path / "trace.jsonl"
        program = load_program(_corpus_root(corpus, tmp_path / "corpus"))
        payload = scan(program, backend, OPEN_BUDGET, ScanOptions(trace_path=str(trace)))
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        reasons = [r["args"] for r in records if r["tool"] == "reason"]
        assert reasons == [{"task": type(task).__name__, "digest": task_digest(task)} for task in backend.tasks]
        assert sum(payload["budget"]["reasoner_calls"].values()) == len(backend.tasks)
        lookups = [r for r in records if "task" in r["args"]]
        assert {r["tool"] for r in lookups} <= {"reason", "decided", "memo_hit"}
        assert {r["args"]["task"] for r in lookups} <= {t.__name__ for t in TASKS}

    def test_fanout_asks_each_distinct_task_once(self, tmp_path):
        """The fan-out's 256 paths share one ExtractConstraints and one
        AssessSufficiency task and classify the same 16 endpoint guards:
        2,563 tasks, 21 of them distinct, one of them the search's one
        round plan. Each distinct task reaches the backend once, but for
        the AssessSufficiency and the two ConfirmUserSource tasks: every
        guard classifies as ``none``, so the sink holds no check, and a
        route prefix covers each entry endpoint, so the memo answers
        them."""
        backend = TaskLog()
        payload = scan(load_program(write_fanout_corpus(tmp_path)), backend, ScanBudget(max_tool_calls_per_phase=10**9))
        assert payload["funnel"]["findings"] == 256
        assert len(backend.tasks) == len(set(backend.tasks))
        assert collections.Counter(type(t).__name__ for t in backend.tasks) == {
            "NextSearchAction": 1,
            "ClassifyCheck": 16,
            "ExtractConstraints": 1,
        }


OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)


class ProtectsEverything(ScriptedOracle):
    """A backend that guesses ``protected`` for every sink."""

    def reason(self, task):
        if isinstance(task, AssessSufficiency):
            return Sufficiency("protected", "guessed")
        return super().reason(task)


class PrunesEverything(ScriptedOracle):
    """A backend that guesses a contradiction for every flow's guards."""

    def reason(self, task):
        if isinstance(task, ExtractConstraints):
            ghost = BoolVar("ghost")
            return ConstraintExtraction(PathConstraint((("ghost", "bool"),), And((ghost, Not(ghost)))), "guessed")
        return super().reason(task)


class RejectsEverySource(ScriptedOracle):
    """A backend that guesses that no source is user input."""

    def reason(self, task):
        if isinstance(task, ConfirmUserSource):
            return UserSource(False, "guessed")
        return super().reason(task)


class TestDecidedTasks:
    """A flow with no guard, a sink with no authorization check and an
    endpoint a route prefix covers have one sound answer each, which the
    scan's memo gives without asking the backend."""

    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_no_backend_is_asked_what_the_program_decides(self, corpus, tmp_path):
        backend = TaskLog()
        payload = scan(load_program(_corpus_root(corpus, tmp_path)), backend, OPEN_BUDGET)
        assert not payload["budget"]["exhausted"]
        assert not [t for t in backend.tasks if isinstance(t, ExtractConstraints) and not t.guards]
        assert not [t for t in backend.tasks if isinstance(t, AssessSufficiency) and not _authz_checks(t)]
        assert not [t for t in backend.tasks if isinstance(t, ConfirmUserSource) and covering_prefix(t)]
        if corpus == "gen-chain4x12":
            assert len(backend.tasks) == 1 and payload["funnel"]["findings"] == 48

    @pytest.mark.parametrize("backend", [ProtectsEverything(), PrunesEverything()], ids=lambda b: type(b).__name__)
    def test_a_guess_cannot_drop_an_unchecked_unguarded_flow(self, backend):
        payload = scan(load_program(CORPORA / "exec_open"), backend)
        assert payload["funnel"] == {
            "initial_flows": 1, "constraint_pruned": 0, "protected_dropped": 0, "budget_truncated": 0, "findings": 1
        }
        (finding,) = payload["findings"]
        assert (finding["verdict"], finding["feasibility"]) == ("unprotected", "feasible")
        assert finding["rationale"] == "no authentication or authorization checks guard 'exec'"

    @pytest.mark.parametrize("corpus", ["admin_guarded", "ownership_cancel"])
    def test_a_constraint_on_no_guard_identifier_cannot_prune(self, corpus):
        """``PrunesEverything`` answers every guarded flow with a
        contradiction over ``ghost``, which no guard names: the extraction
        counts as skipped, so nothing is pruned, and the funnel and the
        findings are the scripted oracle's but for the skipped status."""
        program = load_program(CORPORA / corpus)
        expected = scan(program, ScriptedOracle())
        payload = scan(program, PrunesEverything())
        assert payload["funnel"]["constraint_pruned"] == 0
        assert payload["funnel"] == expected["funnel"]
        assert payload["protected_flows"] == expected["protected_flows"]

        def unconstrained(finding):
            return {k: v for k, v in finding.items() if k not in ("constraint", "feasibility")}

        assert [*map(unconstrained, payload["findings"])] == [*map(unconstrained, expected["findings"])]
        assert {f["constraint"]["status"] for f in payload["findings"]} <= {"skipped"}

    @pytest.mark.parametrize("corpus", ["order_payment", "account_update"])
    def test_a_guess_cannot_drop_an_authentication_only_flow(self, corpus):
        """Authentication alone never authorizes: a sink whose checks hold
        no ``authz`` one is ``missing_authz`` whatever the backend says."""
        program = load_program(CORPORA / corpus)
        expected = scan(program, ScriptedOracle())
        payload = scan(program, ProtectsEverything())
        assert [f["verdict"] for f in payload["findings"]] == ["missing_authz"]
        assert (payload["funnel"], payload["findings"]) == (expected["funnel"], expected["findings"])

    @pytest.mark.parametrize("corpus", ["exec_open", "role_update"])
    def test_a_guess_cannot_drop_a_routed_endpoint(self, corpus):
        program = load_program(CORPORA / corpus)
        expected = scan(program, ScriptedOracle())
        payload = scan(program, RejectsEverySource())
        assert payload["funnel"]["findings"] >= 1
        assert (payload["funnel"], payload["findings"]) == (expected["funnel"], expected["findings"])

    def test_an_uncovered_path_and_a_consumer_reach_the_backend(self, tmp_path):
        (tmp_path / "api.msv").write_text(
            '@route("POST", "/api/run")\nfn run() {\n  exec(request.param("cmd"))\n}\n'
            '@route("POST", "/other")\nfn other() {\n  exec(request.param("cmd"))\n}\n'
            'fn work() {\n  exec(consume("jobs"))\n}\n',
            encoding="utf-8",
        )
        manifest = {
            "version": 1,
            "services": [{"name": "api", "entry": True, "sources": ["api.msv"]}],
            "gateway_routes": [{"prefix": "/api", "target": "api"}],
        }
        (tmp_path / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        backend = TaskLog()
        payload = scan(load_program(tmp_path), backend)
        asked = [t for t in backend.tasks if isinstance(t, ConfirmUserSource)]
        assert asked == [ConfirmUserSource("/other", ("/api",)), ConfirmUserSource("consume", ("/api",))]
        assert [payload["elements"][f["evidence"][0]]["name"] for f in payload["findings"]] == ["/api/run"]

    def test_the_decided_verdict_reads_the_backends_rules(self, tmp_path):
        raw = json.loads((__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE).read_text())
        raw["sufficiency"]["ownership_nouns"] = ["status"]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(raw))
        payload = scan(load_program(CORPORA / "wildcard_cancel"), ScriptedOracle(load_rules(path)))
        (finding,) = payload["findings"]
        assert finding["rationale"] == (
            "no authentication or authorization checks guard 'db.write'; missing ownership check for resource 'status'"
        )

    def test_shipped_rules_are_loaded_once(self, tmp_path):
        assert ScriptedOracle().rules is ScriptedOracle().rules is load_rules()
        path = tmp_path / "rules.json"
        path.write_text((__import__("privflow.reasoner", fromlist=["RULES_RESOURCE"]).RULES_RESOURCE).read_text())
        assert load_rules(path) is not load_rules(path)
        path.write_text("[]")
        with pytest.raises(RulesError):
            load_rules(path)
