import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privflow import crossflow, search
from privflow.crossflow import (
    BudgetExhausted,
    ChannelEdge,
    GlobalGraph,
    GlobalPath,
    build_global_graph,
    channels_match,
    match_channels,
    normalize_http_identifier,
    q_globalflow,
    q_inter,
    q_source,
    q_user,
    to_dot,
)
from privflow.load import load_program
from privflow.model import (
    Channel,
    GatewayRoute,
    Manifest,
    ManifestService,
    Program,
    ElementKind,
    Service,
    call_callee,
    short_id,
)
from privflow.pipeline import PrivilegedOperation, ScanBudget, ScanOptions, Tracer, find_privileged_ops, scan
from privflow.reasoner import Memo
from privflow.report import ExitStatus, exit_status
from privflow.search import FlowPath, UnresolvedChannel, q_flow

from path_reference import all_simple_paths, class_key, reference_classes
from conftest import (
    CORPORA,
    bench_gen,
    build_random_program,
    build_tied_service,
    lower_snippet,
    make_element,
    oracle_closure,
    reference_shortest_path,
    shortest_path_counts,
    write_fanout_corpus,
)

CORPUS_DIRS = sorted(p for p in CORPORA.iterdir() if p.is_dir())
OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)

# Channels for the pairwise-reference test. Outbound URLs with and without
# scheme://host:port and a query, inbound paths, both with doubled and
# trailing slashes, wildcard segments and literal braces; topics.
HTTP_PATHS = st.tuples(
    st.lists(st.sampled_from(["a", "b", "{x}", ":x", "{x", ""]), max_size=3).map("/".join),
    st.sampled_from(["", "/", "//"]),
).map(lambda parts: "/" + parts[0] + parts[1])
CHANNEL_SPECS = st.one_of(
    st.tuples(
        st.just("out"),
        st.just("http"),
        st.tuples(
            st.sampled_from(["", "http://h:8080", "HTTPS://h"]),
            HTTP_PATHS,
            st.sampled_from(["", "?q=1", "?q=/a", "#/a", "?q=1#f"]),
        ).map("".join),
    ),
    st.tuples(st.just("in"), st.just("http"), HTTP_PATHS),
    st.tuples(st.sampled_from(["out", "in"]), st.just("topic"), st.sampled_from(["a", "b"])),
)


class TestQSource:
    def test_role_route_source_is_endpoint(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        sources = q_source(usermgmt)
        assert [e.name for e in sources] == ["/setUserRole"]

    def test_no_sources(self):
        svc = lower_snippet("fn helper() { x = 1 }")
        assert q_source(svc) == ()

    def test_routes_plus_consumer(self):
        svc = lower_snippet(
            '@route("GET", "/a") fn a() { x = 1 }\n'
            '@route("GET", "/b") fn b() { y = 1 }\n'
            'fn w() { m = consume("jobs") }'
        )
        assert len(q_source(svc)) == 3


class TestQUser:
    def test_prefix_filter(self, oracle):
        svc = lower_snippet(
            '@route("POST", "/api/updateProfile") fn a() { x = 1 }\n'
            '@route("GET", "/internal/health") fn b() { y = 1 }',
            service="gateway",
            file="gateway.msv",
        )
        manifest = Manifest(
            1,
            (ManifestService("gateway", entry=True, sources=("gateway.msv",)),),
            (GatewayRoute("/api", "gateway"),),
        )
        program = Program((svc,), manifest)
        assert [e.name for e in q_user(program, oracle)] == ["/api/updateProfile"]

    def test_zero_routes_zero_sources(self):
        """A service no route targets has no user source, and its sources
        are not put to the reasoner."""
        asked = []

        class Refusing:
            def reason(self, task):
                asked.append(task)
                raise AssertionError("no task expected")

        svc = lower_snippet('@route("GET", "/x") fn a() { x = 1 }', service="g", file="g.msv")
        manifest = Manifest(1, (ManifestService("g", entry=True, sources=("g.msv",)),), ())
        assert q_user(Program((svc,), manifest), Refusing()) == []
        assert asked == []

    def test_role_update_user_source(self, role_update_program, oracle):
        assert [e.name for e in q_user(role_update_program, oracle)] == ["/updateProfile"]

    def test_each_routed_service_checked_against_its_own_routes(self, oracle):
        """Every service a route targets contributes the sources its own
        routes' prefixes cover, whether it is the entry or not, in program
        order; a prefix routed to another service covers nothing here."""
        front = lower_snippet(
            '@route("POST", "/api/a") fn a() { x = 1 }\n@route("POST", "/internal/b") fn b() { y = 1 }',
            service="front",
            file="front.msv",
        )
        back = lower_snippet(
            '@route("POST", "/internal/c") fn c() { x = 1 }\n@route("POST", "/admin/d") fn d() { y = 1 }\n'
            '@route("POST", "/api/e") fn e() { z = 1 }',
            service="back",
            file="back.msv",
        )
        hidden = lower_snippet('@route("POST", "/api/f") fn f() { x = 1 }', service="hidden", file="hidden.msv")
        manifest = Manifest(
            1,
            (
                ManifestService("front", entry=True, sources=("front.msv",)),
                ManifestService("back", sources=("back.msv",)),
                ManifestService("hidden", sources=("hidden.msv",)),
            ),
            (GatewayRoute("/internal", "back"), GatewayRoute("/api", "front"), GatewayRoute("/admin", "back")),
        )
        program = Program((front, back, hidden), manifest)
        assert [(e.service, e.name) for e in q_user(program, oracle)] == [
            ("front", "/api/a"),
            ("back", "/internal/c"),
            ("back", "/admin/d"),
        ]

    def test_each_question_is_recorded_before_it_is_asked(self, oracle):
        """``q_user`` asks one ``ConfirmUserSource`` per source, in the
        services' program order. Through a ``Memo`` bound to a tracer each
        is recorded before it is answered: ``gateway_exposed``'s sources are
        covered by route prefixes, so each is a ``decided`` record and the
        backend is asked nothing."""
        program = load_program(CORPORA / "gateway_exposed")
        events = []

        class Logged:
            def reason(self, task):
                events.append(("ask", task.identifier))
                return oracle.reason(task)

        class LoggedTracer(Tracer):
            def record(self, tool, args, result_count):
                events.append((tool, args.identifier))
                super().record(tool, args, result_count)

        sources = [src for service in program.services for src in q_source(service)]
        assert [src.name for src in q_user(program, Logged())] == ["/ops/run", "/internal/run"]
        assert events == [("ask", src.name) for src in sources]
        events.clear()
        confirmed = q_user(program, Memo(Logged(), LoggedTracer(OPEN_BUDGET)))
        assert [src.name for src in confirmed] == ["/ops/run", "/internal/run"]
        assert events == [("decided", src.name) for src in sources]

    def test_an_exhausted_budget_keeps_the_sources_confirmed_before_it(self, oracle, tmp_path):
        """A routed service whose endpoints ``/b`` and ``/d`` no route prefix
        covers sends their ``ConfirmUserSource`` tasks to the backend. At
        one backend call per phase, the budget runs out at ``/d``'s
        ``reason`` record: the raised ``BudgetExhausted`` carries the
        sources confirmed before it, the covered ``/api/a`` and ``/api/c``,
        and a scan's report lists them."""
        (tmp_path / "api.msv").write_text(
            "".join(
                f'@route("POST", "{path}")\nfn h{n}() {{\n  exec(request.param("cmd"))\n}}\n'
                for n, path in enumerate(("/api/a", "/b", "/api/c", "/d"))
            ),
            encoding="utf-8",
        )
        manifest = {
            "version": 1,
            "services": [{"name": "api", "entry": True, "sources": ["api.msv"]}],
            "gateway_routes": [{"prefix": "/api", "target": "api"}],
        }
        (tmp_path / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        program = load_program(tmp_path)
        sources = {src.name: src for service in program.services for src in q_source(service)}
        assert sorted(sources) == ["/api/a", "/api/c", "/b", "/d"]
        tracer = Tracer(ScanBudget(max_tool_calls_per_phase=1))
        tracer.phase = "flow"
        with pytest.raises(BudgetExhausted) as err:
            q_user(program, Memo(oracle, tracer))
        assert err.value.partial == [sources["/api/a"], sources["/api/c"]]
        assert [(tool, args.identifier) for _, tool, args, _, _ in tracer.calls] == [
            ("decided", "/api/a"), ("reason", "/b"), ("decided", "/api/c"), ("reason", "/d")
        ]
        payload = scan(program, oracle, ScanBudget(max_tool_calls_per_phase=1), ScanOptions(basic_sink=True))
        assert payload["budget"]["exhausted_reason"] == "flow: exceeded 1 reasoner calls"
        assert [s["name"] for s in payload["user_sources"]] == ["/api/a", "/api/c"]

    def test_gateway_routed_internal_service_is_attack_surface(self, oracle):
        """``gateway_exposed`` routes ``/internal`` to ``back``, whose
        ``exec`` runs with no check of its own: the flow from that endpoint
        is a finding, while the guarded flow through ``front`` stays
        protected. ``gateway_internal`` has no such route and is clean."""
        payload = scan(load_program(CORPORA / "gateway_exposed"), oracle)
        assert [e["name"] for e in payload["user_sources"]] == ["/ops/run", "/internal/run"]
        assert [
            (f["privileged_operation"]["service"], f["privileged_operation"]["name"], f["verdict"], f["path"]["services"])
            for f in payload["findings"]
        ] == [("back", "exec", "unprotected", ["back"])]
        assert payload["funnel"] == {
            "initial_flows": 2, "constraint_pruned": 0, "protected_dropped": 1, "budget_truncated": 0, "findings": 1
        }
        assert exit_status(payload) is ExitStatus.FINDINGS

        payload = scan(load_program(CORPORA / "gateway_internal"), oracle)
        assert [e["name"] for e in payload["user_sources"]] == ["/ops/run"]
        assert payload["funnel"]["protected_dropped"] == 1 and payload["findings"] == []
        assert exit_status(payload) is ExitStatus.CLEAN

    def test_wildcard_segment_of_a_routed_endpoint_is_covered(self, oracle):
        """``gateway_wildcard``'s handler of ``/{kind}/run`` is reached by a
        request to ``/jobs/run`` through the route prefix ``/jobs``: it is a
        user source, and its unchecked ``exec`` a finding."""
        payload = scan(load_program(CORPORA / "gateway_wildcard"), oracle)
        assert [(e["service"], e["name"]) for e in payload["user_sources"]] == [("jobs", "/{kind}/run")]
        assert [(f["privileged_operation"]["name"], f["verdict"]) for f in payload["findings"]] == [
            ("exec", "unprotected")
        ]
        assert exit_status(payload) is ExitStatus.FINDINGS


class TestQInter:
    def test_direct_url_channel(self):
        svc = lower_snippet('fn f() { http_post("http://localhost:5000/setUserRole", "b") }')
        scan = q_inter(svc)
        out = [c for c in scan.channels if c.direction == "out"]
        assert [c.identifier for c in out] == ["http://localhost:5000/setUserRole"]
        assert scan.unresolved == ()

    def test_concatenated_constant(self, role_update_program):
        userprofile = role_update_program.service("userprofile")
        out = [c for c in q_inter(userprofile).channels if c.direction == "out"]
        assert [c.identifier for c in out] == ["http://localhost:5000/setUserRole"]

    def test_dynamic_identifier_is_diagnostic(self):
        svc = lower_snippet('fn f() { u = request.param("target") http_post(u, "b") }')
        scan = q_inter(svc)
        assert [c for c in scan.channels if c.direction == "out"] == []
        assert len(scan.unresolved) == 1
        assert scan.unresolved[0].callee == "http_post"

    def test_runtime_base_url_is_reported_unresolved(self, oracle):
        """A base URL read at run time leaves the call site's identifier
        unresolved: ``q_inter`` lists the site and the report says so. Only
        the diagnostic is pinned here, not which flows the scan finds."""
        svc = lower_snippet(
            '@route("POST", "/role") fn f() { base = session.get("url") body = request.param("b") '
            'http_post(base + "/x", body) }',
            service="front",
            file="front.msv",
        )
        (site,) = [e for e in svc.elements if call_callee(e) == "http_post"]
        assert q_inter(svc).unresolved == (UnresolvedChannel("front", site.id, "http_post"),)
        text = f"front: http_post call {site.id} has a non-constant channel identifier"
        assert str(q_inter(svc).unresolved[0]) == text
        manifest = Manifest(1, (ManifestService("front", entry=True, sources=("front.msv",)),), (GatewayRoute("/", "front"),))
        payload = scan(Program((svc,), manifest), oracle)
        assert payload["channels"]["unresolved"] == [text]

    def test_repeated_calls_return_one_immutable_scan(self):
        svc = lower_snippet(
            'const BASE = "http://b:8080"\n'
            '@route("POST", "/a") fn a() { u = request.param("u") http_post(BASE + "/x", u) http_post(u, u) }'
        )
        first = q_inter(svc)
        assert q_inter(svc) is first
        assert all(isinstance(part, tuple) for part in first)
        assert len(first.channels) == 2 and len(first.unresolved) == 1 and len(first.sources) == 1
        assert q_source(svc) is first.sources

    def test_scan_walks_each_service_once(self, corpora_root, oracle, monkeypatch):
        """One scan builds one index per service, and the index's element
        pass is the only walk over a service's elements."""
        built = []

        class CountingIndex(search.ServiceIndex):
            def __init__(self, service):
                built.append(service.name)
                super().__init__(service)

        monkeypatch.setattr(search, "ServiceIndex", CountingIndex)
        program = load_program(corpora_root / "role_update")
        scan(program, oracle)
        assert sorted(built) == sorted(s.name for s in program.services)

    def test_endpoints_are_in_channels(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        inbound = [c for c in q_inter(usermgmt).channels if c.direction == "in"]
        assert [c.identifier for c in inbound] == ["/setUserRole"]


class TestChannelMatching:
    def test_scheme_and_host_stripped(self):
        assert normalize_http_identifier("http://localhost:5000/setUserRole") == "/setUserRole"
        assert normalize_http_identifier("https://svc.internal/a/b?x=1") == "/a/b"
        assert normalize_http_identifier("/already/bare") == "/already/bare"

    def test_authority_ends_at_query_or_fragment(self):
        assert normalize_http_identifier("http://h?x=/a") == "/"
        assert normalize_http_identifier("http://h#/a") == "/"
        assert normalize_http_identifier("http://h:8080?x=/a/b#/c") == "/"
        assert normalize_http_identifier("http://h") == "/"

    def test_path_drops_query_and_fragment(self):
        assert normalize_http_identifier("http://h/a#top") == "/a"
        assert normalize_http_identifier("http://h/a#top?x=1") == "/a"
        assert normalize_http_identifier("http://h/a?x=1#top") == "/a"
        assert normalize_http_identifier("/a/b#top") == "/a/b"

    def test_exact_match(self):
        out = Channel("e1", "out", "http", "http://localhost:5000/setUserRole")
        inn = Channel("e2", "in", "http", "/setUserRole")
        assert channels_match(out, inn) == "exact"

    def test_wildcard_segment(self):
        out = Channel("e1", "out", "http", "http://orders:9090/orders/42")
        inn = Channel("e2", "in", "http", "/orders/{id}")
        assert channels_match(out, inn) == "wildcard"
        colon = Channel("e3", "in", "http", "/orders/:id")
        assert channels_match(out, colon) == "wildcard"

    def test_distinct_topics_do_not_match(self):
        out = Channel("e1", "out", "topic", "payments")
        inn = Channel("e2", "in", "topic", "refunds")
        assert channels_match(out, inn) is None

    def test_protocols_do_not_mix(self):
        out = Channel("e1", "out", "http", "/payments")
        inn = Channel("e2", "in", "topic", "payments")
        assert channels_match(out, inn) is None

    def test_ambiguous_match_produces_all_edges_and_diagnostic(self):
        from privflow.crossflow import ambiguous_matches
        from privflow.model import Channel, Edge

        sender = lower_snippet(
            'fn f() { http_post("http://x:1/orders", "b") }', service="sender", file="sender.msv"
        )
        a = lower_snippet('@route("POST", "/orders") fn h() { x = 1 }', service="recv_a", file="a.msv")
        b = lower_snippet('@route("POST", "/orders") fn h() { x = 1 }', service="recv_b", file="b.msv")
        manifest = Manifest(
            1,
            (
                ManifestService("sender", entry=True, sources=("sender.msv",)),
                ManifestService("recv_a", sources=("a.msv",)),
                ManifestService("recv_b", sources=("b.msv",)),
            ),
            (GatewayRoute("/", "sender"),),
        )
        edges = match_channels(Program((sender, a, b), manifest))
        assert {e.to_service for e in edges} == {"recv_a", "recv_b"}
        assert len(ambiguous_matches(edges)) == 1

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_matches_pairwise_reference_on_corpora(self, corpus):
        program = load_program(corpus)
        assert match_channels(program) == pairwise_match_channels(program)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(CHANNEL_SPECS, max_size=6), min_size=2, max_size=3))
    def test_matches_pairwise_reference_on_channel_sets(self, services):
        program = channel_program(services)
        assert match_channels(program) == pairwise_match_channels(program)

    def test_role_update_match(self, role_update_program):
        edges = match_channels(role_update_program)
        assert len(edges) == 1
        assert edges[0].identifier == "/setUserRole"
        assert edges[0].match_rule == "exact"
        assert (edges[0].from_service, edges[0].to_service) == ("userprofile", "usermgmt")


class TestGlobalGraph:
    def test_role_update_edges(self, role_update_program, oracle):
        privops = find_privileged_ops(role_update_program, oracle)
        graph = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        labels = _edge_labels(role_update_program, graph)
        assert ("/updateProfile", "http_post") in labels
        assert ("http_post", "/setUserRole") in labels
        assert ("/setUserRole", "update_role") in labels

    def test_no_inter_calls_only_intra_edges(self, oracle):
        program, privops = _single_service_program()
        graph = build_global_graph(program, privops, match_channels(program))
        assert not any(isinstance(w, ChannelEdge) for witnesses in graph.edges.values() for w in witnesses)

    def test_deterministic_and_idempotent(self, role_update_program, oracle):
        privops = find_privileged_ops(role_update_program, oracle)
        a = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        b = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        assert _edge_set(a) == _edge_set(b)

    def test_matches_naive_two_phase_construction(self):
        rng = random.Random(99)
        for i in range(10):
            program, privops = build_random_program(rng, f"g{i}")
            graph = build_global_graph(program, privops, match_channels(program))
            assert _edge_set(graph) == _naive_edge_set(program, privops)

    @pytest.mark.parametrize("corpus", sorted(p for p in CORPORA.iterdir() if p.is_dir()), ids=lambda p: p.name)
    def test_witnesses_match_per_pair_search_on_corpora(self, corpus, oracle):
        program = load_program(corpus)
        _check_witnesses(program, find_privileged_ops(program, oracle))

    def test_witnesses_match_per_pair_search_on_random_programs(self):
        rng = random.Random(2718)
        flow_edges = 0
        for i in range(20):
            program, privops = build_random_program(rng, f"w{i}")
            flow_edges += _check_witnesses(program, privops)
        assert flow_edges > 100

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_witnesses_sorted_by_distinct_destination_on_corpora(self, corpus, oracle):
        program = load_program(corpus)
        privops = find_privileged_ops(program, oracle)
        _check_sorted_witnesses(build_global_graph(program, privops, match_channels(program)))

    def test_witnesses_sorted_by_distinct_destination_on_random_programs(self):
        rng = random.Random(5150)
        edges = 0
        for i in range(20):
            program, privops = build_random_program(rng, f"o{i}")
            edges += _check_sorted_witnesses(build_global_graph(program, privops, match_channels(program)))
        assert edges > 100

    def test_witnesses_sorted_by_distinct_destination_on_fanout(self, tmp_path, oracle):
        program = load_program(write_fanout_corpus(tmp_path))
        privops = find_privileged_ops(program, oracle, basic_sink=True)
        assert _check_sorted_witnesses(build_global_graph(program, privops, match_channels(program))) > 16

    def test_scan_searches_once_per_source_and_resolves_targets_once(self, tmp_path, oracle, monkeypatch):
        """A chain 4x12 scan runs one flow search per source (48) and
        resolves each service's targets once (4), not once per (source,
        target) pair. Its trace holds one ``q_flow`` record per search,
        which names all the search's targets."""
        calls = {"q_flow": [], "flow_sinks": []}

        def counting(name):
            real = getattr(crossflow, name)

            def wrapper(service, *args, **kwargs):
                calls[name].append(service.name)
                return real(service, *args, **kwargs)

            monkeypatch.setattr(crossflow, name, wrapper)

        counting("q_flow")
        counting("flow_sinks")
        bench_gen().chain(1, 4, 12, tmp_path / "corpus")
        program = load_program(tmp_path / "corpus")
        trace = tmp_path / "trace.jsonl"
        scan(program, oracle, OPEN_BUDGET, ScanOptions(trace_path=str(trace)))
        names = sorted(service.name for service in program.services)
        assert calls["flow_sinks"] == names
        assert calls["q_flow"] == [name for name in names for _ in range(12)]
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        searches = [r["args"] for r in records if r["tool"] == "q_flow"]
        assert len(searches) == len({args["from"] for args in searches}) == 48
        pairs = {(args["from"], dst) for args in searches for dst in args["to"]}
        # 12 writes and 12 outbound calls per service, none in the last one
        assert sum(len(args["to"]) for args in searches) == len(pairs) == 3 * 12 * 24 + 12 * 12 == 1008

    def test_witnesses_match_per_pair_search_with_tied_paths(self):
        rng = random.Random(1618)
        flow_edges = tied = 0
        for i in range(30):
            svc = build_tied_service(rng, f"tied{i}")
            manifest = Manifest(1, (ManifestService(svc.name, entry=True),), (GatewayRoute("/", svc.name),))
            privops = [
                PrivilegedOperation(e.id, svc.name, "security-critical-action", "sink")
                for e in svc.elements
                if e.kind is ElementKind.CALL
            ]
            flow_edges += _check_witnesses(Program((svc,), manifest), privops)
            targets = {op.element for op in privops}
            tied += sum(
                n > 1
                for e in svc.elements
                if e.kind is ElementKind.ENDPOINT
                for dst, n in shortest_path_counts(svc, e.id).items()
                if dst in targets
            )
        assert flow_edges > 100
        assert tied > 40


class TestQGlobalflow:
    def test_role_update_single_path_one_channel(self, role_update_program, oracle):
        privops = find_privileged_ops(role_update_program, oracle)
        graph = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        sources = q_user(role_update_program, oracle)
        result = q_globalflow(role_update_program, graph, sources, privops)
        assert len(result.paths) == 1
        assert result.counts == [1]
        assert not result.truncated
        [path] = result.paths
        [hop] = [s for s in path.segments if isinstance(s, ChannelEdge)]
        assert hop.identifier == "/setUserRole"

    def test_unreachable_sink_is_empty(self, oracle):
        program, privops = _single_service_program(reachable=False)
        graph = build_global_graph(program, privops, match_channels(program))
        sources = q_user(program, oracle)
        assert q_globalflow(program, graph, sources, privops).paths == []

    def test_diamond_yields_two_paths(self, oracle):
        svc = lower_snippet(
            '@route("POST", "/a") fn a() { x = request.param("v") db.write("k" + x) }\n'
            '@route("POST", "/b") fn b() { y = request.param("v") db.write("k" + y) }',
            service="d",
            file="d.msv",
        )
        # two endpoints, two sinks; each endpoint reaches its own sink
        manifest = Manifest(1, (ManifestService("d", entry=True, sources=("d.msv",)),), (GatewayRoute("/", "d"),))
        program = Program((svc,), manifest)
        privops = find_privileged_ops(program, oracle, basic_sink=True)
        graph = build_global_graph(program, privops, match_channels(program))
        result = q_globalflow(program, graph, q_user(program, oracle), privops)
        assert len(result.paths) == 2

    def test_junctions_align(self, role_update_program, oracle):
        privops = find_privileged_ops(role_update_program, oracle)
        graph = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        [path] = q_globalflow(role_update_program, graph, q_user(role_update_program, oracle), privops).paths
        segs = path.segments
        for left, right in zip(segs, segs[1:]):
            left_end = left.elements[-1] if hasattr(left, "elements") else left.to_element
            right_start = right.elements[0] if hasattr(right, "elements") else right.from_element
            assert left_end == right_start

    def test_removing_channel_edge_never_adds_paths(self):
        rng = random.Random(4242)
        for i in range(8):
            program, privops = build_random_program(rng, f"m{i}")
            graph = build_global_graph(program, privops, match_channels(program))
            sources = _endpoints(program.service(program.manifest.entry_service()))
            baseline = len(q_globalflow(program, graph, sources, privops).paths)
            channel_edges = [w for witnesses in graph.edges.values() for w in witnesses if isinstance(w, ChannelEdge)]
            for edge in channel_edges:
                pruned = GlobalGraph(
                    nodes=set(graph.nodes),
                    edges={
                        s: [w for w in witnesses if w is not edge]
                        for s, witnesses in graph.edges.items()
                    },
                )
                assert len(q_globalflow(program, pruned, sources, privops).paths) <= baseline

    def test_existence_matches_transitive_closure_oracle(self):
        rng = random.Random(777)
        for i in range(12):
            program, privops = build_random_program(rng, f"t{i}")
            graph = build_global_graph(program, privops, match_channels(program))
            sources = _endpoints(program.service(program.manifest.entry_service()))
            # a search from one source reaches each of its sinks in some class
            got = {(src.id, p.sink) for src in sources for p in q_globalflow(program, graph, [src], privops).paths}
            want = _oracle_pairs(graph, sources, privops)
            assert got == want

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_paths_equal_all_simple_paths_on_corpora(self, corpus, oracle):
        program = load_program(corpus)
        privops = find_privileged_ops(program, oracle)
        graph = build_global_graph(program, privops, match_channels(program))
        _check_all_simple_paths(program, graph, q_user(program, oracle), privops)

    def test_paths_equal_all_simple_paths_on_random_programs(self):
        """On the acyclic programs the classes are exactly the reference's;
        on the cyclic ones, whose summaries are all empty (the programs have
        no guards), each reached sink is one class, witnessed by one of its
        simple paths and counted over the search's own paths."""
        rng = random.Random(8086)
        total = cyclic = 0
        for i in range(20):
            program, privops = build_random_program(rng, f"a{i}")
            graph = build_global_graph(program, privops, match_channels(program))
            sources = [e for s in program.services for e in _endpoints(s)]
            if not _is_cyclic(graph):
                total += _check_all_simple_paths(program, graph, sources, privops)
                continue
            cyclic += 1
            result = q_globalflow(program, graph, sources, privops)
            classes = reference_classes(program, all_simple_paths(graph, sources, privops))
            assert {class_key(program, p) for p in result.paths} == set(classes)
            for witness, count in zip(result.paths, result.counts):
                members = classes[class_key(program, witness)]
                assert witness in members
                assert 1 <= count <= len(members)
        assert total > 50
        assert cyclic == 2

    def test_paths_equal_all_simple_paths_on_fanout(self, tmp_path, oracle):
        program = load_program(write_fanout_corpus(tmp_path))
        privops = find_privileged_ops(program, oracle, basic_sink=True)
        graph = build_global_graph(program, privops, match_channels(program))
        assert _check_all_simple_paths(program, graph, q_user(program, oracle), privops) == 256

    def test_path_cap_sets_truncation_flag(self, oracle):
        svc = lower_snippet(
            '@route("POST", "/a") fn a() { x = request.param("v") db.write("k" + x) }\n'
            '@route("POST", "/b") fn b() { y = request.param("v") db.write("k" + y) }',
            service="cap",
            file="cap.msv",
        )
        manifest = Manifest(1, (ManifestService("cap", entry=True, sources=("cap.msv",)),), (GatewayRoute("/", "cap"),))
        program = Program((svc,), manifest)
        privops = find_privileged_ops(program, oracle, basic_sink=True)
        graph = build_global_graph(program, privops, match_channels(program))
        result = q_globalflow(program, graph, q_user(program, oracle), privops, cap=1)
        assert result.truncated
        assert len(result.paths) == 1
        assert result.counts == [1]

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_path_facts_match_their_segments_on_corpora(self, corpus, oracle):
        program = load_program(corpus)
        privops = find_privileged_ops(program, oracle)
        graph = build_global_graph(program, privops, match_channels(program))
        for path in q_globalflow(program, graph, q_user(program, oracle), privops).paths:
            _check_path_facts(path)

    def test_path_facts_match_their_segments_on_fanout(self, tmp_path, oracle):
        program = load_program(write_fanout_corpus(tmp_path))
        privops = find_privileged_ops(program, oracle, basic_sink=True)
        graph = build_global_graph(program, privops, match_channels(program))
        paths = q_globalflow(program, graph, q_user(program, oracle), privops).paths
        assert len(paths) == 256
        for path in paths:
            _check_path_facts(path)

    @pytest.mark.parametrize(
        "case", [p.name for p in CORPUS_DIRS] + ["gen-chain4x12", "gen-fanout8x2", "fanout"]
    )
    def test_facts_grown_along_the_search_match_a_path_built_alone(self, case, tmp_path, oracle):
        """Every class witness the search builds, on every corpus and on
        the benchmark's shapes, carries the facts recomputed from its
        segments, as a path built from its segments alone does."""
        writers = {
            "gen-chain4x12": lambda: bench_gen().chain(1, 4, 12, tmp_path),
            "gen-fanout8x2": lambda: bench_gen().fanout(1, 8, 2, tmp_path),
            "fanout": lambda: write_fanout_corpus(tmp_path),
        }
        if case in writers:
            writers[case]()
        program = load_program(tmp_path if case in writers else CORPORA / case)
        privops = find_privileged_ops(program, oracle, tracer=Tracer(OPEN_BUDGET))
        graph = build_global_graph(program, privops, match_channels(program))
        paths = q_globalflow(program, graph, q_user(program, oracle), privops).paths
        assert len(paths) == {"gen-chain4x12": 48, "gen-fanout8x2": 2, "fanout": 256}.get(case, len(paths))
        for path in paths:
            _check_path_facts(path)

    def test_a_scan_leaves_no_path_to_the_cyclic_collector(self, tmp_path, oracle):
        """The search holds its paths in no reference cycle, so a scan's
        paths are freed with its payload, not by the cyclic collector."""
        bench_gen().fanout(1, 8, 2, tmp_path)
        program = load_program(tmp_path)
        gc.collect()
        gc.disable()
        try:
            payload = scan(program, oracle, OPEN_BUDGET)
            assert payload["funnel"]["initial_flows"] == 2
            del payload
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            paths = [obj for obj in gc.garbage if isinstance(obj, GlobalPath)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert paths == []

    @pytest.mark.parametrize("corpus", ["chain4x12", "fanout8x2", "infeasible", "order_payment"])
    def test_a_scan_leaves_nothing_to_the_cyclic_collector(self, corpus, tmp_path, oracle):
        """No object a scan makes is in a reference cycle: the path search,
        constraint translation, validation and the satisfiability search
        keep no self-referencing closure, so everything a scan leaves is
        freed with its payload."""
        if corpus == "chain4x12":
            bench_gen().chain(1, 4, 12, tmp_path)
        elif corpus == "fanout8x2":
            bench_gen().fanout(1, 8, 2, tmp_path)
        program = load_program(CORPORA / corpus if corpus in ("infeasible", "order_payment") else tmp_path)
        scan(program, oracle, OPEN_BUDGET)  # first-use imports and module tables are not the scan's
        gc.collect()
        gc.disable()
        try:
            payload = scan(program, oracle, OPEN_BUDGET)
            assert payload["funnel"]["initial_flows"] > 0
            del payload
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []

    def test_dot_rendering(self, role_update_program, oracle):
        privops = find_privileged_ops(role_update_program, oracle)
        graph = build_global_graph(role_update_program, privops, match_channels(role_update_program))
        dot = to_dot(graph, role_update_program)
        assert dot.startswith("digraph")
        assert "/setUserRole" in dot


# --- helpers ---------------------------------------------------------------


def _check_path_facts(path):
    """A path's derived facts equal the values recomputed from its
    segments, stay the same objects on a second read, and leave equality
    and hashing to the segments."""
    ids = []
    for seg in path.segments:
        chain = seg.elements if isinstance(seg, FlowPath) else (seg.from_element, seg.to_element)
        if ids and ids[-1] == chain[0]:
            ids.extend(chain[1:])
        else:
            ids.extend(chain)
    node_ids = tuple(ids)
    services = []
    for seg in path.segments:
        if isinstance(seg, FlowPath) and (not services or services[-1] != seg.service):
            services.append(seg.service)
    assert path.node_ids == node_ids
    assert path.id == short_id("p", node_ids)
    assert path.services == tuple(services)
    assert path.flow_segments == tuple(s for s in path.segments if isinstance(s, FlowPath))
    first, last = path.segments[0], path.segments[-1]
    assert path.source == (first.elements[0] if isinstance(first, FlowPath) else first.from_element)
    assert path.sink == (last.elements[-1] if isinstance(last, FlowPath) else last.to_element)
    assert path.id is path.id and path.node_ids is path.node_ids
    fresh = GlobalPath(path.segments)
    assert fresh == path and hash(fresh) == hash(path)


def _endpoints(service):
    return [e for e in service.elements if e.kind is ElementKind.ENDPOINT]


def _single_service_program(reachable: bool = True):
    text = (
        '@route("POST", "/go") fn go() { v = request.param("v") db.write("x" + v) }'
        if reachable
        else '@route("POST", "/go") fn go() { v = request.param("v") }\nfn hidden() { db.write("x") }'
    )
    svc = lower_snippet(text, service="solo", file="solo.msv")
    manifest = Manifest(
        1, (ManifestService("solo", entry=True, sources=("solo.msv",)),), (GatewayRoute("/", "solo"),)
    )
    program = Program((svc,), manifest)
    privops = [
        PrivilegedOperation(e.id, "solo", "security-critical-action", "sink")
        for e in svc.elements
        if e.kind is ElementKind.CALL and e.source.startswith("db.write")
    ]
    return program, privops


def _edge_labels(program, graph):
    labels = set()
    for src, edges in graph.edges.items():
        for edge in edges:
            labels.add((_label(program, edge.src), _label(program, edge.dst)))
    return labels


def _label(program, eid):
    placed = program.find_element(eid)
    if placed is None:
        return eid
    _, el = placed
    if el.name:
        return el.name
    source = el.source
    return source.split("(")[0] if "(" in source else el.kind.value


def _check_witnesses(program, privops):
    """Every flow edge's witness is the path a search for that one target
    finds, every source-target pair is searched once, and every q_flow
    trace record, one per search, replays with all its targets to its
    recorded count. Returns the flow edges."""
    records = []
    graph = build_global_graph(
        program, privops, match_channels(program), record=lambda *call: records.append(call)
    )
    flow_edges = [w for witnesses in graph.edges.values() for w in witnesses if isinstance(w, FlowPath)]
    for edge in flow_edges:
        service = program.service(edge.service)
        assert list(edge.elements) == reference_shortest_path(service, edge.src, edge.dst)
    searches = [args for tool, args, _ in records if tool == "q_flow"]
    pairs = [(args["from"], dst) for args in searches for dst in args["to"]]
    assert len(pairs) == len(set(pairs))
    assert {(e.src, e.dst) for e in flow_edges} <= set(pairs)
    for tool, args, count in records:
        if tool == "q_flow":
            replayed = q_flow(program.service(args["service"]), args["from"], *args["to"])
            assert count == len(replayed), args
    return len(flow_edges)


def _check_sorted_witnesses(graph):
    """Each node's witnesses start at it and have distinct destinations in
    ascending order. Returns the number of witnesses."""
    for node, witnesses in graph.edges.items():
        assert all(w.src == node for w in witnesses)
        dsts = [w.dst for w in witnesses]
        assert all(a < b for a, b in zip(dsts, dsts[1:])), node
    return graph.edge_count()


def _all_simple_paths(graph, sources, sinks):
    """Every simple path of at least one edge from a source to a sink, as a
    tuple of witnesses, by brute force over the graph's unordered edge set."""
    by_src = {}
    for witnesses in graph.edges.values():
        for w in witnesses:
            by_src.setdefault(w.src, set()).add(w)
    sink_ids = {op.element for op in sinks}
    found = []

    def extend(node, segments, visited):
        if segments and node in sink_ids:
            found.append(tuple(segments))
        for w in by_src.get(node, ()):
            if w.dst not in visited:
                extend(w.dst, segments + [w], visited | {w.dst})

    for src in {s.id for s in sources}:
        extend(src, [], {src})
    return found


def _graph_nodes(segments):
    """The graph nodes a path visits: its source, then each hop's end. A
    path's ``node_ids`` also hold the elements inside its flow segments."""
    return (segments[0].src,) + tuple(w.dst for w in segments)


def _is_cyclic(graph) -> bool:
    """Whether some node of the graph reaches itself."""
    state = {}  # node -> 1 while on the search's path, 2 once done
    for root in graph.edges:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(graph.edges[root]))]
        while stack:
            node, witnesses = stack[-1]
            witness = next(witnesses, None)
            if witness is None:
                state[node] = 2
                stack.pop()
            elif state.get(witness.dst) == 1:
                return True
            elif witness.dst not in state:
                state[witness.dst] = 1
                stack.append((witness.dst, iter(graph.edges.get(witness.dst, ()))))
    return False


def _check_all_simple_paths(program, graph, sources, sinks):
    """On an acyclic graph, ``q_globalflow``'s classes are the reference's
    simple paths grouped by ``class_key``: one witness per class, the
    class's first path in the reference's strictly increasing order of the
    graph nodes they visit, and ``witness_count`` the class's size. A cap
    keeps a prefix of the classes. Returns the number of paths."""
    assert not _is_cyclic(graph)
    paths = all_simple_paths(graph, sources, sinks)
    visits = [_graph_nodes(p.segments) for p in paths]
    assert all(a < b for a, b in zip(visits, visits[1:]))
    assert [p.segments for p in paths] == sorted(_all_simple_paths(graph, sources, sinks), key=_graph_nodes)
    classes = reference_classes(program, paths)
    result = q_globalflow(program, graph, sources, sinks)
    assert result.paths == [members[0] for members in classes.values()]
    assert result.counts == [len(members) for members in classes.values()]
    assert not result.truncated
    if len(classes) > 1:
        capped = q_globalflow(program, graph, sources, sinks, cap=len(classes) // 2)
        assert capped.truncated
        assert capped.paths == result.paths[: len(classes) // 2]
    return len(paths)


def pairwise_match_channels(program):
    """``match_channels`` by brute force: every outbound x inbound channel
    pair of two different services through ``channels_match``, in program
    order, sorted by (from service, from element, to service, to element)."""
    edges = []
    for out_svc in program.services:
        for out_ch in q_inter(out_svc).channels:
            for in_svc in program.services:
                for in_ch in q_inter(in_svc).channels:
                    if out_ch.direction != "out" or in_ch.direction != "in" or in_svc.name == out_svc.name:
                        continue
                    rule = channels_match(out_ch, in_ch)
                    if rule is not None:
                        edges.append(ChannelEdge(out_svc.name, out_ch.element, in_svc.name, in_ch.element, in_ch.identifier, rule))
    return sorted(edges, key=lambda e: (e.from_service, e.from_element, e.to_service, e.to_element))


def channel_program(services):
    """A program of one service per list of ``(direction, protocol,
    identifier)``: an inbound HTTP channel becomes an endpoint, every other
    channel sits on a call."""
    built = []
    for index, specs in enumerate(services):
        name = f"s{index}"
        elements, channels = [], []
        for line, (direction, protocol, identifier) in enumerate(specs, start=1):
            if (direction, protocol) == ("in", "http"):
                elements.append(make_element(name, ElementKind.ENDPOINT, identifier, line=line))
                continue
            callee = {"http": "http_post", "topic": "publish" if direction == "out" else "consume"}[protocol]
            call = make_element(name, ElementKind.CALL, line=line, source=f"{callee}(u)")
            elements.append(call)
            channels.append(Channel(call.id, direction, protocol, identifier))
        built.append(Service.build(name, elements, (), channels))
    manifest = Manifest(
        1, tuple(ManifestService(s.name, entry=index == 0, sources=(f"{s.name}.msv",)) for index, s in enumerate(built))
    )
    return Program(tuple(built), manifest)


def _edge_set(graph):
    return {
        (src, w.dst, isinstance(w, ChannelEdge)) for src, witnesses in graph.edges.items() for w in witnesses
    }


def _naive_edge_set(program, privops):
    """Re-derive the two construction phases with plain set saturation."""
    privop_ids = {p.element for p in privops}
    edges = set()
    in_channels = {}
    out_channels = []
    for svc in program.services:
        closure = oracle_closure(svc)
        sources = [e for e in svc.elements if e.kind is ElementKind.ENDPOINT]
        sources += [
            e for e in svc.elements if e.kind is ElementKind.CALL and e.source.startswith("consume(")
        ]
        stored_out = [c for c in svc.channels if c.direction == "out"]
        targets = [p for p in privop_ids if p in svc] + [c.element for c in stored_out]
        for src in sources:
            for dst in targets:
                if src.id != dst and dst in closure[src.id]:
                    edges.add((src.id, dst, False))
        for ch in stored_out:
            out_channels.append((svc.name, ch))
        for e in svc.elements:
            if e.kind is ElementKind.ENDPOINT:
                in_channels.setdefault(svc.name, []).append((e.id, e.name))
    for svc_name, ch in out_channels:
        path = normalize_http_identifier(ch.identifier)
        for other, eps in in_channels.items():
            if other == svc_name:
                continue
            for eid, ep_path in eps:
                if _naive_paths_match(path, ep_path):
                    edges.add((ch.element, eid, True))
    return edges


def _naive_paths_match(out_path, in_path):
    a = [s for s in out_path.split("/") if s]
    b = [s for s in in_path.split("/") if s]
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        wildcard = (y.startswith("{") and y.endswith("}")) or y.startswith(":")
        if not wildcard and x != y:
            return False
    return True


def _oracle_pairs(graph, sources, privops):
    sinks = {p.element for p in privops}
    reach = {}
    adjacency = {src: [e.dst for e in edges] for src, edges in graph.edges.items()}
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
        for sink in sinks & seen:
            pairs.add((src.id, sink))
    return pairs
