import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privflow.facts import FactsError, ManifestError, parse_manifest, read_facts, read_manifest, write_facts
from privflow.model import Channel, Edge, EdgeKind, ElementKind, Service

from conftest import CORPORA, build_random_service, lower_snippet, make_element


MINIMAL_MANIFEST = {
    "version": 1,
    "services": [
        {"name": "gateway", "entry": True, "sources": ["g.msv"]},
        {"name": "backend", "sources": ["b.msv"]},
    ],
    "gateway_routes": [{"prefix": "/api/user", "target": "userprofile"}],
}


class TestManifest:
    def test_minimal_two_service_manifest(self):
        raw = dict(MINIMAL_MANIFEST)
        raw["gateway_routes"] = []
        manifest = parse_manifest(raw)
        assert manifest.entry_service() == "gateway"
        assert [s.name for s in manifest.services] == ["gateway", "backend"]

    def test_multiple_entry_services_rejected(self):
        raw = {
            "version": 1,
            "services": [
                {"name": "a", "entry": True, "sources": ["a.msv"]},
                {"name": "b", "entry": True, "sources": ["b.msv"]},
            ],
        }
        with pytest.raises(ManifestError) as err:
            parse_manifest(raw)
        assert "multiple entry" in str(err.value)

    def test_gateway_route_pair_preserved(self):
        raw = {
            "version": 1,
            "services": [
                {"name": "gateway", "entry": True, "sources": ["g.msv"]},
                {"name": "userprofile", "sources": ["u.msv"]},
            ],
            "gateway_routes": [{"prefix": "/api/user", "target": "userprofile"}],
        }
        manifest = parse_manifest(raw)
        assert [(r.prefix, r.target) for r in manifest.gateway_routes] == [("/api/user", "userprofile")]

    def test_relative_prefix_rejected(self):
        raw = {
            "version": 1,
            "services": [{"name": "a", "entry": True, "sources": ["a.msv"]}],
            "gateway_routes": [{"prefix": "api", "target": "a"}],
        }
        with pytest.raises(ManifestError) as err:
            parse_manifest(raw)
        assert "prefix" in str(err.value)

    def test_unknown_route_target_rejected(self):
        raw = {
            "version": 1,
            "services": [{"name": "a", "entry": True, "sources": ["a.msv"]}],
            "gateway_routes": [{"prefix": "/x", "target": "ghost"}],
        }
        with pytest.raises(ManifestError):
            parse_manifest(raw)

    def test_service_needs_files(self):
        raw = {"version": 1, "services": [{"name": "a", "entry": True}]}
        with pytest.raises(ManifestError):
            parse_manifest(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "nope.json")

    def test_corpus_manifests_parse(self):
        for corpus in sorted(p for p in CORPORA.iterdir() if p.is_dir()):
            manifest = read_manifest(corpus / "privflow.manifest.json")
            assert manifest.entry_service() is not None


class TestFactsRoundTrip:
    def test_empty_stream_is_empty_service(self):
        svc = read_facts("", "empty")
        assert svc.name == "empty"
        assert svc.elements == ()

    def test_dangling_edge_fails_at_its_line(self):
        el = make_element("s", ElementKind.VARIABLE, "x")
        good = write_facts(Service.build("s", [el]))
        bad = good + json.dumps({"rec": "edge", "kind": "dataflow", "from": el.id, "to": "e99"}) + "\n"
        with pytest.raises(FactsError) as err:
            read_facts(bad, "s")
        assert err.value.line == 3  # header, element, edge

    def test_header_required(self):
        line = json.dumps({"rec": "element"})
        with pytest.raises(FactsError) as err:
            read_facts(line, "s")
        assert "header" in err.value.reason

    def test_unknown_record_tag_rejected(self):
        text = '{"rec": "header", "version": 1}\n{"rec": "mystery"}'
        with pytest.raises(FactsError):
            read_facts(text, "s")

    def test_unknown_element_kind_rejected(self):
        text = (
            '{"rec": "header", "version": 1}\n'
            '{"rec": "element", "id": "e1", "service": "s", "kind": "lambda", "name": "", '
            '"file": "f", "line": 1, "col": 1, "source": "", "type": "unknown"}'
        )
        with pytest.raises(FactsError) as err:
            read_facts(text, "s")
        assert "kind" in err.value.reason

    @pytest.mark.parametrize(
        "line, field, want",
        [
            (1, "id", 5),
            (1, "name", None),
            (1, "col", 1.0),
            (2, "from", 7),
            (3, "identifier", ["/x"]),
        ],
        ids=["element-id-int", "element-name-null", "element-col-float", "edge-from-int", "channel-identifier-list"],
    )
    def test_field_of_wrong_type_rejected(self, line, field, want):
        """Fields keep their JSON type; nothing is coerced with str()."""
        call = make_element("s", ElementKind.CALL, source="http_post(u, b)")
        svc = Service.build("s", [call], [Edge(EdgeKind.CALLS, call.id, call.id)], [Channel(call.id, "out", "http", "/x")])
        records = [json.loads(text) for text in write_facts(svc).splitlines()]
        assert [r["rec"] for r in records] == ["header", "element", "edge", "channel"]
        records[line][field] = want
        with pytest.raises(FactsError) as err:
            read_facts("\n".join(json.dumps(r) for r in records), "s")
        assert err.value.line == line + 1
        assert f"field {field!r} must be" in err.value.reason

    def test_duplicate_channel_rejected(self):
        el = make_element("s", ElementKind.CALL, source="http_post(u, b)")
        svc = Service.build("s", [el], channels=[Channel(el.id, "out", "http", "/x")])
        text = write_facts(svc)
        text += json.dumps(
            {"rec": "channel", "element": el.id, "direction": "out", "protocol": "http", "identifier": "/y"}
        )
        with pytest.raises(FactsError) as err:
            read_facts(text, "s")
        assert "duplicate channel" in err.value.reason

    def test_lowered_corpus_round_trips(self, role_update_program):
        for service in role_update_program.services:
            bare = Service.build(service.name, service.elements, service.edges, service.channels)
            assert read_facts(write_facts(bare), service.name) == bare

    def test_write_is_deterministic(self, role_update_program):
        svc = role_update_program.service("usermgmt")
        assert write_facts(svc) == write_facts(svc)

    def test_elements_precede_edges(self):
        svc = lower_snippet("fn f() { x = 1 y = x }")
        kinds = [json.loads(line)["rec"] for line in write_facts(svc).splitlines()]
        assert kinds[0] == "header"
        first_edge = kinds.index("edge")
        assert all(k == "element" for k in kinds[1:first_edge])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_service_round_trip(self, seed):
        import random

        svc = build_random_service(random.Random(seed), max_nodes=20)
        assert read_facts(write_facts(svc), svc.name) == svc

    def test_two_equal_services_serialize_identically(self):
        import random

        a = build_random_service(random.Random(7))
        b = build_random_service(random.Random(7))
        assert write_facts(a) == write_facts(b)
