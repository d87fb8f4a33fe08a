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


_ONE_SERVICE = {"name": "a", "entry": True, "sources": ["a.msv"]}


def _manifest(*services, **fields) -> dict:
    return {"version": 1, "services": list(services), **fields}


@pytest.mark.parametrize(
    "text, field, reason",
    [
        ("{", "file", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[]", "root", "manifest must be a JSON object"),
        (_manifest(), "services", "must be a non-empty list"),
        (_manifest({"entry": True, "sources": ["a.msv"]}), "services[0]", "each service needs a non-empty name"),
        (_manifest(_ONE_SERVICE, {"name": "a", "sources": ["b.msv"]}), "services[1]", "duplicate service name 'a'"),
        (_manifest({**_ONE_SERVICE, "sources": "a.msv"}), "services[0].sources", "must be a list of file names"),
        (_manifest({**_ONE_SERVICE, "facts": {"a": 1}}), "services[0].facts", "must be a list of file names"),
        (_manifest({**_ONE_SERVICE, "entry": False}), "services", "no entry service declared"),
        (_manifest(_ONE_SERVICE, gateway_routes={}), "gateway_routes", "must be a list"),
        (_manifest(_ONE_SERVICE, gateway_routes=["/a"]), "gateway_routes[0]", "each route must be an object"),
    ],
    ids=[
        "invalid_json",
        "root_not_object",
        "no_services",
        "service_without_name",
        "duplicate_service",
        "sources_not_list",
        "facts_not_list",
        "no_entry",
        "routes_not_list",
        "route_not_object",
    ],
)
def test_manifest_errors(tmp_path, text, field, reason):
    """Each way a manifest file is malformed names its field and reason."""
    path = tmp_path / "privflow.manifest.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
    with pytest.raises(ManifestError) as err:
        read_manifest(path)
    assert (err.value.field, err.value.reason) == (field, reason)


_HEADER = {"rec": "header", "version": 1}
_ELEMENT = {
    "rec": "element",
    "id": "e1",
    "service": "s",
    "kind": "variable",
    "name": "x",
    "file": "f",
    "line": 1,
    "col": 1,
    "source": "x",
    "type": "unknown",
}


def _facts(*records) -> str:
    """A facts file of ``records``, each a JSON object or a raw line."""
    return "\n".join(r if isinstance(r, str) else json.dumps(r) for r in records) + "\n"


def _channel(element: str, direction: str) -> dict:
    return {"rec": "channel", "element": element, "direction": direction, "protocol": "http", "identifier": "/x"}


@pytest.mark.parametrize(
    "text, line, reason",
    [
        (_facts(_HEADER, "{oops"), 2, "invalid JSON: Expecting property name enclosed in double quotes"),
        (_facts(_HEADER, {"kind": "x"}), 2, "record must be an object with a 'rec' tag"),
        (_facts(_HEADER, _HEADER), 2, "duplicate header record"),
        (_facts(_HEADER, _ELEMENT, _ELEMENT), 3, "duplicate element id e1"),
        ("\n  \n\n", 1, "missing header record"),
        (_facts(_HEADER, _channel("e9", "in")), 2, "channel references unknown element e9"),
        (
            _facts(_HEADER, {key: value for key, value in _ELEMENT.items() if key != "source"}),
            2,
            "element record missing field 'source'",
        ),
        (_facts(_HEADER, {**_ELEMENT, "line": 0}), 2, "bad location: Location line/col must be >= 1, got 0:1"),
        (
            _facts(_HEADER, _ELEMENT, {"rec": "edge", "kind": "jumps", "from": "e1", "to": "e1"}),
            3,
            "unknown edge kind 'jumps'",
        ),
        (_facts(_HEADER, _ELEMENT, _channel("e1", "up")), 3, "channel direction must be out|in, got 'up'"),
        (
            _facts(_HEADER, _ELEMENT, {**_ELEMENT, "id": "e2", "kind": "endpoint", "name": "run"}),
            3,
            "endpoint e2 route path must start with '/', got 'run'",
        ),
    ],
    ids=[
        "invalid_json",
        "no_rec_tag",
        "duplicate_header",
        "duplicate_element",
        "blank_lines",
        "channel_on_unknown_element",
        "missing_field",
        "bad_location",
        "unknown_edge_kind",
        "bad_channel_direction",
        "relative_endpoint",
    ],
)
def test_facts_errors(text, line, reason):
    """Each way a facts file is malformed names its line and reason."""
    with pytest.raises(FactsError) as err:
        read_facts(text, "s")
    assert (err.value.line, err.value.reason) == (line, reason)


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

    def test_endpoint_without_name_rejected(self):
        """An endpoint's name is its inbound channel's identifier."""
        el = make_element("s", ElementKind.ENDPOINT, "/x")
        text = write_facts(Service.build("s", [el])).replace('"name": "/x"', '"name": ""')
        with pytest.raises(FactsError) as err:
            read_facts(text, "s")
        assert err.value.line == 2
        assert err.value.reason == f"endpoint {el.id} needs a non-empty name"
        with pytest.raises(ValueError, match="non-empty name"):
            make_element("s", ElementKind.ENDPOINT)

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


class TestLoadMerge:
    """``load_program`` merges a service's already-ordered parts instead of
    sorting them again: the result equals ``Service.build`` over the
    concatenated parts."""

    SOURCES = ("userprofile.msv", "usermgmt.msv")

    def _facts_part(self, rng):
        """Random facts sharing the sources' files at columns the lowered
        elements never use, so their positions interleave without an id
        collision; one call carries a channel."""
        elements = [
            make_element(
                "svc",
                rng.choice((ElementKind.VARIABLE, ElementKind.CALL, ElementKind.FUNCTION)),
                name=rng.choice(("", "role", "body")),
                line=rng.randint(1, 30),
                col=90 + i,
                file=rng.choice(self.SOURCES + ("extra.msv",)),
            )
            for i in range(rng.randint(1, 25))
        ]
        edges = [
            Edge(rng.choice(list(EdgeKind)), rng.choice(elements).id, rng.choice(elements).id)
            for _ in range(rng.randint(0, 30))
        ]
        calls = [e for e in elements if e.kind is ElementKind.CALL]
        channels = [Channel(calls[0].id, "out", "topic", "t")] if calls else []
        return Service.build("svc", elements, edges, channels)

    def test_source_and_facts_parts_equal_one_build(self, tmp_path):
        import random

        from privflow.load import load_program

        lowered = [
            lower_snippet((CORPORA / "role_update" / name).read_text(), "svc", name) for name in self.SOURCES
        ]
        for name in self.SOURCES:
            (tmp_path / name).write_text((CORPORA / "role_update" / name).read_text())
        manifest = {"version": 1, "services": [{"name": "svc", "entry": True, "sources": list(self.SOURCES), "facts": ["svc.facts.jsonl"]}]}
        (tmp_path / "privflow.manifest.json").write_text(json.dumps(manifest))
        rng = random.Random(1515)
        interleaved = 0
        for _ in range(20):
            facts = self._facts_part(rng)
            (tmp_path / "svc.facts.jsonl").write_text(write_facts(facts))
            parts = lowered + [facts]
            want = Service.build(
                "svc",
                [e for p in parts for e in p.elements],
                [e for p in parts for e in p.edges],
                [c for p in parts for c in p.channels],
            )
            [got] = load_program(tmp_path).services
            assert got == want
            from_facts = [e.id in facts for e in got.elements]
            interleaved += sum(a != b for a, b in zip(from_facts, from_facts[1:])) > 2
        assert interleaved > 10
