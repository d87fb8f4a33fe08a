import hashlib
import random
from dataclasses import dataclass

import pytest

from privflow.load import load_program
from privflow.pipeline import ProgramInvalid, scan
from privflow.reasoner import ScriptedOracle
from privflow.model import (
    Channel,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    GatewayRoute,
    IntegrityViolation,
    Location,
    Manifest,
    ManifestService,
    Program,
    Service,
    call_callee,
    element_id,
    element_order,
    short_id,
    validate_program,
)

from conftest import CORPORA, build_random_program, build_random_service, build_tied_service, make_element


@dataclass(frozen=True, order=True)
class DataclassEdge:
    """The order ``Edge`` had as an ordered dataclass: field by field."""

    kind: EdgeKind
    src: str
    dst: str


def two_service_program() -> Program:
    a = Service.build("a", [make_element("a", ElementKind.FUNCTION, "f", line=1)])
    b = Service.build("b", [make_element("b", ElementKind.FUNCTION, "g", line=1)])
    manifest = Manifest(
        version=1,
        services=(ManifestService("a", entry=True, sources=("a.msv",)), ManifestService("b", sources=("b.msv",))),
        gateway_routes=(GatewayRoute("/", "a"),),
    )
    return Program((a, b), manifest)


def test_well_formed_program_has_no_violations():
    assert validate_program(two_service_program()) == []


def test_dangling_edge_reported():
    el = make_element("a", ElementKind.FUNCTION, "f")
    svc = Service(
        name="a",
        elements=(el,),
        edges=(Edge(EdgeKind.CALLS, el.id, "e99"),),
    )
    manifest = Manifest(1, (ManifestService("a", entry=True, sources=("a.msv",)),), ())
    violations = validate_program(Program((svc,), manifest))
    assert any(v.kind == "DanglingEdge" and "e99" in v.detail for v in violations)


def test_no_entry_service_reported():
    svc = Service.build("a", [make_element("a", ElementKind.FUNCTION, "f")])
    manifest = Manifest(1, (ManifestService("a", sources=("a.msv",)),), ())
    violations = validate_program(Program((svc,), manifest))
    assert [v.kind for v in violations] == ["NoEntryService"]


def test_multiple_entry_services_reported():
    a = Service.build("a", [make_element("a", ElementKind.FUNCTION, "f")])
    b = Service.build("b", [make_element("b", ElementKind.FUNCTION, "g")])
    manifest = Manifest(
        1,
        (ManifestService("a", entry=True, sources=("a.msv",)), ManifestService("b", entry=True, sources=("b.msv",))),
        (),
    )
    violations = validate_program(Program((a, b), manifest))
    assert any(v.kind == "MultipleEntryServices" for v in violations)


def test_duplicate_element_id_reported():
    el = make_element("a", ElementKind.FUNCTION, "f")
    svc = Service(name="a", elements=(el, el), edges=())
    manifest = Manifest(1, (ManifestService("a", entry=True, sources=("a.msv",)),), ())
    violations = validate_program(Program((svc,), manifest))
    assert any(v.kind == "DuplicateId" for v in violations)


def test_location_invariants():
    with pytest.raises(ValueError):
        Location("", 1, 1)
    with pytest.raises(ValueError):
        Location("f.msv", 0, 1)
    with pytest.raises(ValueError):
        Location("f.msv", 1, 0)


def test_element_rejects_unknown_type_tag():
    with pytest.raises(ValueError):
        Element("e1", "a", ElementKind.VARIABLE, "x", Location("f", 1, 1), "x", "float")


def test_element_ids_are_deterministic():
    first = element_id("svc", "f.msv", 3, 7, ElementKind.CALL)
    second = element_id("svc", "f.msv", 3, 7, ElementKind.CALL)
    assert first == second
    assert first != element_id("svc", "f.msv", 3, 7, ElementKind.VARIABLE)
    assert first != element_id("other", "f.msv", 3, 7, ElementKind.CALL)


def test_short_id_is_the_prefix_and_12_hex_of_the_sha1_of_the_joined_parts():
    digest = hashlib.sha1("svc\x1ff.msv\x1f3".encode("utf-8")).hexdigest()
    assert short_id("h", ("svc", "f.msv", "3")) == "h" + digest[:12]
    assert element_id("svc", "f.msv", 3, 7, ElementKind.CALL) == short_id("e", ("svc", "f.msv", "3", "7", "call"))


def test_call_callee_extraction():
    call = make_element("a", ElementKind.CALL, source='db.write("q")')
    assert call_callee(call) == "db.write"
    plain = make_element("a", ElementKind.CALL, line=2, source="update_role(u, r)")
    assert call_callee(plain) == "update_role"
    not_call = make_element("a", ElementKind.VARIABLE, "x", line=3)
    assert call_callee(not_call) == ""


def test_unknown_route_target_reported():
    program = two_service_program()
    manifest = Manifest(
        1,
        program.manifest.services,
        (GatewayRoute("/x", "ghost"),),
    )
    violations = validate_program(Program(program.services, manifest))
    assert any(v.kind == "UnknownRouteTarget" for v in violations)


def test_duplicate_service_reported():
    a = Service.build("a", [make_element("a", ElementKind.FUNCTION, "f")])
    manifest = Manifest(1, (ManifestService("a", entry=True), ManifestService("a")), ())
    assert [v.kind for v in validate_program(Program((a, a), manifest))] == ["DuplicateService"]


def test_foreign_element_reported():
    svc = Service.build("a", [make_element("b", ElementKind.FUNCTION, "f")])
    manifest = Manifest(1, (ManifestService("a", entry=True),), ())
    assert [v.kind for v in validate_program(Program((svc,), manifest))] == ["ForeignElement"]


def test_dangling_channel_reported():
    el = make_element("a", ElementKind.CALL, source='http_post("/x", b)')
    svc = Service.build("a", [el], channels=[Channel("e99", "out", "http", "/x")])
    manifest = Manifest(1, (ManifestService("a", entry=True),), ())
    violations = validate_program(Program((svc,), manifest))
    assert [(v.kind, v.detail) for v in violations] == [("DanglingChannel", "a: channel references unknown id e99")]


#: Manifests that do not list exactly the services of a program holding
#: only ``exec_open``'s ``ops``: a service it lacks flagged as the entry
#: before it, and that service alone with no routes.
MISMATCHED_MANIFESTS = {
    "ghost-and-ops": (
        (ManifestService("ghost", entry=True), ManifestService("ops", sources=("ops.msv",))),
        (GatewayRoute("/run", "ops"),),
    ),
    "ghost-only": ((ManifestService("ghost", entry=True),), ()),
}


@pytest.mark.parametrize("case", MISMATCHED_MANIFESTS)
def test_manifest_mismatch_reported(case):
    """The manifest must list exactly the program's services, in order, so
    its entry and route targets name services the program has; a scan
    refuses such a program before any work."""
    ops = load_program(CORPORA / "exec_open").service("ops")
    services, routes = MISMATCHED_MANIFESTS[case]
    program = Program((ops,), Manifest(1, services, routes))
    listed = [s.name for s in services]
    expected = [IntegrityViolation("ManifestMismatch", f"manifest lists {listed}, program has ['ops']")]
    assert validate_program(program) == expected
    with pytest.raises(ProgramInvalid) as err:
        scan(program, ScriptedOracle())
    assert err.value.violations == expected


def test_manifest_order_is_program_order():
    program = two_service_program()
    swapped = Program(program.services[::-1], program.manifest)
    assert [v.kind for v in validate_program(swapped)] == ["ManifestMismatch"]


def assert_build_orders_as_reference(service: Service, rng: random.Random) -> None:
    """``Service.build`` orders shuffled, partly repeated facts exactly as a
    sort of elements by ``(file, line, col, kind value, id)``, which
    ``element_order`` is, and of edges as dataclasses."""
    elements = list(service.elements)
    edges = list(service.edges) + list(service.edges[::3])
    rng.shuffle(elements)
    rng.shuffle(edges)
    built = Service.build(service.name, elements, edges, service.channels)
    def reference(e):
        return (e.location.file, e.location.line, e.location.col, e.kind.value, e.id)

    assert all(element_order(e) == reference(e) for e in elements)
    assert built.elements == tuple(sorted(elements, key=reference))
    assert built.edges == tuple(Edge(d.kind, d.src, d.dst) for d in sorted({DataclassEdge(*e) for e in edges}))
    assert built == service


@pytest.mark.parametrize("corpus", sorted(p.name for p in CORPORA.iterdir() if p.is_dir()))
def test_build_orders_corpus_services_as_reference(corpus):
    rng = random.Random(corpus)
    for service in load_program(CORPORA / corpus).services:
        assert_build_orders_as_reference(service, rng)


def test_build_orders_generated_services_as_reference():
    rng = random.Random(14)
    for i in range(30):
        assert_build_orders_as_reference(build_random_service(rng, f"r{i}"), rng)
        assert_build_orders_as_reference(build_tied_service(rng, f"t{i}"), rng)
        for service in build_random_program(rng, f"p{i}")[0].services:
            assert_build_orders_as_reference(service, rng)


def test_build_breaks_position_ties_by_id_and_edge_ties_by_destination():
    """Elements at one position and of one kind order by id; edges of one
    kind and source order by destination."""
    loc = Location("gen.msv", 1, 1)
    elements = [Element(eid, "a", ElementKind.CALL, "", loc, "f()") for eid in ("e3", "e1", "e2")]
    edges = [Edge(EdgeKind.CONTAINS, "e1", dst) for dst in ("e3", "e2")] + [Edge(EdgeKind.CALLS, "e2", "e1")]
    built = Service.build("a", elements, edges)
    assert [e.id for e in built.elements] == ["e1", "e2", "e3"]
    assert built.edges == (
        Edge(EdgeKind.CALLS, "e2", "e1"),
        Edge(EdgeKind.CONTAINS, "e1", "e2"),
        Edge(EdgeKind.CONTAINS, "e1", "e3"),
    )
