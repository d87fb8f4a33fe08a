import importlib.util
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from privflow.load import load_program
from privflow.minisrv import lower, parse_source
from privflow.model import (
    Channel,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    GatewayRoute,
    Location,
    Manifest,
    ManifestService,
    Program,
    Service,
    element_id,
    element_order,
)
from privflow.reasoner import ScriptedOracle

CORPORA = Path(__file__).parent / "corpora"
BENCH_GEN = Path(__file__).parent.parent / "bench" / "gen.py"


@pytest.fixture(scope="session")
def corpora_root() -> Path:
    return CORPORA


@pytest.fixture(scope="session")
def bench_spec() -> dict:
    return json.loads((CORPORA / "bench.json").read_text())


@pytest.fixture(scope="session")
def oracle() -> ScriptedOracle:
    return ScriptedOracle()


@pytest.fixture(scope="session")
def role_update_program() -> Program:
    return load_program(CORPORA / "role_update")


@pytest.fixture(scope="session")
def order_payment_program() -> Program:
    return load_program(CORPORA / "order_payment")


def bench_gen():
    """``bench/gen.py``'s corpus generators, imported without writing under bench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("privflow_bench_gen", BENCH_GEN)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = saved
    return gen


def path_hops(payload: dict, finding: dict) -> list[dict]:
    """A finding's path hops, read through the report's ``hops`` table."""
    return [payload["hops"][hop_id] for hop_id in finding["path"]["hops"]]


def flow_steps(payload: dict, finding: dict) -> list[str]:
    """The element ids of a finding's flow hops' steps, in path order."""
    return [eid for hop in path_hops(payload, finding) if hop["type"] == "flow" for eid in hop["steps"]]


def lower_snippet(text: str, service: str = "svc", file: str = "svc.msv") -> Service:
    """Parse and lower an inline MiniSrv snippet."""
    return lower(parse_source(text, file), service)


def make_element(
    service: str,
    kind: ElementKind,
    name: str = "",
    line: int = 1,
    col: int = 1,
    source: str = "",
    itype: str = "unknown",
    file: str = "gen.msv",
) -> Element:
    eid = element_id(service, file, line, col, kind)
    return Element(eid, service, kind, name, Location(file, line, col), source or (name or kind.value), itype)


def build_random_service(rng, name: str = "rand", max_nodes: int = 50) -> Service:
    """A service of variable nodes joined by random def-use edges."""
    n = rng.randint(2, max_nodes)
    elements = [
        make_element(name, ElementKind.VARIABLE, name=f"v{i}", line=i + 1, col=1, source=f"v{i}")
        for i in range(n)
    ]
    edges = []
    max_edges = rng.randint(0, 2 * n)
    for _ in range(max_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append(Edge(EdgeKind.DATAFLOW, elements[a].id, elements[b].id))
    return Service.build(name, elements, edges)


@dataclass(frozen=True)
class FlowGraph:
    """Directed data-flow relation over element ids."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


def build_flow_graph(service: Service) -> FlowGraph:
    """Data-flow graph of a service, rebuilt from its edges on every call:
    the tests' reference for the relation the search primitives index."""
    edges = frozenset((e.src, e.dst) for e in service.edges if e.kind is EdgeKind.DATAFLOW)
    return FlowGraph(nodes=frozenset(e.id for e in service.elements), edges=edges)


def oracle_closure(service: Service) -> dict[str, set[str]]:
    """Independent reflexive-transitive closure of the dataflow relation,
    computed by saturation rather than search."""
    nodes = [e.id for e in service.elements]
    reach = {n: {n} for n in nodes}
    edges = [(e.src, e.dst) for e in service.edges if e.kind is EdgeKind.DATAFLOW]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            add = reach[b] - reach[a]
            if add:
                reach[a] |= add
                changed = True
    return reach


def reference_shortest_path(service: Service, src: str, dst: str) -> list[str] | None:
    """Shortest data-flow path from ``src`` to ``dst`` by a breadth-first
    search for that one destination, successors visited by (line, col, id)
    of their position; None when ``dst`` is unreachable."""
    pos = {e.id: (e.location.line, e.location.col, e.id) for e in service.elements}
    succ: dict[str, list[str]] = {}
    for e in service.edges:
        if e.kind is EdgeKind.DATAFLOW:
            succ.setdefault(e.src, []).append(e.dst)
    prev = {src: None}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for node in frontier:
            for s in sorted(succ.get(node, ()), key=pos.__getitem__):
                if s not in prev:
                    prev[s] = node
                    nxt.append(s)
        frontier = nxt
    if dst not in prev:
        return None
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def shortest_path_counts(service: Service, src: str) -> dict[str, int]:
    """Number of shortest data-flow paths from ``src`` to each node it reaches."""
    succ: dict[str, list[str]] = {}
    for e in service.edges:
        if e.kind is EdgeKind.DATAFLOW:
            succ.setdefault(e.src, []).append(e.dst)
    dist, ways, frontier = {src: 0}, {src: 1}, [src]
    while frontier:
        nxt = []
        for node in frontier:
            for s in succ.get(node, ()):
                if s not in dist:
                    dist[s], ways[s] = dist[node] + 1, 0
                    nxt.append(s)
                if dist[s] == dist[node] + 1:
                    ways[s] += ways[node]
        frontier = nxt
    return ways


def build_tied_service(rng, name: str = "tied") -> Service:
    """A layered service where many destinations have several shortest
    paths: endpoints, then variables, then call sites. Element positions
    are shuffled, so the position tie-break decides which path is the
    witness."""
    layers = [rng.randint(1, 4) for _ in range(rng.randint(3, 6))]
    n = sum(layers)
    slots = rng.sample(range(1, 4 * n + 1), n)
    kinds = [ElementKind.ENDPOINT] * layers[0] + [ElementKind.VARIABLE] * (n - layers[0] - layers[-1])
    kinds += [ElementKind.CALL] * layers[-1]
    elements = [
        make_element(name, kind, name=f"/v{i}" if kind is ElementKind.ENDPOINT else f"v{i}",
                     line=slot // 4 + 1, col=slot % 4 + 1)
        for i, (kind, slot) in enumerate(zip(kinds, slots))
    ]
    edges = []
    start = 0
    for width, next_width in zip(layers, layers[1:]):
        for a in range(start, start + width):
            for b in range(start + width, start + width + next_width):
                if rng.random() < 0.7:
                    edges.append(Edge(EdgeKind.DATAFLOW, elements[a].id, elements[b].id))
        start += width
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and kinds[b] is not ElementKind.ENDPOINT:
            edges.append(Edge(EdgeKind.DATAFLOW, elements[a].id, elements[b].id))
    return Service.build(name, elements, edges)


def build_random_program(rng, tag: str) -> tuple[Program, list]:
    """A random multi-service program with endpoints, outbound channel call
    sites and sink call sites. Returns (program, privileged operations)."""
    from privflow.pipeline import PrivilegedOperation

    n_services = rng.randint(2, 4)
    services = []
    privops = []
    endpoint_paths: dict[str, list[str]] = {}
    for si in range(n_services):
        sname = f"{tag}_s{si}"
        endpoint_paths[sname] = [f"/ep{si}_{j}" for j in range(rng.randint(1, 3))]

    names = sorted(endpoint_paths)
    for si, sname in enumerate(names):
        elements = []
        line = 1
        for path in endpoint_paths[sname]:
            elements.append(
                make_element(sname, ElementKind.ENDPOINT, name=path, line=line, source=f'@route("POST", "{path}")')
            )
            line += 1
        for j in range(rng.randint(1, 5)):
            elements.append(make_element(sname, ElementKind.VARIABLE, name=f"x{j}", line=line, source=f"x{j}"))
            line += 1
        channels = []
        for j in range(rng.randint(0, 3)):
            call = make_element(sname, ElementKind.CALL, line=line, source="http_post(u, b)")
            line += 1
            elements.append(call)
            other = names[rng.randrange(len(names))]
            if other != sname and rng.random() < 0.8:
                target_path = rng.choice(endpoint_paths[other])
                channels.append(Channel(call.id, "out", "http", f"http://{other}:80{target_path}"))
            else:
                channels.append(Channel(call.id, "out", "http", f"/nomatch/{tag}/{si}/{j}"))
        for j in range(rng.randint(0, 2)):
            sink = make_element(sname, ElementKind.CALL, line=line, source="db.write(q)")
            line += 1
            elements.append(sink)
            privops.append(PrivilegedOperation(sink.id, sname, "security-critical-action", "standard sink"))

        edges = []
        n = len(elements)
        for _ in range(rng.randint(n, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            # endpoints only emit flow; call results may flow onward
            if a != b and elements[b].kind is not ElementKind.ENDPOINT:
                edges.append(Edge(EdgeKind.DATAFLOW, elements[a].id, elements[b].id))
        services.append(Service.build(sname, elements, edges, channels))

    manifest = Manifest(
        version=1,
        services=tuple(
            ManifestService(name=s.name, entry=si == 0, sources=(f"{s.name}.msv",)) for si, s in enumerate(services)
        ),
        gateway_routes=(GatewayRoute("/", names[0]),),
    )
    return Program(tuple(services), manifest), privops


def write_fanout_corpus(root: Path, services: int = 8, width: int = 2) -> Path:
    """A corpus under ``root`` of ``services`` services with ``width``
    endpoints each. Every endpoint forwards its input, under an ``if``
    guard, to all endpoints of the next service, and the last service's
    endpoints run ``exec``: ``width ** services`` flows, none protected."""
    names = [f"stage{i}" for i in range(services)]
    for i, name in enumerate(names):
        nxt = names[i + 1] if i + 1 < services else None
        lines = [f"// {name}"]
        if nxt is not None:
            lines.append(f'const NEXT = "http://{nxt}:8080"')
        for k in range(width):
            lines += ["", f'@route("POST", "/{name}/ep{k}")', f"fn handle_ep{k}() {{", '  v = request.param("v")']
            lines.append('  if v != "" {')
            if nxt is None:
                lines.append("    exec(v)")
            else:
                lines += [f'    http_post(NEXT + "/{nxt}/ep{j}", v)' for j in range(width)]
            lines += ["  }", "}"]
        (root / f"{name}.msv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {
        "version": 1,
        "services": [
            {"name": name, "entry": i == 0, "base_url": f"http://{name}:8080", "sources": [f"{name}.msv"]}
            for i, name in enumerate(names)
        ],
        "gateway_routes": [{"prefix": f"/{names[0]}", "target": names[0]}],
    }
    (root / "privflow.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return root


def scan_decorator_checks(service: Service, fn_id: str) -> list[Element]:
    """The check functions a function's decorators call, each once, in
    source order, read off a scan over all edges."""
    decorators = [e.src for e in service.edges if e.kind is EdgeKind.DECORATES and e.dst == fn_id]
    targets = [e.dst for d in decorators for e in service.edges if e.kind is EdgeKind.CALLS and e.src == d]
    checks = [service.element(t) for t in dict.fromkeys(targets)]
    return sorted((c for c in checks if c is not None and c.kind is ElementKind.FUNCTION), key=element_order)


def scan_guard_var_types(service: Service, source: str) -> tuple[tuple[str, str], ...]:
    """Each identifier of a guard's source outside string literals, ``true``
    and ``false`` excepted, sorted, with the type of the first variable or
    parameter of that name, read off a scan over all elements."""
    idents = set(re.findall(r"[A-Za-z_]\w*", re.sub(r'"[^"]*"', '""', source))) - {"true", "false"}
    declared = [e for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER)]
    return tuple((name, next((e.inferred_type for e in declared if e.name == name), "unknown")) for name in sorted(idents))
