"""The four unified code-search primitives and the element property functions.

All operations are pure reads over an immutable Service:

* ``q_name``: identifier lookup, exact or regular-expression;
* ``q_ast``: lookup by element kind;
* ``q_flow``: shortest data-propagation paths from one selector to
  several, one breadth-first search per source. A ``FlowPath`` is a
  service and the element ids of one path; a hop is a consecutive pair;
* ``q_cg``: bidirectional call-graph traversal with a depth bound;
* ``get_location`` / ``get_source`` / ``get_type``: element properties.

The primitives read a ``ServiceIndex``: the service's edges grouped by
kind and endpoint in one pass, built on first use and stored on that
Service object, so no query scans every edge and nothing outlives the
Service. Every per-element and per-function fact validation reads
(enclosing function, guards, decorator checks, variable types) and the
service's source and channel scan are kept on it too. The
frontend (or an external facts producer) emits def-use edges already
saturated under the propagation rules, so the data-flow relation is their
closure by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import EdgeKind, Element, ElementKind, Location, Service


class BadPattern(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class UnknownElement(Exception):
    pass


class NotAFunction(Exception):
    pass


class NameMode:
    EXACT = "exact"
    REGEX = "regex"


def _loc_key(e: Element) -> tuple:
    return (e.location.file, e.location.line, e.location.col, e.kind.value, e.id)


def q_name(service: Service, pattern: str, mode: str = NameMode.EXACT) -> list[Element]:
    """All elements whose name matches; anonymous elements never match."""
    if not pattern:
        raise BadPattern("empty pattern")
    if mode == NameMode.EXACT:
        hits = [e for e in service.elements if e.name and e.name == pattern]
    elif mode == NameMode.REGEX:
        try:
            rx = re.compile(pattern)
        except re.error as exc:
            raise BadPattern(f"invalid regex {pattern!r}: {exc}")
        hits = [e for e in service.elements if e.name and rx.fullmatch(e.name)]
    else:
        raise BadPattern(f"unknown name mode {mode!r}")
    return sorted(hits, key=_loc_key)


def q_ast(service: Service, opkind: ElementKind | str) -> list[Element]:
    """All elements of one syntactic kind, in source order."""
    kind = ElementKind(opkind)
    return sorted((e for e in service.elements if e.kind is kind), key=_loc_key)


class ServiceIndex:
    """The edges and per-element facts of one Service, built for the search
    primitives and validation.

    Lists keep edge order (edges are sorted), except that call sites are in
    source order and flow successors in ``((line, col), id)`` order, the
    tie-break of ``q_flow``'s breadth-first search. ``decorator_checks``
    holds each decorated function's check functions (the functions its
    decorators call, each once, in source order) and ``var_types`` the
    inferred type of the first variable or parameter declared under each
    name. ``placed`` holds each element's enclosing function and guarding
    conditionals, filled on first query by one containment walk per
    element. ``inter`` holds the service's element scan for sources and
    channels, filled by ``crossflow`` on first use.
    """

    def __init__(self, service: Service):
        self.parent: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        self.decorated: dict[str, str] = {}
        self.flow_succ: dict[str, list[str]] = {}
        self.placed: dict[str, tuple[Element | None, tuple[Element, ...]]] = {}
        self.inter = None  # crossflow.InterScan
        decorators: dict[str, list[str]] = {}
        call_targets: dict[str, list[str]] = {}
        for e in service.edges:
            if e.kind is EdgeKind.CONTAINS:
                self.parent[e.dst] = e.src
                self.children.setdefault(e.src, []).append(e.dst)
            elif e.kind is EdgeKind.DECORATES:
                self.decorated.setdefault(e.src, e.dst)
                decorators.setdefault(e.dst, []).append(e.src)
            elif e.kind is EdgeKind.CALLS:
                call_targets.setdefault(e.src, []).append(e.dst)
            elif e.kind is EdgeKind.DATAFLOW:
                self.flow_succ.setdefault(e.src, []).append(e.dst)

        order: dict[str, tuple] = {}
        self.var_types: dict[str, str] = {}
        for e in service.elements:
            order[e.id] = ((e.location.line, e.location.col), e.id)
            if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER):
                self.var_types.setdefault(e.name, e.inferred_type)
        for succ in self.flow_succ.values():
            succ.sort(key=lambda n: order.get(n, ((), n)))

        self.decorator_checks: dict[str, list[Element]] = {}
        for fn, decs in decorators.items():
            targets = (service.element(t) for d in decs for t in call_targets.get(d, ()))
            checks = {t.id: t for t in targets if t is not None and t.kind is ElementKind.FUNCTION}
            self.decorator_checks[fn] = sorted(checks.values(), key=lambda e: e.sort_key)

        self.call_sites: dict[str, list[Element]] = {}
        self.callees: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        for src, dsts in call_targets.items():
            site = service.element(src)
            for dst in dsts:
                if site is not None and site.kind is ElementKind.CALL:
                    self.call_sites.setdefault(dst, []).append(site)
                target = service.element(dst)
                if target is None or target.kind is not ElementKind.FUNCTION:
                    continue
                caller = self.place(service, src)[0]
                if caller is not None:
                    self.callees.setdefault(caller.id, set()).add(dst)
                    self.callers.setdefault(dst, set()).add(caller.id)
        for sites in self.call_sites.values():
            sites.sort(key=_loc_key)

    def place(self, service: Service, eid: str) -> tuple[Element | None, tuple[Element, ...]]:
        """The element's enclosing function and the conditionals whose
        guarded block contains it, outermost first; one containment walk per
        element. A function encloses itself and a decorator resolves through
        the function it decorates."""
        if eid in self.placed:
            return self.placed[eid]
        fn = None
        guards: list[Element] = []
        cur = eid
        for _ in range(len(self.parent) + 1):  # bounded, so a cycle cannot loop
            cur = self.parent.get(cur)
            if cur is None:
                break
            pel = service.element(cur)
            if pel is None:
                continue
            if pel.kind is ElementKind.CONDITIONAL:
                guards.append(pel)
            elif pel.kind is ElementKind.FUNCTION and fn is None:
                fn = pel
        el = service.element(eid)
        if el is None or el.kind is ElementKind.FUNCTION:
            fn = el
        elif el.kind is ElementKind.DECORATOR:
            fn = service.element(self.decorated[eid]) if eid in self.decorated else None
        self.placed[eid] = (fn, tuple(reversed(guards)))
        return self.placed[eid]


def service_index(service: Service) -> ServiceIndex:
    """The service's index, built on first use and kept on the instance.

    Threads racing on first use may each build one; the indexes are equal
    and the last one stored is kept."""
    index = service.__dict__.get("_index")
    if index is None:
        index = ServiceIndex(service)
        object.__setattr__(service, "_index", index)
    return index


@dataclass(frozen=True)
class FlowPath:
    """A data propagation witness in one service: element ids from source
    to sink. Each consecutive pair of elements is a data-flow edge."""

    service: str
    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.elements) < 1:
            raise ValueError("FlowPath needs at least one element")

    @property
    def src(self) -> str:
        return self.elements[0]

    @property
    def dst(self) -> str:
        return self.elements[-1]


def resolve_selector(service: Service, selector: str) -> list[Element]:
    """Resolve an element selector (id or name) to matching elements."""
    el = service.element(selector)
    if el is not None:
        return [el]
    hits = [e for e in service.elements if e.name and e.name == selector]
    if not hits:
        raise UnknownElement(f"{service.name}: no element matches selector {selector!r}")
    return sorted(hits, key=_loc_key)


def _shortest_paths(index: ServiceIndex, src: str, dsts: list[str]) -> dict[str, list[str]]:
    """One BFS from ``src``: the shortest path to each reached destination.

    Neighbor ties are broken by source position. A node's predecessor is
    fixed when the search first reaches it, which does not depend on the
    destinations sought, so each path is the one a search for that
    destination alone would find."""
    wanted = set(dsts)
    prev: dict[str, str | None] = {src: None}
    left = wanted - {src}
    frontier = [src]
    while frontier and left:
        nxt: list[str] = []
        for node in frontier:
            for succ in index.flow_succ.get(node, ()):
                if succ not in prev:
                    prev[succ] = node
                    left.discard(succ)
                    nxt.append(succ)
        frontier = nxt
    paths = {}
    for dst in wanted & prev.keys():
        path = [dst]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        paths[dst] = path[::-1]
    return paths


def _flow_nodes(service: Service, el: Element) -> list[Element]:
    """Data-flow proxies for a selector hit. Functions are not flow nodes
    themselves; flow into or out of a function is flow through its call
    sites and parameters."""
    if el.kind is not ElementKind.FUNCTION:
        return [el]
    proxies = call_sites_of(service, el.id)
    for cid in service_index(service).children.get(el.id, ()):
        child = service.element(cid)
        if child is not None and child.kind is ElementKind.PARAMETER:
            proxies.append(child)
    return sorted(proxies, key=_loc_key)


def q_flow(service: Service, from_sel: str, *to_sels: str) -> list[FlowPath]:
    """Shortest data-flow path from every source to every sink the
    selectors resolve to, one breadth-first search per source node.

    Paths come per source node, in selector and then sink order; unreachable
    pairs contribute nothing and an empty list means no flow.
    """
    sources = [n for el in resolve_selector(service, from_sel) for n in _flow_nodes(service, el)]
    sinks = list(
        dict.fromkeys(n.id for sel in to_sels for el in resolve_selector(service, sel) for n in _flow_nodes(service, el))
    )
    index = service_index(service)
    paths: list[FlowPath] = []
    for src in dict.fromkeys(n.id for n in sources):
        found = _shortest_paths(index, src, sinks)
        for dst in sinks:
            chain = found.get(dst)
            if chain is not None:
                paths.append(FlowPath(service.name, tuple(chain)))
    return paths


# --- call graph --------------------------------------------------------------


def enclosing_function(service: Service, eid: str) -> Element | None:
    """The function an element belongs to. Decorators resolve through the
    function they decorate."""
    return service_index(service).place(service, eid)[0]


def guard_chain(service: Service, eid: str) -> list[Element]:
    """Conditional elements whose guarded block contains the element,
    outermost first. The list is the caller's own."""
    return list(service_index(service).place(service, eid)[1])


def call_sites_of(service: Service, function_id: str) -> list[Element]:
    """Call elements whose resolved callee is the given function."""
    return list(service_index(service).call_sites.get(function_id, ()))


def q_cg(service: Service, function: str, direction: str, depth: int = 1) -> list[Element]:
    """Functions reachable within ``depth`` call hops, callers or callees."""
    if direction not in ("callers", "callees"):
        raise ValueError(f"direction must be callers|callees, got {direction!r}")
    if depth < 1:
        raise ValueError("depth must be positive")
    starts = resolve_selector(service, function)
    for el in starts:
        if el.kind is not ElementKind.FUNCTION:
            raise NotAFunction(f"{el.name or el.id} is {el.kind.value}, not a function")
    index = service_index(service)
    step = index.callees if direction == "callees" else index.callers
    frontier = {el.id for el in starts}
    reached: set[str] = set()
    for _ in range(depth):
        nxt: set[str] = set()
        for node in frontier:
            nxt.update(step.get(node, ()))
        nxt -= reached
        reached.update(nxt)
        frontier = nxt
        if not frontier:
            break
    reached -= {el.id for el in starts}
    found = [service.element(eid) for eid in reached]
    return sorted((e for e in found if e is not None), key=_loc_key)


# --- property functions -------------------------------------------------------


def _require(service: Service, element: Element | str) -> Element:
    eid = element.id if isinstance(element, Element) else element
    el = service.element(eid)
    if el is None:
        raise UnknownElement(f"{service.name}: unknown element {eid}")
    return el


def get_location(service: Service, element: Element | str) -> Location:
    return _require(service, element).location


def get_source(service: Service, element: Element | str) -> str:
    return _require(service, element).source


def get_type(service: Service, element: Element | str) -> str:
    """Type tag of the element; for variables, the type inferred from the
    last literal or intrinsic flowing into them."""
    return _require(service, element).inferred_type


__all__ = [
    "BadPattern",
    "UnknownElement",
    "NotAFunction",
    "NameMode",
    "FlowPath",
    "ServiceIndex",
    "q_name",
    "q_ast",
    "q_flow",
    "q_cg",
    "service_index",
    "resolve_selector",
    "enclosing_function",
    "guard_chain",
    "call_sites_of",
    "get_location",
    "get_source",
    "get_type",
]
