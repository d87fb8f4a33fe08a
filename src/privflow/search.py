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
Service. Per-element answers (enclosing function, guards) and the
service's channel scan (``crossflow.q_inter``) are kept on it too. The
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
    """The edges of one Service grouped for the search primitives.

    Lists keep edge order (edges are sorted), except that call sites are in
    source order and flow successors in ``((line, col), id)`` order, the
    tie-break of ``q_flow``'s breadth-first search. ``function_of`` and
    ``guards_of`` hold each element's enclosing function and guarding
    conditionals (outermost first), filled on first query, so each
    containment walk runs once per element. ``inter`` holds the service's
    channel scan, filled by ``crossflow.q_inter`` on its first call.
    """

    def __init__(self, service: Service):
        self.parent: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        self.decorated: dict[str, str] = {}
        self.decorators: dict[str, list[str]] = {}
        self.call_targets: dict[str, list[str]] = {}
        self.flow_succ: dict[str, list[str]] = {}
        self.function_of: dict[str, Element | None] = {}
        self.guards_of: dict[str, tuple[Element, ...]] = {}
        self.inter = None  # crossflow.InterScan
        calls: list[tuple[str, str]] = []
        for e in service.edges:
            if e.kind is EdgeKind.CONTAINS:
                self.parent[e.dst] = e.src
                self.children.setdefault(e.src, []).append(e.dst)
            elif e.kind is EdgeKind.DECORATES:
                self.decorated.setdefault(e.src, e.dst)
                self.decorators.setdefault(e.dst, []).append(e.src)
            elif e.kind is EdgeKind.CALLS:
                self.call_targets.setdefault(e.src, []).append(e.dst)
                calls.append((e.src, e.dst))
            elif e.kind is EdgeKind.DATAFLOW:
                self.flow_succ.setdefault(e.src, []).append(e.dst)

        order = {e.id: ((e.location.line, e.location.col), e.id) for e in service.elements}
        for succ in self.flow_succ.values():
            succ.sort(key=lambda n: order.get(n, ((), n)))

        self.call_sites: dict[str, list[Element]] = {}
        self.callees: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        for src, dst in calls:
            site = service.element(src)
            if site is not None and site.kind is ElementKind.CALL:
                self.call_sites.setdefault(dst, []).append(site)
            target = service.element(dst)
            if target is None or target.kind is not ElementKind.FUNCTION:
                continue
            caller = _enclosing_function(service, self, src)
            if caller is not None:
                self.callees.setdefault(caller.id, set()).add(dst)
                self.callers.setdefault(dst, set()).add(caller.id)
        for sites in self.call_sites.values():
            sites.sort(key=_loc_key)

    def ancestors(self, eid: str):
        """Containment parents of an element, innermost first; stops after
        as many steps as there are parents, so a cycle cannot loop."""
        cur = eid
        for _ in range(len(self.parent) + 1):
            cur = self.parent.get(cur)
            if cur is None:
                return
            yield cur


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


def _enclosing_function(service: Service, index: ServiceIndex, eid: str) -> Element | None:
    if eid not in index.function_of:
        index.function_of[eid] = _find_enclosing_function(service, index, eid)
    return index.function_of[eid]


def _find_enclosing_function(service: Service, index: ServiceIndex, eid: str) -> Element | None:
    el = service.element(eid)
    if el is None:
        return None
    if el.kind is ElementKind.FUNCTION:
        return el
    if el.kind is ElementKind.DECORATOR:
        target = index.decorated.get(eid)
        return service.element(target) if target is not None else None
    for pid in index.ancestors(eid):
        pel = service.element(pid)
        if pel is not None and pel.kind is ElementKind.FUNCTION:
            return pel
    return None


def enclosing_function(service: Service, eid: str) -> Element | None:
    """The function an element belongs to. Decorators resolve through the
    function they decorate."""
    return _enclosing_function(service, service_index(service), eid)


def guard_chain(service: Service, eid: str) -> list[Element]:
    """Conditional elements whose guarded block contains the element,
    outermost first. The list is the caller's own."""
    index = service_index(service)
    if eid not in index.guards_of:
        chain = []
        for pid in index.ancestors(eid):
            el = service.element(pid)
            if el is not None and el.kind is ElementKind.CONDITIONAL:
                chain.append(el)
        index.guards_of[eid] = tuple(reversed(chain))
    return list(index.guards_of[eid])


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
