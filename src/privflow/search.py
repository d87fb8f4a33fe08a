"""The four unified code-search primitives and the element property functions.

All operations are pure reads over an immutable Service:

* ``q_name``: identifier lookup, exact or regular-expression;
* ``q_ast``: lookup by element kind;
* ``q_flow``: shortest data-propagation paths from one selector to
  several, one breadth-first search per source. A ``FlowPath`` is a
  named tuple of a service and the element ids of one path, so it is
  compared and hashed by value; a hop is a consecutive pair;
* ``q_cg``: bidirectional call-graph traversal with a depth bound;
* ``get_location`` / ``get_source`` / ``get_type``: element properties.

The primitives read a ``ServiceIndex``: the service's edges grouped by
kind and endpoint in one pass, built on first use and stored on that
Service object, so no query scans every edge and nothing outlives the
Service. Every per-element and per-function fact validation reads
(enclosing function, guards, guard types, decorator checks, variable
types, check-relevant functions) and the service's sources and channels
are built with it, so no fact is filled on first query. The frontend (or
an external facts producer) emits def-use edges already saturated under
the propagation rules, so the data-flow relation is their closure by
construction.

Orders are decided where the data is built. ``Service.build`` sorts the
elements by ``model.element_order``, so ``q_name``, ``q_ast`` and
``resolve_selector`` filter ``Service.elements`` and sort nothing; the
index sorts call sites and decorator checks by ``element_order`` once,
when it is built; ``q_cg`` and a function's flow proxies, gathered from
several tables, are sorted by it per query.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import INBOUND_INTRINSICS, OUTBOUND_INTRINSICS, Channel, EdgeKind, Element, ElementKind, Location
from .model import Service, call_callee, element_order


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


def q_name(service: Service, pattern: str, mode: str = NameMode.EXACT) -> list[Element]:
    """All elements whose name matches, in ``Service.elements`` order;
    anonymous elements never match."""
    if not pattern:
        raise BadPattern("empty pattern")
    if mode == NameMode.EXACT:
        return [e for e in service.elements if e.name and e.name == pattern]
    if mode == NameMode.REGEX:
        try:
            rx = re.compile(pattern)
        except re.error as exc:
            raise BadPattern(f"invalid regex {pattern!r}: {exc}")
        return [e for e in service.elements if e.name and rx.fullmatch(e.name)]
    raise BadPattern(f"unknown name mode {mode!r}")


def q_ast(service: Service, opkind: ElementKind | str) -> list[Element]:
    """All elements of one syntactic kind, in ``Service.elements`` order."""
    kind = ElementKind(opkind)
    return [e for e in service.elements if e.kind is kind]


class UnresolvedChannel(NamedTuple):
    """Outbound or consumer call site whose identifier is not a constant."""

    service: str
    element: str
    callee: str

    def __str__(self) -> str:
        return f"{self.service}: {self.callee} call {self.element} has a non-constant channel identifier"


class InterScan(NamedTuple):
    """A service's communication points: its channels, sorted; the channel
    call sites whose identifier did not resolve to a constant; and its
    untrusted sources (endpoints and consumer calls) in source order."""

    channels: tuple[Channel, ...]
    unresolved: tuple[UnresolvedChannel, ...]
    sources: tuple[Element, ...]


_NOWHERE: tuple[Element | None, tuple[Element, ...]] = (None, ())


class ServiceIndex:
    """The edges and per-element facts of one Service, all built and
    ordered by the constructor: lists keep edge order (edges are sorted),
    except that call sites and decorator checks are sorted by
    ``element_order``, flow successors by ``((line, col), id)``, the
    tie-break of ``q_flow``'s breadth-first search, and sources by
    ``(file, line, col, id)``.

    ``var_types`` maps each name to the type of the first variable or
    parameter declared under it, ``inter`` holds the channels and sources,
    and ``decorator_checks`` each decorated function's check functions (the
    functions its decorators call, each once, in source order). One
    top-down walk over ``contains``, from each element whose parent (its
    last ``contains`` edge) is not an element, fills ``placed`` (see
    ``place``) and ``guard_types``, each reached conditional's identifiers
    typed from ``var_types``. It never reaches an element on or below a
    cycle.

    ``check_relevant`` holds the ids of the functions whose group of a
    flow's elements can carry a check candidate: those with decorator
    checks, and those (None for code outside every function) that the walk
    places an element in under a conditional. Any other function's group
    has no guards and no decorator checks, so ``crossflow.check_summary``
    leaves it out and validation reads nothing from it.
    """

    def __init__(self, service: Service):
        # the element table and the edge tuples are read directly: this runs
        # once per service, over every element and edge
        by_id = service._by_id
        parent: dict[str, str] = {}
        decorated: dict[str, str] = {}
        decorators: dict[str, list[str]] = {}
        call_targets: dict[str, list[str]] = {}
        self.children: dict[str, list[str]] = {}
        self.flow_succ: dict[str, list[str]] = {}
        contains, decorates, calls, dataflow = EdgeKind.CONTAINS, EdgeKind.DECORATES, EdgeKind.CALLS, EdgeKind.DATAFLOW
        for kind, src, dst in service.edges:
            if kind is contains:
                parent[dst] = src
                self.children.setdefault(src, []).append(dst)
            elif kind is decorates:
                decorated.setdefault(src, dst)
                decorators.setdefault(dst, []).append(src)
            elif kind is calls:
                call_targets.setdefault(src, []).append(dst)
            elif kind is dataflow:
                self.flow_succ.setdefault(src, []).append(dst)

        stored = {ch.element: ch for ch in service.channels}
        channels: list[Channel] = []
        unresolved: list[UnresolvedChannel] = []
        sources: list[Element] = []
        self.var_types: dict[str, str] = {}
        typed = (ElementKind.VARIABLE, ElementKind.PARAMETER)
        for e in service.elements:
            kind = e.kind
            if kind in typed:
                self.var_types.setdefault(e.name, e.inferred_type)
            elif kind is ElementKind.ENDPOINT:
                channels.append(Channel(e.id, "in", "http", e.name))
                sources.append(e)
            elif kind is ElementKind.CALL:
                callee = call_callee(e)
                if callee in INBOUND_INTRINSICS:
                    sources.append(e)
                if callee in OUTBOUND_INTRINSICS or callee in INBOUND_INTRINSICS:
                    ch = stored.get(e.id)
                    if ch is not None:
                        channels.append(ch)
                    else:
                        unresolved.append(UnresolvedChannel(service.name, e.id, callee))

        def position(eid: str) -> tuple:
            el = by_id.get(eid)
            return ((el.location.line, el.location.col), eid) if el is not None else ((), eid)

        for succ in self.flow_succ.values():
            if len(succ) > 1:
                succ.sort(key=position)
        self.inter = InterScan(
            tuple(sorted(channels)),
            tuple(sorted(unresolved, key=lambda u: u.element)),
            tuple(sorted(sources, key=lambda e: (e.location.file, e.location.line, e.location.col, e.id))),
        )

        # A function places as itself, a decorator as the first function it
        # decorates, any other element as its innermost function ancestor;
        # each with all its conditional ancestors, outermost first.
        self.placed: dict[str, tuple[Element | None, tuple[Element, ...]]] = {}
        self.guard_types: dict[str, tuple[tuple[str, str], ...]] = {}
        self.check_relevant: set[str | None] = set()
        stack = [(e.id, _NOWHERE) for e in service.elements if parent.get(e.id) not in by_id]
        while stack:
            eid, inherited = stack.pop()
            el = by_id[eid]
            fn, guards = placed = inherited
            kind = el.kind
            if kind is ElementKind.FUNCTION:
                placed = inherited = (el, guards)
            elif kind is ElementKind.DECORATOR:
                placed = (by_id.get(decorated.get(eid)), guards)
            elif kind is ElementKind.CONDITIONAL:
                idents = set(identifiers(el.source)) - {"true", "false"}
                self.guard_types[eid] = tuple([(i, self.var_types.get(i, "unknown")) for i in sorted(idents)])
                inherited = (fn, guards + (el,))
            self.placed[eid] = placed
            if placed[1]:
                self.check_relevant.add(placed[0].id if placed[0] else None)
            children = self.children.get(eid)
            if children:
                stack.extend((c, inherited) for c in children if parent[c] == eid and c in by_id)

        self.decorator_checks: dict[str, list[Element]] = {}
        for fn_id, decs in decorators.items():
            targets = (by_id.get(t) for d in decs for t in call_targets.get(d, ()))
            checks = {t.id: t for t in targets if t is not None and t.kind is ElementKind.FUNCTION}
            self.decorator_checks[fn_id] = sorted(checks.values(), key=element_order)
            if checks:
                self.check_relevant.add(fn_id)

        self.call_sites: dict[str, list[Element]] = {}
        self.callees: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        for src, dsts in call_targets.items():
            site = by_id.get(src)
            for dst in dsts:
                if site is not None and site.kind is ElementKind.CALL:
                    self.call_sites.setdefault(dst, []).append(site)
                target = by_id.get(dst)
                if target is None or target.kind is not ElementKind.FUNCTION:
                    continue
                caller = self.placed.get(src, _NOWHERE)[0]
                if caller is not None:
                    self.callees.setdefault(caller.id, set()).add(dst)
                    self.callers.setdefault(dst, set()).add(caller.id)
        for sites in self.call_sites.values():
            if len(sites) > 1:
                sites.sort(key=element_order)

    def place(self, eid: str) -> tuple[Element | None, tuple[Element, ...]]:
        """The element's enclosing function and the conditionals whose
        guarded block contains it, outermost first; ``(None, ())`` for an
        unknown id or an element on or below a ``contains`` cycle."""
        return self.placed.get(eid, _NOWHERE)


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_STRING = re.compile(r'"[^"]*"')


def identifiers(text: str) -> list[str]:
    """The identifiers of a source text outside its string literals, in
    order, repeats included."""
    return _IDENTIFIER.findall(_STRING.sub('""', text))


def service_index(service: Service) -> ServiceIndex:
    """The service's index, built on first use and kept on the instance.

    Threads racing on first use may each build one; the indexes are equal
    and the last one stored is kept."""
    index = service._index
    if index is None:
        index = service._index = ServiceIndex(service)
    return index


class FlowPath(NamedTuple):
    """A data propagation witness in one service: element ids from source
    to sink. Each consecutive pair of elements is a data-flow edge."""

    service: str
    elements: tuple[str, ...]

    @property
    def src(self) -> str:
        return self.elements[0]

    @property
    def dst(self) -> str:
        return self.elements[-1]


def resolve_selector(service: Service, selector: str) -> list[Element]:
    """Resolve an element selector (id or name) to matching elements, in
    ``Service.elements`` order."""
    el = service.element(selector)
    if el is not None:
        return [el]
    hits = [e for e in service.elements if e.name and e.name == selector]
    if not hits:
        raise UnknownElement(f"{service.name}: no element matches selector {selector!r}")
    return hits


def _shortest_paths(index: ServiceIndex, src: str, dsts: tuple[str, ...]) -> list[tuple[str, ...]]:
    """One BFS from ``src``: the shortest path to each reached destination,
    in ``dsts`` order. It stops once every destination is reached.

    Neighbor ties are broken by source position. A node's predecessor is
    fixed when the search first reaches it, which does not depend on the
    destinations sought, so each path is the one a search for that
    destination alone would find."""
    left = set(dsts)
    reached = []
    if src in left:
        left.remove(src)
        reached.append(src)
    prev: dict[str, str | None] = {src: None}
    successors = index.flow_succ.get
    queue = [src]
    for node in queue:  # the queue grows while it is read: first in, first out
        if not left:
            break
        for succ in successors(node, ()):
            if succ not in prev:
                prev[succ] = node
                queue.append(succ)
                if succ in left:
                    left.remove(succ)
                    reached.append(succ)
    if len(reached) > 1:
        reached.sort(key=dsts.index)
    paths = []
    for node in reached:
        path = []
        while node is not None:
            path.append(node)
            node = prev[node]
        path.reverse()
        paths.append(tuple(path))
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
    return sorted(proxies, key=element_order)


def _flow_node_ids(service: Service, selector: str) -> list[str]:
    """The ids of the flow nodes of every element the selector resolves to.
    An element id names the element; one that is no function is its own
    flow node."""
    el = service.element(selector)
    if el is not None and el.kind is not ElementKind.FUNCTION:
        return [selector]
    return [n.id for el in resolve_selector(service, selector) for n in _flow_nodes(service, el)]


def flow_sinks(service: Service, *sels: str) -> tuple[str, ...]:
    """The flow nodes the selectors resolve to, each once, in selector and
    then node order: the sinks ``q_flow`` searches for."""
    return tuple(dict.fromkeys(nid for sel in sels for nid in _flow_node_ids(service, sel)))


def q_flow(service: Service, from_sel: str, *to_sels: str, sinks: tuple[str, ...] | None = None) -> list[FlowPath]:
    """Shortest data-flow path from every source to every sink the
    selectors resolve to, one breadth-first search per source node.

    ``sinks`` may be given instead of the selectors, as ``flow_sinks``
    resolved them, so that searches from many sources to the same sinks
    resolve them once. Paths come per source node, in selector and then
    sink order; unreachable pairs contribute nothing and an empty list
    means no flow.
    """
    if sinks is None:
        sinks = flow_sinks(service, *to_sels)
    elif to_sels:
        raise TypeError("q_flow takes sink selectors or resolved sinks, not both")
    sources = dict.fromkeys(_flow_node_ids(service, from_sel))
    index = service_index(service)
    return [FlowPath(service.name, chain) for src in sources for chain in _shortest_paths(index, src, sinks)]


# --- call graph --------------------------------------------------------------


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
    return sorted((e for e in found if e is not None), key=element_order)


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
    "InterScan",
    "UnresolvedChannel",
    "ServiceIndex",
    "q_name",
    "q_ast",
    "q_flow",
    "q_cg",
    "flow_sinks",
    "service_index",
    "resolve_selector",
    "call_sites_of",
    "get_location",
    "get_source",
    "get_type",
]
