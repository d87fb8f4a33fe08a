"""Cross-service data-flow stitching.

Builds the global reachability graph in two phases: per-service flow edges
from untrusted sources to privileged operations and outbound communication
call sites, then channel edges connecting outbound call sites to the
receiving endpoints. Global paths alternate intra-service flow witnesses
with channel hops. ``path_functions`` is the one walk over a path's
elements that validation reads: its functions and their guards.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from .model import Channel, Element, ElementKind, Program, Service, call_callee
from .search import FlowPath, q_flow, service_index
from .minisrv.lower import INBOUND_INTRINSICS, OUTBOUND_INTRINSICS


#: ``record(tool, args, count)`` takes one tool call for the trace, which
#: also meters the budget.
Recorder = Callable[[str, dict, int], None]


def unrecorded(tool: str, args: dict, count: int) -> None:
    """The recorder of a caller that keeps no trace."""


class NoEntryService(Exception):
    pass


@dataclass(frozen=True)
class UnresolvedChannel:
    """Outbound or consumer call site whose identifier is not a constant."""

    service: str
    element: str
    callee: str

    def __str__(self) -> str:
        return f"{self.service}: {self.callee} call {self.element} has a non-constant channel identifier"


class InterScan(NamedTuple):
    channels: list[Channel]
    unresolved: list[UnresolvedChannel]
    sources: list[Element]


@dataclass(frozen=True)
class ChannelEdge:
    """A matched (outbound call, receiving endpoint) pair."""

    from_service: str
    from_element: str
    to_service: str
    to_element: str
    identifier: str
    match_rule: str  # "exact" | "wildcard"


def q_source(service: Service) -> list[Element]:
    """Untrusted data entry points: endpoints and message consumers."""
    return list(_inter(service).sources)


def q_user(program: Program, reasoner) -> list[Element]:
    """External user inputs: entry-service sources confirmed against the
    gateway route table by the reasoner."""
    from .reasoner import ConfirmUserSource  # local import to avoid a cycle

    entry_name = program.manifest.entry_service()
    entry = program.service(entry_name) if entry_name else None
    if entry is None:
        raise NoEntryService("program has no entry service")
    prefixes = tuple(r.prefix for r in program.manifest.gateway_routes)
    confirmed = []
    for src in q_source(entry):
        identifier = src.name if src.kind is ElementKind.ENDPOINT else call_callee(src)
        verdict = reasoner.reason(ConfirmUserSource(identifier=identifier, route_prefixes=prefixes))
        if verdict.is_user_source:
            confirmed.append(src)
    return confirmed


def q_inter(service: Service) -> InterScan:
    """Inter-service communication points.

    Outbound channels come from the stored constant-resolved identifiers;
    endpoint elements double as inbound HTTP channels. Call sites whose
    identifier did not resolve to a constant are reported as diagnostics,
    not channels. Each call returns fresh lists.
    """
    return InterScan(*(list(part) for part in _inter(service)))


def _inter(service: Service) -> InterScan:
    """The service's sources and channels, from one element walk kept on
    its index."""
    index = service_index(service)
    if index.inter is None:
        index.inter = _scan_inter(service)
    return index.inter


def _scan_inter(service: Service) -> InterScan:
    stored = {ch.element: ch for ch in service.channels}
    channels: list[Channel] = []
    unresolved: list[UnresolvedChannel] = []
    sources: list[Element] = []
    for e in service.elements:
        if e.kind is ElementKind.ENDPOINT:
            channels.append(Channel(e.id, "in", "http", e.name))
            sources.append(e)
            continue
        if e.kind is not ElementKind.CALL:
            continue
        callee = call_callee(e)
        if callee in INBOUND_INTRINSICS:
            sources.append(e)
        if callee in OUTBOUND_INTRINSICS or callee in INBOUND_INTRINSICS:
            ch = stored.get(e.id)
            if ch is not None:
                channels.append(ch)
            else:
                unresolved.append(UnresolvedChannel(service.name, e.id, callee))
    channels.sort()
    unresolved.sort(key=lambda u: (u.service, u.element))
    sources.sort(key=lambda e: (e.location.file, e.location.line, e.location.col, e.id))
    return InterScan(channels, unresolved, sources)


_SCHEME_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.IGNORECASE)


def normalize_http_identifier(identifier: str) -> str:
    """Reduce a URL to its path: drop scheme://host:port and the query."""
    value = identifier
    if _SCHEME_RE.match(value):
        rest = _SCHEME_RE.sub("", value)
        slash = rest.find("/")
        value = rest[slash:] if slash >= 0 else "/"
    q = value.find("?")
    if q >= 0:
        value = value[:q]
    return value or "/"


def _is_wildcard_segment(seg: str) -> bool:
    return (seg.startswith("{") and seg.endswith("}")) or seg.startswith(":")


def _http_paths_match(out_path: str, in_path: str) -> str | None:
    """Segment-wise comparison; endpoint wildcard segments match any one
    segment. Returns the match rule or None."""
    out_segs = [s for s in out_path.split("/") if s != ""]
    in_segs = [s for s in in_path.split("/") if s != ""]
    if len(out_segs) != len(in_segs):
        return None
    rule = "exact"
    for o, i in zip(out_segs, in_segs):
        if _is_wildcard_segment(i):
            rule = "wildcard"
            continue
        if o != i:
            return None
    return rule


def channels_match(out_ch: Channel, in_ch: Channel) -> str | None:
    if out_ch.protocol != in_ch.protocol:
        return None
    if out_ch.protocol == "topic":
        return "exact" if out_ch.identifier == in_ch.identifier else None
    return _http_paths_match(normalize_http_identifier(out_ch.identifier), in_ch.identifier)


def match_channels(program: Program) -> list[ChannelEdge]:
    """Every (outbound, inbound) channel pair that matches, across all
    service pairs. Ambiguous outbound channels produce one edge per match."""
    scans = {s.name: q_inter(s) for s in program.services}
    edges: list[ChannelEdge] = []
    for out_svc in program.services:
        for out_ch in scans[out_svc.name].channels:
            if out_ch.direction != "out":
                continue
            for in_svc in program.services:
                if in_svc.name == out_svc.name:
                    continue
                for in_ch in scans[in_svc.name].channels:
                    if in_ch.direction != "in":
                        continue
                    rule = channels_match(out_ch, in_ch)
                    if rule is not None:
                        edges.append(
                            ChannelEdge(
                                from_service=out_svc.name,
                                from_element=out_ch.element,
                                to_service=in_svc.name,
                                to_element=in_ch.element,
                                identifier=in_ch.identifier,
                                match_rule=rule,
                            )
                        )
    edges.sort(key=lambda e: (e.from_service, e.from_element, e.to_service, e.to_element))
    return edges


def ambiguous_matches(edges: list[ChannelEdge]) -> list[str]:
    """Outbound call sites whose identifier matched endpoints in more than
    one service; surfaced as diagnostics for the validator."""
    targets: dict[str, set[str]] = {}
    for e in edges:
        targets.setdefault(e.from_element, set()).add(e.to_service)
    return sorted(el for el, svcs in targets.items() if len(svcs) > 1)


@dataclass(frozen=True)
class GlobalEdge:
    src: str
    dst: str
    witness: FlowPath | ChannelEdge

    @property
    def is_channel(self) -> bool:
        return isinstance(self.witness, ChannelEdge)


@dataclass
class GlobalGraph:
    """Cross-service reachability graph. Nodes are element ids; every edge
    carries a witness (an intra-service flow path or a channel match)."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[str, list[GlobalEdge]] = field(default_factory=dict)

    def add_edge(self, edge: GlobalEdge) -> None:
        bucket = self.edges.setdefault(edge.src, [])
        if all(e.dst != edge.dst or e.is_channel != edge.is_channel for e in bucket):
            bucket.append(edge)

    def successors(self, eid: str) -> list[GlobalEdge]:
        return sorted(self.edges.get(eid, []), key=lambda e: (e.dst, e.is_channel))

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())


def build_global_graph(
    program: Program,
    privops,
    channel_edges: list[ChannelEdge],
    record: Recorder = unrecorded,
) -> GlobalGraph:
    """Two-phase construction: per-service source-to-sink/boundary flow
    edges, then the matched channel edges (``match_channels``) across
    service boundaries. One flow search per source; ``record`` gets one
    ``q_flow`` call per (source, target) pair. Deterministic and
    idempotent."""
    graph = GlobalGraph()
    privop_ids = {p.element for p in privops}

    # Phase 1: intra-service reachability
    for service in sorted(program.services, key=lambda s: s.name):
        sources = q_source(service)
        record("q_source", {"service": service.name}, len(sources))
        scan = q_inter(service)
        out_channels = [ch for ch in scan.channels if ch.direction == "out"]
        record("q_inter", {"service": service.name}, len(scan.channels))
        local_privops = [eid for eid in sorted(privop_ids) if eid in service]
        targets = list(dict.fromkeys(local_privops + [ch.element for ch in out_channels]))
        for src in sources:
            graph.nodes.add(src.id)
            dsts = [dst for dst in targets if dst != src.id]
            # privileged operations and channels are call sites, not
            # functions, so a target's one flow node is itself
            paths = {p.dst: p for p in q_flow(service, src.id, *dsts)}
            for dst in dsts:
                path = paths.get(dst)
                record("q_flow", {"service": service.name, "from": src.id, "to": dst}, int(path is not None))
                if path is not None:
                    graph.nodes.add(dst)
                    graph.add_edge(GlobalEdge(src.id, dst, path))

    # Phase 2: connect boundaries through matched channels
    for chedge in channel_edges:
        graph.nodes.update((chedge.from_element, chedge.to_element))
        graph.add_edge(GlobalEdge(chedge.from_element, chedge.to_element, chedge))
    return graph


@dataclass(frozen=True)
class GlobalPath:
    """Alternating intra-service flow segments and channel hops, from a user
    source to a privileged operation. Derived facts are computed on first
    read and kept; equality and hashing use ``segments`` alone."""

    segments: tuple[FlowPath | ChannelEdge, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("GlobalPath needs at least one segment")

    @cached_property
    def id(self) -> str:
        key = "\x1f".join(self.node_ids)
        return "p" + hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        ids: list[str] = []
        for seg in self.segments:
            chain = seg.elements if isinstance(seg, FlowPath) else (seg.from_element, seg.to_element)
            ids.extend(chain[1:] if ids and ids[-1] == chain[0] else chain)
        return tuple(ids)

    @cached_property
    def channel_edges(self) -> tuple[ChannelEdge, ...]:
        return tuple(s for s in self.segments if isinstance(s, ChannelEdge))

    @cached_property
    def flow_segments(self) -> tuple[FlowPath, ...]:
        return tuple(s for s in self.segments if isinstance(s, FlowPath))

    @property
    def source(self) -> str:
        return self.node_ids[0]

    @property
    def sink(self) -> str:
        return self.node_ids[-1]

    @cached_property
    def services(self) -> tuple[str, ...]:
        seen: list[str] = []
        for seg in self.flow_segments:
            if not seen or seen[-1] != seg.service:
                seen.append(seg.service)
        return tuple(seen)


def path_functions(program: Program, path: GlobalPath) -> list[tuple[Service, Element | None, tuple[Element, ...]]]:
    """The path's elements grouped by enclosing function, in order of first
    visit: one ``(service, function, guards)`` per group. ``guards`` are the
    conditionals whose block holds an element of the group, each element's
    outermost first, each listed once. The elements of a service that lie
    outside any function form a group whose function is None."""
    groups: dict[tuple[str, str | None], tuple[Service, Element | None, dict[str, Element]]] = {}
    for segment in path.flow_segments:
        service = program.service(segment.service)
        if service is None:
            continue
        index = service_index(service)
        for eid in segment.elements:
            fn, chain = index.place(service, eid)
            guards = groups.setdefault((service.name, fn.id if fn else None), (service, fn, {}))[2]
            for guard in chain:
                guards.setdefault(guard.id, guard)
    return [(service, fn, tuple(guards.values())) for service, fn, guards in groups.values()]


class GlobalFlows(NamedTuple):
    paths: list[GlobalPath]
    truncated: bool


PATH_CAP = 10_000


def q_globalflow(graph: GlobalGraph, sources, sinks, cap: int = PATH_CAP) -> GlobalFlows:
    """All simple paths from any source element to any privileged
    operation, lexicographic by node id sequence, capped with a flag."""
    source_ids = sorted({s.id for s in sources})
    sink_ids = {op.element for op in sinks}

    found: list[tuple[tuple[str, ...], tuple[GlobalEdge, ...]]] = []
    truncated = False

    def dfs(node: str, trail: list[str], edges: list[GlobalEdge], on_path: set[str]) -> bool:
        nonlocal truncated
        if node in sink_ids and edges:
            if len(found) >= cap:
                truncated = True
                return False
            found.append((tuple(trail), tuple(edges)))
        for edge in graph.successors(node):
            if edge.dst in on_path:
                continue
            trail.append(edge.dst)
            edges.append(edge)
            on_path.add(edge.dst)
            ok = dfs(edge.dst, trail, edges, on_path)
            on_path.discard(edge.dst)
            edges.pop()
            trail.pop()
            if not ok:
                return False
        return True

    for src in source_ids:
        if src not in graph.nodes:
            continue
        if not dfs(src, [src], [], {src}):
            break

    found.sort(key=lambda item: (item[0], tuple(e.is_channel for e in item[1])))
    paths = [GlobalPath(tuple(e.witness for e in edges)) for _, edges in found]
    return GlobalFlows(paths, truncated)


def to_dot(graph: GlobalGraph, program: Program) -> str:
    """Render the global graph in DOT text for inspection."""
    def label(eid: str) -> str:
        placed = program.find_element(eid)
        if placed is None:
            return eid
        svc, el = placed
        text = el.name or call_callee(el) or el.kind.value
        return f"{svc.name}:{text}"

    lines = ["digraph privflow {"]
    for node in sorted(graph.nodes):
        lines.append(f'  "{node}" [label="{label(node)}"];')
    for src in sorted(graph.edges):
        for edge in graph.successors(src):
            if edge.is_channel:
                lines.append(f'  "{edge.src}" -> "{edge.dst}" [style=dashed, label="{edge.witness.identifier}"];')
            else:
                lines.append(f'  "{edge.src}" -> "{edge.dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
